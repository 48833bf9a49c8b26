"""Private SVM classification and neural-network inference.

The server (role 0) holds the model in the clear; the client (role 1)
holds the query. compile_nn walks a net once into a list of Steps, one
per layer, and everything else reads that list: plan_nn_manifest sums
the steps' dealt counts, nn_infer runs the steps, and nn_oracle replays
their shifts and gathers in the clear with arithmetic of its own, so
secure and plain results agree bit-for-bit. A step's gather has one row
per output: a dot product's im2col window, a pool window, or one
Boolean stage instance's values.

Linear layers run on additive shares: a convolution or a fully connected
layer is one block of equal-length cleartext-operand dot products, i.e.
one vdp call, and mean pooling is local. Non-linear layers (ReLU, max
pooling) run as Boolean circuits in GMW ("lan" profile) or garbled
circuits ("wan" profile); the argmax every net ends in, and the SVM's
sign, always run garbled, decoding only to the client.

Fixed-point scale bookkeeping: every linear layer over beta-scaled
operands leaves the output scaled by an extra 2^beta (and mean-pooling by
its window area); that pending shift is discharged for free as rewiring
inside the next garbled stage. A stage that shifts by s leaves l - s
bits, since the top s bits of the shifted value only repeat its sign: its
body (garbled or GMW) runs at that width, and b2a converts that many
bits, sign-extending the top one, or the l - s - 1 bits below a ReLU's
constant-0 sign.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from . import circuits as cc
from . import convert, ring
from .ass import ArithShare
from .circuits import stage_circuit
from .correlated import ResourceManifest
from .gmw import BoolShare
from .ring import RingParams
from .session import PartySession
from .transport import MAX_PAYLOAD

LAN, WAN = "lan", "wan"


class MlError(ValueError):
    pass


# ----- model descriptions -----


@dataclass
class Conv:
    maps: int
    kernel: int
    stride: int = 1
    pad: tuple[int, int] = (0, 0)  # (before, after) on both axes
    weights: np.ndarray | None = None  # (maps, in_ch, k, k) real-valued


@dataclass
class FC:
    din: int
    dout: int
    weights: np.ndarray | None = None  # (dout, din)


@dataclass
class Act:
    """ReLU."""


@dataclass
class MeanPool:
    window: int


@dataclass
class MaxPool:
    window: int


@dataclass
class ArgMax:
    pass


@dataclass
class NetSpec:
    input_shape: tuple[int, int, int]  # (channels, height, width)
    layers: list = field(default_factory=list)

    def public(self) -> "NetSpec":
        """Architecture without weights; what the client works from."""
        stripped = []
        for l in self.layers:
            if isinstance(l, (Conv, FC)):
                stripped.append(replace(l, weights=None))
            else:
                stripped.append(l)
        return NetSpec(self.input_shape, stripped)


@dataclass
class SvmModel:
    w: np.ndarray  # (d,) or (batch, d)
    b: np.ndarray | float


# ----- compiling a net into steps -----


def _conv_out(h, k, stride, pad):
    return (h + pad[0] + pad[1] - k) // stride + 1


_SIZES = {Conv: ("maps", "kernel", "stride"), FC: ("din", "dout"),
          MaxPool: ("window",), MeanPool: ("window",)}


def _walk(net: NetSpec, p: RingParams, batch: int = 1):
    """Yields (layer, in_shape, out_shape) with dimension checking; a net
    ends in exactly one ArgMax, the one check of that rule for load_net and
    compile_nn, so it has a layer to check its input as layer 0's, and
    every size must be at least 1. From the shapes alone, before a layer
    is yielded, a plan for batch images must fit MAX_PAYLOAD: the layer's
    input as ring elements, its masked operands (one DA_MASKED frame) and
    role 1's bundle so far (the dot-product scalars and labels), which
    keeps every dealt count below the manifest's 2^32. Sizes are Python
    ints, so no product wraps."""
    shape = net.input_shape
    if min(shape, default=0) < 1:
        raise MlError(f"input shape {shape} has an empty axis")
    if not net.layers:
        raise MlError("a net must end in exactly one ArgMax; this one has no layers")
    bundle, last = 0, len(net.layers) - 1
    for i, layer in enumerate(net.layers):
        name, n = f"layer {i} ({type(layer).__name__})", math.prod(shape)
        if batch * n * p.nbytes > MAX_PAYLOAD:
            raise MlError(f"{name}: its input {shape} at batch {batch} does not fit one frame")
        for size in _SIZES.get(type(layer), ()):
            if getattr(layer, size) < 1:
                raise MlError(f"{name}: {size} is {getattr(layer, size)}, not at least 1")
        if isinstance(layer, (Conv, MaxPool, MeanPool)) and len(shape) != 3:
            raise MlError(f"{name} needs a (channels, height, width) input, got shape {shape}")
        if isinstance(layer, Conv):
            ch, h, w = shape
            oh = _conv_out(h, layer.kernel, layer.stride, layer.pad)
            ow = _conv_out(w, layer.kernel, layer.stride, layer.pad)
            if oh < 1 or ow < 1:
                raise MlError("convolution output would be empty")
            out = (layer.maps, oh, ow)
        elif isinstance(layer, FC):
            if n != layer.din:
                raise MlError(f"FC expects {layer.din} inputs, got {n}")
            out = (layer.dout,)
        elif isinstance(layer, (MaxPool, MeanPool)):
            ch, h, w = shape
            k = layer.window
            if h % k or w % k:
                raise MlError("pool window must divide the activation size")
            out = (ch, h // k, w // k)
        elif isinstance(layer, ArgMax):
            out = ()
        elif isinstance(layer, Act):
            out = shape
        else:
            raise MlError(f"unknown layer {layer!r}")
        if isinstance(layer, (Conv, FC)):
            # products of the window (Conv) or the whole input (FC)
            length = shape[0] * layer.kernel ** 2 if isinstance(layer, Conv) else n
            products = batch * math.prod(out)
            if products * length * p.nbytes > MAX_PAYLOAD:
                raise MlError(f"{name}: {products} dot products of length {length} "
                              f"do not fit one frame")
            bundle += products * p.nbytes
        elif not isinstance(layer, MeanPool):  # every input value's bits on labels
            bundle += batch * n * p.l * 16
        if bundle > MAX_PAYLOAD:
            raise MlError(f"{name}: the dealer's bundle would exceed one frame")
        if isinstance(layer, ArgMax) != (i == last):
            raise MlError(f"{name}: a net must end in exactly one ArgMax")
        yield layer, shape, out
        shape = out


@dataclass
class Step:
    """One layer of a net compiled for a batch of images.

    gather holds one row per output of an image: indices into the image's
    flat activation of n values, where index n reads a public zero (a
    Conv's padding). A Boolean stage (Act, MaxPool or ArgMax) discharges
    the scale debt shift in its garbled circuit; under lan an Act or
    MaxPool then runs body in GMW on the circuit's outputs, and b2a
    converts b2a_bits per instance (none for ArgMax, which decodes to the
    client). block, labels, dabits and bmts are the dealt material the
    step consumes: labels carry the evaluator's garbled input bits, dabits b2a's.
    """

    layer: object
    out_shape: tuple
    gather: np.ndarray
    shift: int = 0
    garbled: cc.Circuit | None = None
    body: cc.Circuit | None = None
    b2a_bits: int = 0
    block: tuple[int, int] | None = None
    labels: int = 0
    dabits: int = 0
    bmts: int = 0


def _window_gather(in_shape, k, stride, pad, per_channel: bool) -> np.ndarray:
    """(outputs, window) indices of k x k windows: a Conv's window spans
    every channel (outputs position-major), a pool's stays in one channel
    (outputs channel-major). Padding reads index ch*h*w."""
    ch, h, w = in_shape
    oh, ow = _conv_out(h, k, stride, pad), _conv_out(w, k, stride, pad)
    ci, oi, oj, ki, kj = np.ix_(*(np.arange(n) for n in (ch, oh, ow, k, k)))
    r, c = oi * stride + ki - pad[0], oj * stride + kj - pad[0]
    inside = (r >= 0) & (r < h) & (c >= 0) & (c < w)
    idx = np.where(inside, (ci * h + r) * w + c, ch * h * w)  # (ch, oh, ow, k, k)
    if per_channel:
        return idx.reshape(ch * oh * ow, k * k)
    return idx.transpose(1, 2, 0, 3, 4).reshape(oh * ow, ch * k * k)


def compile_nn(net: NetSpec, p: RingParams, batch: int, profile: str) -> list[Step]:
    """The one walk over a net: a Step per layer, for batch images.

    The net must end in exactly one ArgMax (_walk's rule). A linear layer
    over beta-scaled operands adds beta to the scale debt, mean pooling
    adds log2 of its area, and the next Boolean stage discharges the debt.
    wan garbles a whole stage; lan garbles only the identity stage of an
    Act or MaxPool and runs relu or max in GMW on its l - shift output
    bits.
    """
    if profile not in (LAN, WAN):
        raise MlError(f"unknown profile {profile!r}: use {LAN!r} or {WAN!r}")
    steps, debt = [], 0
    for layer, in_shape, out_shape in _walk(net, p, batch):
        n = int(np.prod(in_shape))
        if isinstance(layer, Conv):
            gather = _window_gather(in_shape, layer.kernel, layer.stride, layer.pad, False)
        elif isinstance(layer, (MeanPool, MaxPool)):
            gather = _window_gather(in_shape, layer.window, layer.window, (0, 0), True)
        elif isinstance(layer, Act):
            gather = np.arange(n)[:, None]
        else:  # FC and ArgMax: one row over the whole input
            gather = np.arange(n)[None, :]
        rows, nvals = gather.shape
        if isinstance(layer, (Conv, FC)):
            products = batch * int(np.prod(out_shape))
            steps.append(Step(layer, out_shape, gather, block=(products, nvals)))
            debt += p.beta
        elif isinstance(layer, MeanPool):
            if nvals & (nvals - 1):
                raise MlError("mean-pool area must be a power of two")
            steps.append(Step(layer, out_shape, gather))
            debt += nvals.bit_length() - 1
        else:
            kind = {Act: "relu", MaxPool: "max", ArgMax: "argmax"}[type(layer)]
            body = None
            if profile != WAN and kind != "argmax":
                w = p.l - debt
                body = (cc.build_by_name("relu", w) if kind == "relu"
                        else cc.build_max_tree(nvals, w, cc.DEPTH))
                kind = "identity"
            garbled = stage_circuit(kind, p.l, debt, nvals)
            # b2a converts the stage's outputs, but below a ReLU's constant-0 sign
            nbits = 0 if kind == "argmax" else len((body or garbled).outputs) - isinstance(layer, Act)
            ninst = batch * rows
            steps.append(Step(layer, out_shape, gather, debt, garbled, body, nbits,
                              labels=ninst * len(garbled.inputs1), dabits=ninst * nbits,
                              bmts=ninst * body.num_and if body else 0))
            debt = 0
    return steps


def _gather(x: np.ndarray, step: Step) -> np.ndarray:
    """(batch, n) activations -> (batch, rows, window) by the step's gather."""
    return np.pad(x, ((0, 0), (0, 1)))[:, step.gather]


# ----- manifest planning -----


def plan_nn_manifest(net: NetSpec, p: RingParams, batch: int, profile: str,
                     session_id: bytes) -> ResourceManifest:
    """Exact resource counts for one nn_infer call; consumed to zero."""
    steps = compile_nn(net, p, batch, profile)
    return ResourceManifest(session_id, p, num_bmt=sum(s.bmts for s in steps),
                            num_dabits=sum(s.dabits for s in steps),
                            num_labels=sum(s.labels for s in steps),
                            vdp_blocks=tuple(s.block for s in steps if s.block))


def plan_svm_manifest(d: int, batch: int, p: RingParams,
                      session_id: bytes) -> ResourceManifest:
    labels = batch * len(stage_circuit("sign", p.l, p.beta).inputs1)
    return ResourceManifest(session_id, p, num_labels=labels, vdp_blocks=((batch, d),))


# ----- secure execution -----


def _boolean_stage(se: PartySession, vals: np.ndarray, step: Step) -> ArithShare:
    """a2y (+rewired shift) -> Act or MaxPool stage -> additive shares.

    Each row of vals holds one instance's value shares (one for relu, a
    pool window for max); the output holds one value per instance.
    """
    p = se.ring
    ninst = len(vals)
    share_bits = ring.bits_of(vals, p).reshape(ninst, -1)
    out_bits = convert.y2b(se.gc, se.gc.run_shares(step.garbled, share_bits, ninst, "none"))
    if step.body is not None:
        empty = BoolShare(np.zeros((ninst, 0), np.uint8), se.role)
        out_bits = se.gmw.evaluate(step.body.levelized, out_bits, empty)
    bs = BoolShare(out_bits.bits[:, :step.b2a_bits], se.role)
    return convert.b2a(se.channel, p, se.dabits, bs, signed=isinstance(step.layer, MaxPool))


def _reveal_stage(se: PartySession, vals: np.ndarray, circuit: cc.Circuit) -> np.ndarray:
    """Final garbled stage over (instances, values) shares, decoded to the
    client only."""
    share_bits = ring.bits_of(vals, se.ring).reshape(len(vals), -1)
    return se.gc.run_shares(circuit, share_bits, len(vals), "evaluator")


def nn_infer(se: PartySession, net: NetSpec, images: np.ndarray | None,
             batch: int, profile: str = LAN) -> np.ndarray | None:
    """Run inference; returns class indices at role 1, None at role 0.

    net carries weights at role 0 and only the architecture at role 1;
    images is (batch, ch, h, w) real-valued at role 1. batch is public
    protocol structure and must match the planned manifest.
    """
    p = se.ring
    *body, last = compile_nn(net, p, batch, profile)
    enc = None
    if se.role == 1:
        want = (batch, *net.input_shape)
        if np.shape(images) != want:
            raise MlError(f"images have shape {np.shape(images)}, the plan needs {want}")
        enc = ring.encode(images.reshape(batch, -1), p).reshape(-1)
    count = batch * int(np.prod(net.input_shape))
    x = se.ass.share_input(enc, count, owner=1).value.reshape(batch, -1)
    for step in body:
        layer, v = step.layer, _gather(x, step)  # (batch, rows, window)
        if isinstance(layer, (Conv, FC)):
            maps = step.out_shape[0]
            shape = (batch, maps) + v.shape[1:]
            y = np.broadcast_to(v[:, None], shape).reshape(-1)
            kern = None
            if se.role == 0:
                kern = ring.encode(layer.weights.reshape(maps, -1), p)
                kern = np.broadcast_to(kern[None, :, None], shape).reshape(-1)
            x = se.ass.vdp(kern, ArithShare(y, se.role), step.block[1]).value
        elif isinstance(layer, MeanPool):
            x = v.sum(axis=2, dtype=p.dtype)
        else:
            x = _boolean_stage(se, v.reshape(-1, v.shape[2]), step).value
        x = x.reshape(batch, -1)
    bits = _reveal_stage(se, _gather(x, last)[:, 0], last.garbled)
    if se.role == 1:
        weights = np.uint64(1) << np.arange(bits.shape[0], dtype=np.uint64)
        return (bits.astype(np.uint64).T * weights).sum(axis=1)
    return None


def svm_classify(se: PartySession, model: SvmModel | None,
                 queries: np.ndarray | None, d: int, batch: int):
    """sign(w.x - b) per query; labels in {-1, +1} revealed at role 1.

    queries is (batch, d) at role 1, or (d,) when batch is 1; model.w at
    role 0 is (d,), shared by every query, or (batch, d).
    """
    p = se.ring
    enc = None
    if se.role == 1:
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if q.shape != (batch, d):
            raise MlError(f"queries have shape {q.shape}, the plan needs {(batch, d)}")
        enc = ring.encode(q, p).reshape(-1)
    elif np.shape(model.w) not in ((d,), (batch, d)):
        raise MlError(f"model weights have shape {np.shape(model.w)}, the plan "
                      f"needs {(d,)} or {(batch, d)}")
    x = se.ass.share_input(enc, batch * d, owner=1)
    if se.role == 0:
        w = np.broadcast_to(np.asarray(model.w, dtype=np.float64), (batch, d))
        z = se.ass.vdp(ring.encode(w, p).reshape(-1), ArithShare(x.value, 0), d)
        # subtract the private intercept at scale 2^(2*beta)
        b_enc = ring.encode(np.broadcast_to(np.asarray(model.b), (batch,)), p)
        z.value = z.value - (b_enc << p.beta)
    else:
        z = se.ass.vdp(None, ArithShare(x.value, 1), d)
    bits = _reveal_stage(se, z.value[:, None], stage_circuit("sign", p.l, p.beta))
    if se.role == 1:
        return np.where(bits[0].astype(bool), 1, -1)
    return None


# ----- plaintext fixed-point oracle (same compiled steps) -----


def nn_oracle(net: NetSpec, images: np.ndarray, p: RingParams) -> np.ndarray:
    """Class indices in the clear; reads the steps' shifts and gathers."""
    batch = images.shape[0]
    *body, last = compile_nn(net, p, batch, WAN)  # wan's circuits are all cached
    x = ring.encode(images.reshape(batch, -1), p)
    for step in body:
        layer, v = step.layer, _gather(x, step)  # (batch, rows, window)
        if isinstance(layer, (Conv, FC)):
            kern = ring.encode(layer.weights.reshape(step.out_shape[0], -1), p)
            # (batch, maps, rows), map-major like the secure path
            x = np.matmul(v, kern.T).transpose(0, 2, 1)
        elif isinstance(layer, MeanPool):
            x = v.sum(axis=2, dtype=p.dtype)
        elif isinstance(layer, Act):
            t = ring.truncate(v, p, shift=step.shift)
            x = np.where(ring.to_signed(t, p) > 0, t, 0)
        else:  # MaxPool
            s = ring.to_signed(ring.truncate(v, p, shift=step.shift), p)
            x = ring.from_signed(s.max(axis=2), p)
        x = x.reshape(batch, -1)
    v = ring.truncate(_gather(x, last)[:, 0], p, shift=last.shift)
    return np.argmax(ring.to_signed(v, p), axis=1).astype(np.uint64)


def svm_oracle(model: SvmModel, queries: np.ndarray, p: RingParams) -> np.ndarray:
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    batch, d = q.shape
    w = np.asarray(model.w, dtype=np.float64)
    w = np.broadcast_to(w, (batch, d)) if w.ndim == 1 else w
    acc = (ring.encode(w, p) * ring.encode(q, p)).sum(axis=1, dtype=p.dtype)
    b_enc = ring.encode(np.broadcast_to(np.asarray(model.b), (batch,)), p)
    acc = acc - (b_enc << p.beta)
    v = ring.to_signed(ring.truncate(acc, p, shift=p.beta), p)
    return np.where(v > 0, 1, -1)


# ----- reference architectures -----


def mnist_like_net(rng: np.random.Generator) -> NetSpec:
    """Conv 5x5/stride 2/5 maps (28x28 -> 14x14) -> ReLU -> FC 980x100 ->
    ReLU -> FC 100x10 -> argmax, with random scaled weights."""

    def w(*shape):
        fan = int(np.prod(shape[1:]))
        return rng.uniform(-1, 1, size=shape) / np.sqrt(fan)

    return NetSpec(
        (1, 28, 28),
        [
            Conv(5, 5, 2, (1, 2), w(5, 1, 5, 5)),
            Act(),
            FC(980, 100, w(100, 980)),
            Act(),
            FC(100, 10, w(10, 100)),
            ArgMax(),
        ],
    )


def cifar10_like_net(rng: np.random.Generator | None = None) -> NetSpec:
    """The deeper 7-conv / 2-meanpool / 1-FC architecture shape; weights
    filled only when an rng is supplied (planning needs shapes alone)."""

    def w(*shape):
        if rng is None:
            return None
        fan = int(np.prod(shape[1:]))
        return rng.uniform(-1, 1, size=shape) / np.sqrt(fan)

    layers = [
        Conv(64, 3, 1, (1, 1), w(64, 3, 3, 3)), Act(),
        Conv(64, 3, 1, (1, 1), w(64, 64, 3, 3)), Act(),
        MeanPool(2),
        Conv(64, 3, 1, (1, 1), w(64, 64, 3, 3)), Act(),
        Conv(64, 3, 1, (1, 1), w(64, 64, 3, 3)), Act(),
        MeanPool(2),
        Conv(64, 3, 1, (1, 1), w(64, 64, 3, 3)), Act(),
        Conv(64, 1, 1, (0, 0), w(64, 64, 1, 1)), Act(),
        Conv(16, 1, 1, (0, 0), w(16, 64, 1, 1)), Act(),
        FC(1024, 10, w(10, 1024)),
        ArgMax(),
    ]
    return NetSpec((3, 32, 32), layers)


# ----- weight files -----

_NET_MAGIC = b"H2PCNET1"
_LAYER_CODES = {Conv: 1, FC: 2, Act: 3, MeanPool: 4, MaxPool: 5, ArgMax: 6}


def _write_array(out, arr):
    a = np.ascontiguousarray(arr, dtype="<f8")
    out += struct.pack("<B", a.ndim) + struct.pack(f"<{a.ndim}I", *a.shape)
    out += a.tobytes()


def _read_array(buf, pos):
    (ndim,) = struct.unpack_from("<B", buf, pos)
    pos += 1
    shape = struct.unpack_from(f"<{ndim}I", buf, pos)
    pos += 4 * ndim
    n = math.prod(shape)
    if pos + 8 * n > len(buf):
        raise MlError("truncated weight file")
    arr = np.frombuffer(buf, dtype="<f8", count=n, offset=pos).reshape(shape)
    return arr.copy(), pos + 8 * n


def save_net(path: str, net: NetSpec, p: RingParams):
    out = bytearray(_NET_MAGIC)
    out += struct.pack("<3B", p.l, p.alpha, p.beta)
    out += struct.pack("<3I", *net.input_shape)
    out += struct.pack("<I", len(net.layers))
    for layer in net.layers:
        out += struct.pack("<B", _LAYER_CODES[type(layer)])
        if isinstance(layer, Conv):
            out += struct.pack("<5I", layer.maps, layer.kernel, layer.stride,
                               layer.pad[0], layer.pad[1])
            _write_array(out, layer.weights)
        elif isinstance(layer, FC):
            out += struct.pack("<2I", layer.din, layer.dout)
            _write_array(out, layer.weights)
        elif isinstance(layer, (MeanPool, MaxPool)):
            out += struct.pack("<I", layer.window)
    with open(path, "wb") as f:
        f.write(bytes(out))


def load_net(path: str) -> tuple[NetSpec, RingParams]:
    """Reads a weight file. A malformed or truncated file, or weights
    whose shape disagrees with their layer, raise MlError; quantisation
    errors surface as OverflowError."""
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:8] != _NET_MAGIC:
        raise MlError("not a network weight file")
    try:
        net, p = _parse_net(buf)
    except struct.error:
        raise MlError("truncated weight file") from None
    for layer, in_shape, _ in _walk(net, p):
        if isinstance(layer, Conv):
            want = (layer.maps, in_shape[0], layer.kernel, layer.kernel)
        elif isinstance(layer, FC):
            want = (layer.dout, layer.din)
        else:
            continue
        if layer.weights.shape != want:
            raise MlError(f"{type(layer).__name__} weights have shape "
                          f"{layer.weights.shape}, the layer needs {want}")
    return net, p


def _file_ring(buf: bytes) -> RingParams:
    """The ring a weight file names in bytes 8-10."""
    l, alpha, beta = struct.unpack_from("<3B", buf, 8)
    try:
        return RingParams(l, alpha, beta)
    except ValueError as e:
        raise MlError(f"bad ring in file header: {e}") from None


def _parse_net(buf: bytes) -> tuple[NetSpec, RingParams]:
    p = _file_ring(buf)
    shape = struct.unpack_from("<3I", buf, 11)
    (nlayers,) = struct.unpack_from("<I", buf, 23)
    pos = 27
    layers = []
    for _ in range(nlayers):
        (code,) = struct.unpack_from("<B", buf, pos)
        pos += 1
        if code == 1:
            maps, k, s, p0, p1 = struct.unpack_from("<5I", buf, pos)
            pos += 20
            wts, pos = _read_array(buf, pos)
            ring.encode(wts, p)  # validates range
            layers.append(Conv(maps, k, s, (p0, p1), wts))
        elif code == 2:
            din, dout = struct.unpack_from("<2I", buf, pos)
            pos += 8
            wts, pos = _read_array(buf, pos)
            ring.encode(wts, p)
            layers.append(FC(din, dout, wts))
        elif code == 3:
            layers.append(Act())
        elif code in (4, 5):
            (k,) = struct.unpack_from("<I", buf, pos)
            pos += 4
            layers.append(MeanPool(k) if code == 4 else MaxPool(k))
        elif code == 6:
            layers.append(ArgMax())
        else:
            raise MlError(f"unknown layer code {code}")
    if pos != len(buf):
        raise MlError("trailing bytes in weight file")
    return NetSpec(tuple(shape), layers), p

"""Private SVM classification and neural-network inference.

The server (role 0) holds the model in the clear; the client (role 1)
holds the query. Linear layers run on additive shares: a convolution
(via im2col) or a fully connected layer (one window over the whole input)
is one block of equal-length cleartext-operand dot products, i.e. one
vdp call, and mean pooling is local. Non-linear layers (ReLU, max
pooling) run as Boolean circuits in GMW ("lan" profile) or garbled
circuits ("wan" profile); the final argmax or sign always runs garbled,
decoding only to the client.

Fixed-point scale bookkeeping: every linear layer over beta-scaled
operands leaves the output scaled by an extra 2^beta (and mean-pooling by
its window area); that pending shift is discharged for free as rewiring
inside the next garbled stage. The plaintext oracle below replays the
identical schedule, so secure and plain results agree bit-for-bit.
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
    kind: str = "relu"


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


# ----- shape / schedule walking -----


def _conv_out(h, k, stride, pad):
    return (h + pad[0] + pad[1] - k) // stride + 1


def _walk(net: NetSpec):
    """Yields (layer, in_shape, out_shape) with dimension checking."""
    shape = net.input_shape
    for i, layer in enumerate(net.layers):
        if isinstance(layer, (Conv, MaxPool, MeanPool)) and len(shape) != 3:
            raise MlError(f"layer {i} ({type(layer).__name__}) needs a (channels, "
                          f"height, width) input, got shape {shape}")
        if isinstance(layer, Conv):
            ch, h, w = shape
            oh = _conv_out(h, layer.kernel, layer.stride, layer.pad)
            ow = _conv_out(w, layer.kernel, layer.stride, layer.pad)
            if oh < 1 or ow < 1:
                raise MlError("convolution output would be empty")
            out = (layer.maps, oh, ow)
        elif isinstance(layer, FC):
            n = int(np.prod(shape))
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
        yield layer, shape, out
        shape = out


def _schedule(net: NetSpec, p: RingParams):
    """Resolved protocol schedule: [(layer, in_shape, out_shape, shift)].

    shift is the scale debt discharged at that layer's Boolean stage
    (Act / MaxPool / ArgMax); linear layers accumulate it instead.
    """
    out = []
    debt = 0
    for layer, in_shape, out_shape in _walk(net):
        if isinstance(layer, (Conv, FC)):
            step_debt, debt = debt, p.beta + debt
            out.append((layer, in_shape, out_shape, step_debt))
        elif isinstance(layer, MeanPool):
            area = layer.window * layer.window
            if area & (area - 1):
                raise MlError("mean-pool area must be a power of two")
            out.append((layer, in_shape, out_shape, 0))
            debt += int(np.log2(area))
        elif isinstance(layer, (Act, MaxPool, ArgMax)):
            out.append((layer, in_shape, out_shape, debt))
            debt = 0
    return out


def _conv_indices(in_shape, k, stride, pad):
    """im2col gather indices into the zero-padded flat activation."""
    ch, h, w = in_shape
    hh, ww = h + pad[0] + pad[1], w + pad[0] + pad[1]
    oh = _conv_out(h, k, stride, pad)
    ow = _conv_out(w, k, stride, pad)
    ci, ki, kj = np.meshgrid(np.arange(ch), np.arange(k), np.arange(k), indexing="ij")
    base = (ci * hh * ww + ki * ww + kj).reshape(-1)  # (ch*k*k,)
    oi, oj = np.meshgrid(np.arange(oh), np.arange(ow), indexing="ij")
    start = (oi * stride * ww + oj * stride).reshape(-1)  # (oh*ow,)
    return start[:, None] + base[None, :]


def _windows(layer, in_shape, vals: np.ndarray) -> np.ndarray:
    """(batch, npos, klen) inputs of a Conv or FC layer's dot products;
    FC is one window over the whole input."""
    if isinstance(layer, FC):
        return vals.reshape(len(vals), 1, layer.din)
    idx = _conv_indices(in_shape, layer.kernel, layer.stride, layer.pad)
    return _pad_shares(vals, in_shape, layer.pad)[:, idx]


def _pool_indices(in_shape, k):
    ch, h, w = in_shape
    oh, ow = h // k, w // k
    ci, oi, oj = np.meshgrid(np.arange(ch), np.arange(oh), np.arange(ow),
                             indexing="ij")
    start = (ci * h * w + oi * k * w + oj * k).reshape(-1)
    ki, kj = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    within = (ki * w + kj).reshape(-1)
    return start[:, None] + within[None, :]  # (ch*oh*ow, k*k)


def _pad_shares(vals: np.ndarray, in_shape, pad) -> np.ndarray:
    """(batch, ch*h*w) -> flat padded copy; padding is public zero."""
    ch, h, w = in_shape
    b = vals.reshape(-1, ch, h, w)
    out = np.zeros((b.shape[0], ch, h + sum(pad), w + sum(pad)), dtype=np.uint64)
    out[:, :, pad[0] : pad[0] + h, pad[0] : pad[0] + w] = b
    return out.reshape(b.shape[0], -1)


def _stage_groups(layer, in_shape, batch: int) -> np.ndarray:
    """(instances, values) indices into the batch's flat activations: one
    value per ReLU instance, one pool window per MaxPool instance."""
    n = int(np.prod(in_shape))
    if isinstance(layer, Act):
        return np.arange(batch * n)[:, None]
    idx = _pool_indices(in_shape, layer.window)
    return (idx[None] + (np.arange(batch) * n)[:, None, None]).reshape(-1, idx.shape[1])


def _stage_circuits(layer, nvals: int, shift: int, profile: str, l: int):
    """(garbled stage, GMW body or None) of an Act (relu) or MaxPool stage.

    wan garbles the whole stage; lan garbles only the identity stage and
    runs relu or max in GMW on its output bits.
    """
    kind = "relu" if isinstance(layer, Act) else "max"
    if profile == WAN:
        return stage_circuit(kind, l, shift, nvals), None
    body = cc.build_relu(l) if kind == "relu" else cc.build_max_tree(nvals, l, cc.DEPTH)
    return stage_circuit("identity", l, shift, nvals), body


# ----- manifest planning -----


def plan_nn_manifest(net: NetSpec, p: RingParams, batch: int, profile: str,
                     session_id: bytes) -> ResourceManifest:
    """Exact resource counts for one nn_infer call; consumed to zero."""
    blocks = []
    num_ot = 0
    num_bmt = 0
    for layer, in_shape, out_shape, shift in _schedule(net, p):
        nout = int(np.prod(out_shape))
        ninst, nvals = batch * nout, int(np.prod(in_shape)) // nout
        if isinstance(layer, (Conv, FC)):
            klen = layer.din if isinstance(layer, FC) else layer.kernel ** 2 * in_shape[0]
            blocks.append((ninst, klen))
        elif isinstance(layer, (Act, MaxPool)):
            garbled, body = _stage_circuits(layer, nvals, shift, profile, p.l)
            # evaluator share bits into the garbled stage, then b2a per output bit
            num_ot += ninst * (len(garbled.inputs1) + len((body or garbled).outputs))
            num_bmt += ninst * body.num_and if body else 0
        elif isinstance(layer, ArgMax):
            num_ot += ninst * len(stage_circuit("argmax", p.l, shift, nvals).inputs1)
    return ResourceManifest(session_id, p, num_bmt=num_bmt, num_ot=num_ot,
                            vdp_blocks=tuple(blocks))


def plan_svm_manifest(d: int, batch: int, p: RingParams,
                      session_id: bytes) -> ResourceManifest:
    num_ot = batch * len(stage_circuit("sign", p.l, p.beta).inputs1)
    return ResourceManifest(session_id, p, num_ot=num_ot, vdp_blocks=((batch, d),))


# ----- secure execution -----


def _boolean_stage(se: PartySession, x: ArithShare, layer, shift: int,
                   profile: str, group_idx: np.ndarray):
    """a2y (+rewired shift) -> Act or MaxPool stage -> additive shares.

    Each row of group_idx gathers one instance's values (one for relu, a
    pool window for max); the output holds one value per instance.
    """
    p = se.ring
    ninst, nvals = group_idx.shape
    share_bits = ring.bits_of(x.value[group_idx.reshape(-1)], p).reshape(ninst, nvals * p.l)
    garbled, body = _stage_circuits(layer, nvals, shift, profile, p.l)
    out_bits = convert.y2b(se.gc, se.gc.run_shares(garbled, share_bits, ninst, "none"))
    if body is not None:
        empty = BoolShare(np.zeros((ninst, 0), np.uint8), se.role)
        out_bits = se.gmw.evaluate(body.levelized, out_bits, empty)
    return convert.b2a(se.role, p, se.ot, out_bits, se.rng)


def _reveal_stage(se: PartySession, x: ArithShare, kind: str, nvals: int,
                  shift: int):
    """Final garbled stage decoded to the client only."""
    p = se.ring
    ninst = len(x) // nvals
    share_bits = ring.bits_of(x.value, p).reshape(ninst, nvals * p.l)
    return se.gc.run_shares(stage_circuit(kind, p.l, shift, nvals), share_bits,
                            ninst, "evaluator")


def nn_infer(se: PartySession, net: NetSpec, images: np.ndarray | None,
             batch: int, profile: str = LAN) -> np.ndarray | None:
    """Run inference; returns class indices at role 1, None at role 0.

    net carries weights at role 0 and only the architecture at role 1;
    images is (batch, ch, h, w) real-valued at role 1. batch is public
    protocol structure and must match the planned manifest.
    """
    p = se.ring
    sched = _schedule(net, p)
    enc = None
    if se.role == 1:
        if images.shape[0] != batch:
            raise MlError("image count does not match the planned batch")
        enc = ring.encode(images.reshape(batch, -1), p).reshape(-1)
    count = batch * int(np.prod(net.input_shape))
    x = se.ass.share_input(enc, count, owner=1, rng=se.rng)
    result = None
    for layer, in_shape, out_shape, shift in sched:
        if isinstance(layer, (Conv, FC)):
            windows = _windows(layer, in_shape, x.value.reshape(batch, -1))
            shape = (batch, out_shape[0]) + windows.shape[1:]  # (batch, maps, npos, klen)
            y = np.broadcast_to(windows[:, None], shape).reshape(-1)
            kern = None
            if se.role == 0:
                kern = ring.encode(layer.weights.reshape(out_shape[0], -1), p)
                kern = np.broadcast_to(kern[None, :, None], shape).reshape(-1)
            x = se.ass.vdp(kern, ArithShare(y, se.role), shape[3])
        elif isinstance(layer, MeanPool):
            idx = _pool_indices(in_shape, layer.window)
            per_im = x.value.reshape(batch, -1)
            gathered = per_im[:, idx]  # (batch, groups, k*k)
            summed = gathered.sum(axis=2, dtype=np.uint64) & np.uint64(p.mask)
            x = ArithShare(summed.reshape(-1), se.role)
        elif isinstance(layer, (Act, MaxPool)):
            groups = _stage_groups(layer, in_shape, batch)
            x = _boolean_stage(se, x, layer, shift, profile, groups)
        elif isinstance(layer, ArgMax):
            nvals = int(np.prod(in_shape))
            bits = _reveal_stage(se, x, "argmax", nvals, shift)
            if se.role == 1:
                weights = np.uint64(1) << np.arange(bits.shape[0], dtype=np.uint64)
                result = (bits.astype(np.uint64).T * weights).sum(axis=1)
    return result


def svm_classify(se: PartySession, model: SvmModel | None,
                 queries: np.ndarray | None, d: int, batch: int):
    """sign(w.x - b) per query; labels in {-1, +1} revealed at role 1."""
    p = se.ring
    enc = None
    if se.role == 1:
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        enc = ring.encode(q, p).reshape(-1)
    x = se.ass.share_input(enc, batch * d, owner=1, rng=se.rng)
    if se.role == 0:
        w = np.asarray(model.w, dtype=np.float64)
        w = np.broadcast_to(w, (batch, d)) if w.ndim == 1 else w
        z = se.ass.vdp(ring.encode(w, p).reshape(-1), ArithShare(x.value, 0), d)
        # subtract the private intercept at scale 2^(2*beta)
        b_enc = ring.encode(np.broadcast_to(np.asarray(model.b), (batch,)), p)
        z.value = (z.value - (b_enc << np.uint64(p.beta))) & np.uint64(p.mask)
    else:
        z = se.ass.vdp(None, ArithShare(x.value, 1), d)
    bits = _reveal_stage(se, z, "sign", 1, p.beta)
    if se.role == 1:
        return np.where(bits[0].astype(bool), 1, -1)
    return None


# ----- plaintext fixed-point oracle (same quantisation schedule) -----


def nn_oracle(net: NetSpec, images: np.ndarray, p: RingParams) -> np.ndarray:
    batch = images.shape[0]
    x = ring.encode(images.reshape(batch, -1), p)
    mask = np.uint64(p.mask)
    for layer, in_shape, out_shape, shift in _schedule(net, p):
        if isinstance(layer, (Conv, FC)):
            windows = _windows(layer, in_shape, x)  # (batch, npos, klen)
            kern = ring.encode(layer.weights.reshape(out_shape[0], -1), p)
            prod = windows[:, None] * kern[None, :, None, :]
            # (batch, maps, npos), map-major like the secure path
            x = prod.sum(axis=3, dtype=np.uint64) & mask
        elif isinstance(layer, MeanPool):
            idx = _pool_indices(in_shape, layer.window)
            x = x.reshape(batch, -1)[:, idx].sum(axis=2, dtype=np.uint64) & mask
        elif isinstance(layer, Act):
            v = ring.truncate(x, p, shift=shift)
            s = ring.to_signed(v, p)
            x = np.where(s > 0, v, 0)
        elif isinstance(layer, MaxPool):
            idx = _pool_indices(in_shape, layer.window)
            v = ring.truncate(x, p, shift=shift).reshape(batch, -1)
            s = ring.to_signed(v[:, idx], p)  # (batch, groups, k*k)
            x = ring.from_signed(s.max(axis=2), p)
        elif isinstance(layer, ArgMax):
            v = ring.truncate(x, p, shift=shift)
            return np.argmax(ring.to_signed(v, p), axis=1).astype(np.uint64)
        x = x.reshape(batch, -1)
    return x


def svm_oracle(model: SvmModel, queries: np.ndarray, p: RingParams) -> np.ndarray:
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    batch, d = q.shape
    w = np.asarray(model.w, dtype=np.float64)
    w = np.broadcast_to(w, (batch, d)) if w.ndim == 1 else w
    mask = np.uint64(p.mask)
    acc = ((ring.encode(w, p) * ring.encode(q, p)) & mask).sum(
        axis=1, dtype=np.uint64
    ) & mask
    b_enc = ring.encode(np.broadcast_to(np.asarray(model.b), (batch,)), p)
    acc = (acc - (b_enc << np.uint64(p.beta))) & mask
    v = ring.to_signed(ring.truncate(acc, p, shift=p.beta), p)
    return np.where(v > 0, 1, -1)


# ----- reference architectures -----


def mnist_like_net(rng: np.random.Generator, p: RingParams) -> NetSpec:
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
_SVM_MAGIC = b"H2PCSVM1"
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
    for layer, in_shape, _ in _walk(net):
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
    """The ring a weight or model file names in bytes 8-10."""
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


def save_svm(path: str, model: SvmModel, p: RingParams):
    out = bytearray(_SVM_MAGIC)
    out += struct.pack("<3B", p.l, p.alpha, p.beta)
    w = np.atleast_1d(np.asarray(model.w, dtype="<f8"))
    _write_array(out, w)
    out += struct.pack("<d", float(np.asarray(model.b).reshape(-1)[0]))
    with open(path, "wb") as f:
        f.write(bytes(out))


def load_svm(path: str) -> tuple[SvmModel, RingParams]:
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:8] != _SVM_MAGIC:
        raise MlError("not an SVM model file")
    try:
        p = _file_ring(buf)
        w, pos = _read_array(buf, 11)
        (b,) = struct.unpack_from("<d", buf, pos)
    except struct.error:
        raise MlError("truncated SVM model file") from None
    if pos + 8 != len(buf):
        raise MlError("trailing bytes in SVM model file")
    ring.encode(w, p)
    ring.encode(np.asarray(b), p)
    return SvmModel(w, b), p

"""Workloads, seeded inputs and the independent correctness references.

Nothing here calls the program's own oracles (`ml.nn_oracle`,
`ml.svm_oracle`) or its fixed-point codec (`ring`): the integer reference
below re-derives encode, ring products, arithmetic shift, ReLU, argmax and
sign from the paper's fixed-point rules, and the float64 reference bounds
how far a fixed-point decision may drift from the real-valued one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Ring layout used by every workload: l = alpha + 2*beta + 1.
L, ALPHA, BETA = 32, 7, 12
MASK = (1 << L) - 1
_U64 = np.uint64

# The MNIST-like CNN: conv 5x5 / stride 2 / pad (1, 2), 5 maps -> ReLU ->
# FC 980x100 -> ReLU -> FC 100x10 -> argmax.
IMAGE_SHAPE = (1, 28, 28)
CONV_MAPS, CONV_K, CONV_STRIDE, CONV_PAD = 5, 5, 2, (1, 2)
FC1 = (980, 100)
FC2 = (100, 10)
NN_LAYERS = ("conv1", "relu1", "fc1", "relu2", "fc2", "argmax")

# Seed streams: np.random.default_rng([seed, stream, index]).
_MODEL, _QUERY, _KEY, _PARTY = 0, 1, 2, 3


@dataclass(frozen=True)
class Workload:
    name: str
    program: str  # "nn" or "svm"
    batch: int  # queries (images) per session
    profile: str | None  # nn circuit profile
    psk: bool  # PSK-AEAD on the dealer link and the peer link
    d: int = 0  # SVM dimension


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mnist-lan-b20", "nn", 20, "lan", False),
        Workload("mnist-wan-b1", "nn", 1, "wan", False),
        Workload("svm-psk-b1", "svm", 1, None, True, d=100),
    )
}


@dataclass
class NnWeights:
    conv: np.ndarray  # (maps, 1, k, k)
    fc1: np.ndarray  # (100, 980)
    fc2: np.ndarray  # (10, 100)


@dataclass
class SvmWeights:
    w: np.ndarray  # (d,)
    b: float


def make_model(wl: Workload, seed: int):
    """Real-valued model weights; the same seed gives the same model."""
    rng = np.random.default_rng([seed, _MODEL])
    if wl.program == "svm":
        return SvmWeights(rng.uniform(-1, 1, size=wl.d), float(rng.uniform(-1, 1)))

    def w(*shape):
        return rng.uniform(-1, 1, size=shape) / np.sqrt(np.prod(shape[1:]))

    return NnWeights(w(CONV_MAPS, 1, CONV_K, CONV_K), w(FC1[1], FC1[0]),
                     w(FC2[1], FC2[0]))


def make_queries(wl: Workload, seed: int, index: int) -> np.ndarray:
    """Session `index`'s queries: pixel intensities in [0, 1) for the CNN,
    feature vectors in [-1, 1)^d for the SVM."""
    rng = np.random.default_rng([seed, _QUERY, index])
    if wl.program == "svm":
        return rng.uniform(-1, 1, size=(wl.batch, wl.d))
    return rng.uniform(0, 1, size=(wl.batch, *IMAGE_SHAPE))


def psk_key(wl: Workload, seed: int) -> bytes | None:
    if not wl.psk:
        return None
    return np.random.default_rng([seed, _KEY]).bytes(16)


def party_rng(seed: int, role: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, _PARTY, role, index])


# ----- integer fixed-point reference -----


def fx_encode(a) -> np.ndarray:
    """Real -> residue mod 2^L at scale 2^BETA, rounding half away from 0."""
    a = np.asarray(a, dtype=np.float64)
    if np.any(np.abs(a) >= 2.0**ALPHA):
        raise OverflowError("value outside the fixed-point integer range")
    q = np.trunc(a * 2.0**BETA + np.copysign(0.5, a)).astype(np.int64)
    return q.astype(_U64) & _U64(MASK)


def fx_signed(v) -> np.ndarray:
    """Two's-complement reading of L-bit residues."""
    top = 1 << (L - 1)
    return ((np.asarray(v, dtype=_U64) & _U64(MASK)).astype(np.int64) ^ top) - top


def fx_shift(v, s: int) -> np.ndarray:
    """Arithmetic right shift of the L-bit value (rounds toward -inf)."""
    return (fx_signed(v) >> s).astype(_U64) & _U64(MASK)


def fx_relu(v) -> np.ndarray:
    return np.where(fx_signed(v) > 0, v, _U64(0))


def _conv(x, w, stride, pad):
    """Direct convolution by kernel offset; works for uint64 (wrapping
    mod 2^64, hence mod 2^L) and for float64. x: (B, C, H, W)."""
    b, c, h, wd = x.shape
    maps, _, k, _ = w.shape
    xp = np.zeros((b, c, h + sum(pad), wd + sum(pad)), dtype=x.dtype)
    xp[:, :, pad[0] : pad[0] + h, pad[0] : pad[0] + wd] = x
    oh = (h + sum(pad) - k) // stride + 1
    ow = (wd + sum(pad) - k) // stride + 1
    acc = np.zeros((b, maps, oh, ow), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            patch = xp[:, :, i : i + stride * (oh - 1) + 1 : stride,
                       j : j + stride * (ow - 1) + 1 : stride]
            acc += (patch[:, None] * w[None, :, :, i, j, None, None]).sum(axis=2)
    return acc


def _fc(x, w):
    """x: (B, din), w: (dout, din)."""
    return (x[:, None, :] * w[None]).sum(axis=2)


def fx_nn(weights: NnWeights, images: np.ndarray) -> np.ndarray:
    """Class indices of the CNN in L-bit fixed point. Each linear layer
    leaves its output at scale 2^(2*BETA); the next non-linear stage
    shifts it back by BETA."""
    m = _U64(MASK)
    x = fx_encode(images)
    h = _conv(x, fx_encode(weights.conv), CONV_STRIDE, CONV_PAD) & m
    h = fx_relu(fx_shift(h, BETA)).reshape(len(images), -1)  # map-major
    h = fx_relu(fx_shift(_fc(h, fx_encode(weights.fc1)) & m, BETA))
    logits = fx_signed(fx_shift(_fc(h, fx_encode(weights.fc2)) & m, BETA))
    return np.argmax(logits, axis=1)


def fx_svm(weights: SvmWeights, queries: np.ndarray) -> np.ndarray:
    """Labels sign(w.x - b) in {-1, +1}; the intercept enters at scale
    2^(2*BETA) and zero maps to -1."""
    m = _U64(MASK)
    acc = (fx_encode(queries) * fx_encode(weights.w)[None]).sum(axis=1) & m
    acc = (acc - (fx_encode(weights.b) << _U64(BETA))) & m
    return np.where(fx_signed(fx_shift(acc, BETA)) > 0, 1, -1)


# ----- float64 reference with a fixed-point error interval -----
#
# For every activation the float reference carries an interval [lo, hi]
# that must contain (fixed-point value - real value), assuming the ring
# never wraps. Encoding errors of inputs and weights are known exactly and
# shift the interval; each BETA shift floors, which widens it by one ulp
# downward; ReLU is monotone. A wrap-around (overflow) breaks the bound,
# which is what the property check is there to catch.

_ULP = 2.0**-BETA
_SLACK = 1e-9  # float64 rounding in the reference itself


def _decoded(a):
    return fx_signed(fx_encode(a)).astype(np.float64) * _ULP


def _linear(apply, w, x, lo, hi):
    """Real output and deviation interval of a linear layer plus its shift."""
    wq = _decoded(w)
    pos, neg = np.maximum(wq, 0), np.minimum(wq, 0)
    center = apply(x, wq - w)
    return (apply(x, w), center + apply(lo, pos) + apply(hi, neg) - _ULP - _SLACK,
            center + apply(hi, pos) + apply(lo, neg) + _SLACK)


def _relu(y, lo, hi):
    r = np.maximum(y, 0)
    return r, np.maximum(y + lo, 0) - r, np.maximum(y + hi, 0) - r


def float_nn(weights: NnWeights, images: np.ndarray):
    """Real-valued logits (B, 10) and the interval around each that holds
    the decoded fixed-point logit."""
    conv = lambda v, w: _conv(v, w, CONV_STRIDE, CONV_PAD)
    d = _decoded(images) - images
    x, lo, hi = _relu(*_linear(conv, weights.conv, images, d, d))
    x, lo, hi = (a.reshape(len(images), -1) for a in (x, lo, hi))
    x, lo, hi = _relu(*_linear(_fc, weights.fc1, x, lo, hi))
    return _linear(_fc, weights.fc2, x, lo, hi)


def float_svm(weights: SvmWeights, queries: np.ndarray):
    d = _decoded(queries) - queries
    z, lo, hi = _linear(_fc, weights.w[None], queries, d, d)
    db = float(_decoded(weights.b)) - weights.b  # intercept: exact shift
    return z[:, 0] - weights.b, lo[:, 0] - db, hi[:, 0] - db


def margin_agrees(logits, lo, hi, classes) -> tuple[np.ndarray, np.ndarray]:
    """(decided, agrees): where the float winner's lowest possible
    fixed-point logit beats every other class's highest, the fixed-point
    class must equal it."""
    best = np.argmax(logits, axis=1)
    rows = np.arange(len(logits))
    gap = (logits[rows, best] + lo[rows, best])[:, None] - (logits + hi)
    gap[rows, best] = np.inf
    decided = (gap > 0).all(axis=1)
    return decided, ~decided | (np.asarray(classes) == best)


def margin_agrees_svm(z, lo, hi, labels) -> tuple[np.ndarray, np.ndarray]:
    decided = (z + lo > 0) | (z + hi < 0)
    return decided, ~decided | (np.asarray(labels) == np.where(z > 0, 1, -1))


# ----- byte properties of the method -----


def expected_online_bytes(obs: dict, l: int = L) -> dict:
    """Closed-form payload bytes per message type from the circuits and
    shapes the client saw run in one session.

    GC_TABLES   32 B per AND gate per instance (half-gates: two 128-bit
                ciphertexts), plus a 2-row translation table per register
                and cycle after the first
    OT_PAIRS    2 x message bytes x transfers
    DA_MASKED   l/8 bytes per masked element, each way
    GMW_DE      2 bits per AND lane, packed per AND level, each way
    """
    gc = sum(32 * (na * ni * cy + nr * ni * (cy - 1)) for na, ni, cy, nr in obs["gc"])
    ot = sum(2 * nbytes * n for n, nbytes in obs["ot"])
    da = sum(obs["vdp"]) * (l // 8)
    gmw = sum(cy * sum((2 * g * ni + 7) // 8 for g in levels if g)
              for levels, ni, cy in obs["gmw"])
    return {"GC_TABLES": gc, "OT_PAIRS": ot, "DA_MASKED": da, "GMW_DE": gmw}

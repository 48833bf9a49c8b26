"""Two-party GMW evaluation on XOR-shared bits.

XOR and NOT gates are local (NOT flips role 0's share only). They run
as the circuit's layers of independent gates (circuits.run_spans), one
XOR over the wire axis per layer; NOT reads a row holding 1 at role 0 and
0 at role 1. Each AND level costs one exchange, one flight per party
(transport.Channel.flights): for every AND lane (gate x SIMD instance)
the parties mask their operand shares with a Boolean triple, exchange
the packed (d, e) bits, and combine

    z_i = (b_i & d) ^ (a_i & e) ^ c_i  [^ (d & e) at role 0]

Triples are drawn from a single-use supply (correlated.Supply) in
(level, gate, instance) order so both parties stay aligned without
negotiation; every level frame carries a round index and mismatches abort
with a desync error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transport
from .circuits import CONST1, LevelizedCircuit, Span, run_spans
from .correlated import PartyMaterial, Supply
from .transport import Channel, ProtocolError


class GmwError(RuntimeError):
    pass


@dataclass
class BoolShare:
    """XOR shares of a bit matrix, shape (instances, width)."""

    bits: np.ndarray
    role: int

    def __post_init__(self):
        self.bits = np.atleast_2d(np.asarray(self.bits, dtype=np.uint8))

    @property
    def width(self) -> int:
        return self.bits.shape[1]


def share_bits(bits, rng: np.random.Generator) -> tuple[BoolShare, BoolShare]:
    bits = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
    r = rng.integers(0, 2, size=bits.shape, dtype=np.uint8)
    return BoolShare(r, 0), BoolShare(bits ^ r, 1)


def reconstruct_bits(s0: BoolShare, s1: BoolShare) -> np.ndarray:
    if s0.role == s1.role:
        raise GmwError("reconstruct needs one share from each role")
    return s0.bits ^ s1.bits


class GmwEngine:
    def __init__(self, role: int, channel: Channel, material: PartyMaterial):
        self.role = role
        self.channel = channel
        self.bmt = Supply("bmt", material.bmt_a, material.bmt_b, material.bmt_c)
        self._round_index = 0  # AND levels exchanged; each GMW_DE frame's index

    def evaluate(self, lc: LevelizedCircuit, in0: BoolShare, in1: BoolShare,
                 cycles: int = 1) -> BoolShare:
        """Evaluate shares of the circuit in one exchange per AND level.

        cycles must be 1: every circuit is combinational.
        """
        if cycles != 1:
            raise GmwError(f"a circuit runs for one cycle, not {cycles}")
        c = lc.circuit
        ninst = max(in0.bits.shape[0], in1.bits.shape[0])
        if in0.width != len(c.inputs0) or in1.width != len(c.inputs1):
            raise GmwError("input width mismatch")
        vals = np.zeros((c.nwires + 1, ninst), dtype=np.uint8)
        if self.role == 0:
            vals[CONST1] = 1
            vals[c.nwires] = 1  # NOT mask
        if c.inputs0:
            vals[list(c.inputs0)] = in0.bits.T
        if c.inputs1:
            vals[list(c.inputs1)] = in1.bits.T
        run_spans(lc, vals, self._and_level)
        return BoolShare(vals[list(c.outputs)].T, self.role)

    def _and_level(self, span: Span, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """One AND level over operand shares x, y of shape (gates, ninst)."""
        lanes = x.size
        a, b, cc = self.bmt.take(lanes)
        a = a.reshape(x.shape)
        b = b.reshape(x.shape)
        cc = cc.reshape(x.shape)
        d_share = x ^ a
        e_share = y ^ b
        packed = np.packbits(
            np.concatenate([d_share.ravel(), e_share.ravel()]), bitorder="little"
        ).tobytes()
        meta = self._round_index.to_bytes(4, "little")
        reply = self.channel.exchange(transport.GMW_DE, meta + packed)
        if reply[:4] != meta:
            raise ProtocolError(
                f"GMW level desync: peer at round {int.from_bytes(reply[:4], 'little')}, "
                f"local round {self._round_index}"
            )
        self._round_index += 1
        other = np.unpackbits(np.frombuffer(reply, np.uint8, offset=4), count=2 * lanes,
                              bitorder="little")
        d = d_share ^ other[:lanes].reshape(x.shape)
        e = e_share ^ other[lanes:].reshape(x.shape)
        z = (b & d) ^ (a & e) ^ cc
        if self.role == 0:
            z ^= d & e
        return z

"""Two-party GMW evaluation on XOR-shared bits.

XOR and NOT gates are local (NOT flips role 0's share only). They run
as the circuit's layers of independent gates (circuits.run_spans), one
XOR over the wire axis per layer; NOT reads a row holding 1 at role 0 and
0 at role 1. Each AND level costs one communication round: for every AND
lane (gate x SIMD instance) the parties mask their operand shares with a
Boolean triple, exchange the packed (d, e) bits, and combine

    z_i = (b_i & d) ^ (a_i & e) ^ c_i  [^ (d & e) at role 0]

Triples are consumed in (level, gate, instance, cycle) order so both
parties stay aligned without negotiation; every level frame carries a
round index and mismatches abort with a desync error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transport
from .circuits import CONST1, LevelizedCircuit, Span, run_spans
from .correlated import PartyMaterial
from .transport import Channel, ProtocolError


class GmwError(RuntimeError):
    pass


class TripleExhausted(GmwError):
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
    def __init__(self, role: int, channel: Channel,
                 material: PartyMaterial | None = None):
        self.role = role
        self.channel = channel
        self.material = material
        self._cursor = 0
        self._round_index = 0  # AND levels exchanged; each GMW_DE frame's index

    @property
    def rounds(self) -> int:
        """Communication rounds so far: one per AND level and cycle."""
        return self._round_index

    def bmt_left(self) -> int:
        return 0 if self.material is None else len(self.material.bmt_a) - self._cursor

    def _take(self, n: int):
        m = self.material
        if m is None or self._cursor + n > len(m.bmt_a):
            raise TripleExhausted(f"need {n} Boolean triples, {self.bmt_left()} left")
        s = slice(self._cursor, self._cursor + n)
        self._cursor += n
        return m.bmt_a[s], m.bmt_b[s], m.bmt_c[s]

    def share_input(self, bits, owner: int, rng: np.random.Generator) -> BoolShare:
        """Owner samples a random share and ships the complement."""
        if self.role == owner:
            mine, theirs = share_bits(bits, rng)
            if owner == 1:
                mine, theirs = theirs, mine
            ninst, width = theirs.bits.shape
            payload = (
                ninst.to_bytes(4, "little")
                + width.to_bytes(4, "little")
                + np.packbits(theirs.bits, bitorder="little").tobytes()
            )
            self.channel.send(transport.APP_SHARE, payload)
            return BoolShare(mine.bits, self.role)
        raw = self.channel.recv_expect(transport.APP_SHARE)
        ninst = int.from_bytes(raw[:4], "little")
        width = int.from_bytes(raw[4:8], "little")
        flat = np.unpackbits(np.frombuffer(raw[8:], np.uint8), bitorder="little")
        return BoolShare(flat[: ninst * width].reshape(ninst, width), self.role)

    def evaluate(self, lc: LevelizedCircuit, in0: BoolShare, in1: BoolShare,
                 cycles: int = 1) -> BoolShare:
        """Evaluate shares of the circuit; rounds == AND levels x cycles."""
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
        reg_q = [r.q for r in c.registers]
        reg_d = [r.d for r in c.registers]
        if reg_q and self.role == 0:
            vals[reg_q] = np.array([r.init for r in c.registers], np.uint8)[:, None]
        for cyc in range(cycles):
            if cyc and reg_q:
                vals[reg_q] = vals[reg_d]
            run_spans(lc, vals, self._and_level)
        return BoolShare(vals[list(c.outputs)].T, self.role)

    def _and_level(self, span: Span, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """One AND level over operand shares x, y of shape (gates, ninst)."""
        lanes = x.size
        a, b, cc = self._take(lanes)
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
        other = np.unpackbits(np.frombuffer(reply[4:], np.uint8), bitorder="little")
        d = d_share ^ other[:lanes].reshape(x.shape)
        e = e_share ^ other[lanes : 2 * lanes].reshape(x.shape)
        z = (b & d) ^ (a & e) ^ cc
        if self.role == 0:
            z ^= d & e
        return z

    def reveal(self, s: BoolShare, to: str = "both") -> np.ndarray | None:
        payload = np.packbits(s.bits, bitorder="little").tobytes()
        shape = s.bits.shape
        if to == "both":
            other = self.channel.exchange(transport.GMW_REVEAL, payload)
            bits = np.unpackbits(np.frombuffer(other, np.uint8), bitorder="little")
            return s.bits ^ bits[: s.bits.size].reshape(shape)
        target = 0 if to == "role0" else 1
        if self.role == target:
            other = self.channel.recv_expect(transport.GMW_REVEAL)
            bits = np.unpackbits(np.frombuffer(other, np.uint8), bitorder="little")
            return s.bits ^ bits[: s.bits.size].reshape(shape)
        self.channel.send(transport.GMW_REVEAL, payload)
        return None

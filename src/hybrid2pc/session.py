"""One party's bundle of engines over a single channel and material set.

Created either from a dealer bundle, fetched over the wire and opened by
correlated.open_bundle (offline()), or directly from expanded material
(tests). Each engine, and b2a from dabits, draws its dealt items from
single-use supplies (correlated.Supply); leftovers() reads the five.
The party draws nothing of its own: once the material is dealt, the
online phase is a function of it and of the inputs alone. offline()
still accepts an rng and ignores it: the benchmark harness passes one,
and its signature is pinned.
"""

from __future__ import annotations

from . import stp, transport
from .ass import AssEngine
from .correlated import PartyMaterial, ResourceManifest, Supply, open_bundle
from .gc import GcSession
from .gmw import GmwEngine
from .transport import Channel


class PartySession:
    def __init__(self, role: int, manifest: ResourceManifest,
                 material: PartyMaterial, channel: Channel):
        self.role = role
        self.manifest = manifest
        self.ring = manifest.ring
        self.channel = channel
        self.dabits = Supply("dabits", material.dabit_b, material.dabit_a)
        self.ass = AssEngine(role, self.ring, channel, material)
        self.gmw = GmwEngine(role, channel, material)
        self.gc = GcSession(role, channel, material)

    @classmethod
    def offline(cls, role: int, manifest: ResourceManifest, stp_addr,
                channel: Channel, rng=None,
                stp_cipher_key: bytes | None = None) -> "PartySession":
        """Fetch this role's bundle from the dealer, then go online."""
        bundle = stp.request_bundle(stp_addr, manifest, role,
                                    ledger=channel.ledger,
                                    cipher_key=stp_cipher_key)
        material = open_bundle(role, bundle, manifest)
        channel.phase_mark(transport.ONLINE)
        return cls(role, manifest, material, channel)

    def leftovers(self) -> dict:
        """Undealt-but-unconsumed resources; empty when the manifest was
        planned exactly."""
        supplies = (self.ass.amt, self.gmw.bmt, self.dabits, self.gc.labels,
                    self.ass.vdp_masks)
        return {s.name: s.left() for s in supplies if s.left()}

    def assert_exhausted(self):
        left = self.leftovers()
        if left:
            raise AssertionError(f"manifest not fully consumed: {left}")

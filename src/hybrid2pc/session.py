"""One party's bundle of engines over a single channel and material set.

Created either from a dealer bundle, fetched over the wire and opened by
correlated.open_bundle (offline()), or directly from expanded material
(tests). Each engine draws its dealt items from single-use supplies
(correlated.Supply); leftovers() reads the five of them. Every secret
the party draws itself comes from one CTR-DRBG, drbg, keyed from secrets,
or from rng.bytes(32) when a caller passes an rng (a seeded run).
"""

from __future__ import annotations

import secrets

from . import stp, transport
from .ass import AssEngine
from .correlated import PartyMaterial, ResourceManifest, open_bundle
from .drbg import SEED_BYTES, Drbg
from .gc import GcSession
from .gmw import GmwEngine
from .ot import OtReceiver, OtSender
from .transport import Channel


class PartySession:
    def __init__(self, role: int, manifest: ResourceManifest,
                 material: PartyMaterial, channel: Channel, rng=None):
        self.role = role
        self.manifest = manifest
        self.ring = manifest.ring
        self.channel = channel
        seed = secrets.token_bytes(SEED_BYTES) if rng is None else rng.bytes(SEED_BYTES)
        self.drbg = Drbg(seed)
        if role == 0:
            self.ot = OtSender(material.ot_q, channel)
        else:
            self.ot = OtReceiver(material.ot_r, material.ot_qr, channel)
        self.ass = AssEngine(role, self.ring, channel, material)
        self.gmw = GmwEngine(role, channel, material)
        self.gc = GcSession(role, channel, material, self.drbg)

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
        return cls(role, manifest, material, channel, rng)

    def leftovers(self) -> dict:
        """Undealt-but-unconsumed resources; empty when the manifest was
        planned exactly."""
        supplies = (self.ass.amt, self.gmw.bmt, self.ot.masks, self.gc.labels,
                    self.ass.vdp_masks)
        return {s.name: s.left() for s in supplies if s.left()}

    def assert_exhausted(self):
        left = self.leftovers()
        if left:
            raise AssertionError(f"manifest not fully consumed: {left}")

"""Hybrid two-party secure computation with an offline dealer.

Linear algebra runs on additive shares over Z_2^l, non-linear steps run in
GMW or garbled circuits, and all correlated randomness (multiplication
triples, daBits, labels, dot-product shares) is dealt by a semi-honest third
party during an offline phase. Signed fixed-point numbers are supported
throughout via a two's-complement interpretation of the ring.
"""

from .ring import RingParams

__all__ = ["RingParams"]
__version__ = "0.1.0"

"""Per-table Bloom filters.

LevelDB grew optional Bloom filters (``FilterPolicy``) in the same era
as the paper; they cut exactly the GET amplification §3.1 describes —
an eligible file whose filter says "absent" costs no index-block read.
The engine leaves them **off by default** to match the paper's
prototype, and exposes them as an extension (see
``bench_ablation_bloom``) quantifying how much of the amplification
they buy back.

Simulation note: since no value bytes exist, the filter stores the
exact key set and synthesizes *deterministic* false positives at the
theoretical rate for the configured bits/key
(fp ≈ 0.6185^bits_per_key), seeded by (table id, key) so repeated
probes agree.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Set

__all__ = ["BloomFilter", "false_positive_rate"]


def false_positive_rate(bits_per_key: int) -> float:
    """Theoretical optimum-hash Bloom false-positive rate."""
    if bits_per_key <= 0:
        return 1.0
    return 0.6185 ** bits_per_key


class BloomFilter:
    """A simulated Bloom filter over a table's key set."""

    __slots__ = ("_keys", "fp_rate", "_salt", "bits_per_key")

    def __init__(self, keys: Iterable[int], bits_per_key: int, salt: int = 0):
        if bits_per_key <= 0:
            raise ValueError(f"bits_per_key must be positive, got {bits_per_key}")
        self._keys: Set[int] = set(keys)
        self.bits_per_key = bits_per_key
        self.fp_rate = false_positive_rate(bits_per_key)
        self._salt = salt

    def __len__(self) -> int:
        return len(self._keys)

    def may_contain(self, key: int) -> bool:
        """True for every present key; false positives at ``fp_rate``.

        False positives are deterministic per (salt, key) so a repeated
        probe of the same table gives the same answer — as real filter
        bits would.
        """
        if key in self._keys:
            return True
        digest = hashlib.blake2b(
            f"{self._salt}:{key}".encode(), digest_size=8
        ).digest()
        draw = int.from_bytes(digest, "big") / float(1 << 64)
        return draw < self.fp_rate

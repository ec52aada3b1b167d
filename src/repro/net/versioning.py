"""Vector-clock versioning for leaderless replication.

Every value stored under the leaderless mode carries a
:class:`VectorClock` — one counter per coordinating node — so causality
is explicit in every message (a :class:`Version` is immutable and
travels as itself): a replica can tell whether an incoming version
*descends* its own (apply it), is *dominated* by it (ignore, and tell
the sender to repair itself), or is *concurrent* (a genuine conflict:
two coordinators accepted writes on opposite sides of a partition).

Concurrent versions are retained as **siblings** in the
:class:`VersionStore`; nothing is silently discarded.  Reads surface
the conflict count, and resolution to a single answer uses an explicit
last-writer-wins tiebreak over the version's deterministic
``(sim-time, coordinator, seq)`` stamp — a *policy*, applied at the
edges, never inside the merge math.  A later write through any
coordinator merges all known sibling clocks and therefore dominates
(supersedes) the whole conflict set, which is how conflicts drain.

All state is plain sorted tuples and the module is free of wall-clock
or unseeded randomness, so same-seed runs serialize byte-identically —
the repo-wide determinism rule.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "VectorClock",
    "Version",
    "VersionStore",
    "reconcile",
]

#: :meth:`VectorClock.compare` outcomes
BEFORE = -1
EQUAL = 0
AFTER = 1
CONCURRENT = 2


class VectorClock:
    """An immutable mapping node → update counter.

    The partial order: ``a`` descends ``b`` when every counter in ``a``
    is >= the matching counter in ``b`` (absent = 0).  Strictly greater
    somewhere → ``a`` is causally *after* ``b``; each strictly greater
    somewhere → *concurrent*.
    """

    __slots__ = ("_items",)

    def __init__(self, items: Iterable[Tuple[str, int]] = ()):
        merged: Dict[str, int] = {}
        for node, count in items:
            if count < 0:
                raise ValueError(f"negative clock entry {node}={count}")
            if count > merged.get(node, 0):
                merged[node] = count
        self._items: Tuple[Tuple[str, int], ...] = tuple(sorted(merged.items()))

    # -- algebra -----------------------------------------------------------

    def bump(self, node: str) -> "VectorClock":
        """A new clock with ``node``'s counter incremented."""
        counts = dict(self._items)
        counts[node] = counts.get(node, 0) + 1
        return VectorClock(counts.items())

    def merge(self, other: "VectorClock") -> "VectorClock":
        """Pointwise maximum (commutative, associative, idempotent)."""
        counts = dict(self._items)
        for node, count in other._items:
            if count > counts.get(node, 0):
                counts[node] = count
        return VectorClock(counts.items())

    def compare(self, other: "VectorClock") -> int:
        """BEFORE, EQUAL, AFTER, or CONCURRENT (a partial order)."""
        mine, theirs = dict(self._items), dict(other._items)
        less = any(mine.get(n, 0) < c for n, c in theirs.items())
        more = any(c > theirs.get(n, 0) for n, c in mine.items())
        if less and more:
            return CONCURRENT
        if more:
            return AFTER
        if less:
            return BEFORE
        return EQUAL

    def descends(self, other: "VectorClock") -> bool:
        """True when this clock is causally >= ``other``."""
        return self.compare(other) in (EQUAL, AFTER)

    # -- plumbing ----------------------------------------------------------

    def items(self) -> Tuple[Tuple[str, int], ...]:
        return self._items

    def __eq__(self, other) -> bool:
        return isinstance(other, VectorClock) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        body = ",".join(f"{n}:{c}" for n, c in self._items)
        return f"<VC {body or 'empty'}>"


@dataclass(frozen=True)
class Version:
    """One stored value version: payload metadata plus causality.

    ``stamp`` is the deterministic last-writer-wins tiebreak key —
    ``(coordination sim-time, coordinator name, per-coordinator seq)``
    — compared lexicographically, used *only* when clocks are
    concurrent.  ``size == 0 with op == "delete"`` is a tombstone.
    """

    clock: VectorClock
    size: int
    op: str  # "put" | "delete"
    stamp: Tuple[float, str, int]

    @property
    def tombstone(self) -> bool:
        return self.op == "delete"

    def key(self) -> Tuple:
        """Canonical identity for digests and set comparison."""
        return (self.clock.items(), self.size, self.op, self.stamp)


def reconcile(versions: Iterable[Version]) -> Tuple[Optional[Version], List[Version]]:
    """Collapse a version set to ``(winner, surviving siblings)``.

    Dominated versions are dropped by clock comparison alone.  When
    more than one concurrent version survives, every survivor is kept
    (the siblings) and the winner is the max ``stamp`` — the explicit
    last-writer-wins tiebreak policy, applied only across genuinely
    concurrent versions.  Returns ``(None, [])`` for an empty set.
    """
    survivors: List[Version] = []
    for candidate in versions:
        dominated = False
        kept: List[Version] = []
        for other in survivors:
            relation = other.clock.compare(candidate.clock)
            if relation in (AFTER, EQUAL):
                dominated = True
                kept = survivors
                break
            if relation != BEFORE:
                kept.append(other)  # concurrent: both survive
        if not dominated:
            survivors = kept + [candidate]
    if not survivors:
        return None, []
    survivors.sort(key=Version.key)
    winner = max(survivors, key=lambda v: v.stamp)
    return winner, survivors


class VersionStore:
    """Per-node (tenant, key) → surviving version set.

    The store holds causality metadata only; the value bytes live in
    the node's LSM engine (written through the full charged path).  Its
    contents drive coordinator clock generation, read repair, digest
    computation, and the convergence checks in tests/experiments.
    """

    def __init__(self, node: str, partition_map):
        self.node = node
        #: the :class:`~repro.node.router.PartitionMap` that says which
        #: keys a partition holds
        self.partition_map = partition_map
        self._versions: Dict[Tuple[str, int], Tuple[Version, ...]] = {}
        #: writes ignored because the incoming clock was dominated
        self.stale_inserts = 0

    # -- coordinator-side --------------------------------------------------

    def next_clock(self, tenant: str, key: int) -> VectorClock:
        """The clock for a fresh local coordination of (tenant, key):
        the merge of every known sibling, bumped at this node — it
        therefore supersedes the entire visible conflict set."""
        merged = VectorClock()
        for version in self._versions.get((tenant, key), ()):
            merged = merged.merge(version.clock)
        return merged.bump(self.node)

    # -- replica-side ------------------------------------------------------

    def insert(self, tenant: str, key: int, version: Version) -> bool:
        """Fold one version in; True if it changed the surviving set
        (False = it was dominated or already present: nothing to apply).
        """
        slot = (tenant, key)
        current = self._versions.get(slot, ())
        for existing in current:
            if existing.clock.descends(version.clock):
                self.stale_inserts += 1
                return False
        _winner, survivors = reconcile(list(current) + [version])
        self._versions[slot] = tuple(survivors)
        return True

    def get(self, tenant: str, key: int) -> Tuple[Version, ...]:
        return self._versions.get((tenant, key), ())

    def resolve(self, tenant: str, key: int) -> Tuple[Optional[Version], int]:
        """(LWW winner, sibling count) for a key; (None, 0) if absent."""
        winner, survivors = reconcile(self._versions.get((tenant, key), ()))
        return winner, len(survivors)

    # -- enumeration / digests ---------------------------------------------

    def keys_in(self, tenant: str, pid: int) -> List[int]:
        """Keys of ``tenant`` falling in partition ``pid``, sorted."""
        partition_of = self.partition_map.partition_of
        return sorted(
            key
            for (t, key) in self._versions
            if t == tenant and partition_of(tenant, key).index == pid
        )

    def digest(
        self, tenant: str, pid: int, buckets: int
    ) -> Tuple[int, Tuple[int, ...]]:
        """Merkle-style (root, per-bucket) CRC digest of a partition.

        Keys bucket by ``key % buckets``; each bucket hashes its sorted
        ``(key, version identity)`` entries, and the root hashes the
        bucket vector — two identical stores always digest identically,
        and a difference narrows to the divergent buckets.
        """
        bucket_bits = [b"" for _ in range(buckets)]
        for key in self.keys_in(tenant, pid):
            entry = repr((key, tuple(v.key() for v in self._versions[(tenant, key)])))
            idx = key % buckets
            bucket_bits[idx] += entry.encode()
        bucket_hashes = tuple(zlib.crc32(bits) for bits in bucket_bits)
        root = zlib.crc32(repr(bucket_hashes).encode())
        return root, bucket_hashes

    def fingerprint(self, tenant: str, pid: int) -> Tuple:
        """Canonical (key, versions) listing for convergence checks."""
        return tuple(
            (key, tuple(v.key() for v in self._versions[(tenant, key)]))
            for key in self.keys_in(tenant, pid)
        )

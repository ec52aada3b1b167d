"""Consistent-hash ring with virtual nodes.

Placement must satisfy two competing constraints: load has to spread
evenly over heterogeneous node counts, and a membership change must
move as little data as possible (every moved partition is a live
migration the reshard coordinator has to pay for in VOPs).  Classic
consistent hashing with virtual nodes gives both: each node projects
``vnodes`` points onto a 64-bit ring, a partition lives on the first
``rf`` distinct nodes clockwise of its own hash point, and adding or
removing a node only reassigns the partitions whose successor walk
crosses one of that node's points.

Hashing is :func:`hashlib.blake2b` over the token string — never
Python's builtin ``hash``, which is salted per process and would break
serial-vs-parallel byte-identity.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = ["HashRing", "PlacementDelta"]


def _hash64(token: str) -> int:
    """Deterministic 64-bit ring coordinate for a token."""
    return int.from_bytes(
        hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "big"
    )


@dataclass(frozen=True)
class PlacementDelta:
    """One partition whose replica set changes across a membership step."""

    pid: str
    old: Tuple[str, ...]
    new: Tuple[str, ...]

    @property
    def moved(self) -> Tuple[str, ...]:
        """Nodes gaining a replica — the targets that need data shipped."""
        return tuple(n for n in self.new if n not in self.old)


class HashRing:
    """Consistent-hash ring mapping partition ids onto node names.

    Parameters
    ----------
    vnodes:
        Virtual points per node.  More points → smoother balance,
        linearly more memory and log-factor slower lookups.
    """

    def __init__(self, nodes: Iterable[str] = (), vnodes: int = 64):
        if vnodes < 1:
            raise ValueError(f"vnodes {vnodes} < 1")
        self.vnodes = vnodes
        self._nodes: Dict[str, None] = {}  # insertion-ordered set
        self._points: List[Tuple[int, str]] = []  # sorted (hash, node)
        for name in nodes:
            self.add_node(name)

    # -- membership --------------------------------------------------------

    @property
    def nodes(self) -> List[str]:
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def add_node(self, name: str) -> None:
        if name in self._nodes:
            raise ValueError(f"node {name!r} already on the ring")
        self._nodes[name] = None
        for v in range(self.vnodes):
            point = (_hash64(f"{name}#{v}"), name)
            bisect.insort(self._points, point)

    def remove_node(self, name: str) -> None:
        if name not in self._nodes:
            raise KeyError(f"node {name!r} not on the ring")
        del self._nodes[name]
        self._points = [p for p in self._points if p[1] != name]

    # -- lookup ------------------------------------------------------------

    def successors(self, token: str, n: int = 1) -> Tuple[str, ...]:
        """The first ``n`` distinct nodes clockwise of ``token``'s point.

        Walks the ring from the token's hash; ``n`` is clamped to the
        node count.  This is the replica set for a partition id.
        """
        if not self._points:
            raise ValueError("ring is empty")
        n = min(n, len(self._nodes))
        start = bisect.bisect_right(self._points, (_hash64(token), "￿"))
        out: List[str] = []
        seen = set()
        i = start
        while len(out) < n:
            _, node = self._points[i % len(self._points)]
            if node not in seen:
                seen.add(node)
                out.append(node)
            i += 1
        return tuple(out)

    # -- placement ---------------------------------------------------------

    def placement(self, pids: Sequence[str], rf: int = 1) -> Dict[str, Tuple[str, ...]]:
        """Replica set (primary first) for every partition id."""
        if rf < 1:
            raise ValueError(f"replication factor {rf} < 1")
        return {pid: self.successors(pid, rf) for pid in pids}

    @staticmethod
    def delta(
        old: Dict[str, Tuple[str, ...]],
        new: Dict[str, Tuple[str, ...]],
    ) -> List[PlacementDelta]:
        """Partitions whose replica set changed, in pid order.

        This is the minimal movement set: consistent hashing guarantees
        only partitions adjacent to the joining/leaving node's points
        appear here — on average ``len(old) / n`` entries for an
        ``n``-node ring.
        """
        return [
            PlacementDelta(pid, old[pid], new[pid])
            for pid in sorted(old)
            if pid in new and new[pid] != old[pid]
        ]

    # -- balance diagnostics ----------------------------------------------

    def spread(self, pids: Sequence[str]) -> Dict[str, int]:
        """Primary-partition count per node (balance diagnostic)."""
        counts = {name: 0 for name in self._nodes}
        for pid in pids:
            counts[self.successors(pid, 1)[0]] += 1
        return counts

"""Pluggable FTL policies: victim selection and write-stream routing.

The FTL mechanism (:class:`repro.ssd.ftl.Ftl`) is fixed — page-mapped,
log-structured, GC by evacuate-and-erase — but two decisions inside it
are policy, and the literature (EagleTree; the multi-queue SSD modeling
papers in PAPERS.md) shows they move write amplification enough to
change provisioning conclusions:

- **victim selection** — which closed block GC evacuates next;
- **write-stream routing** — which append stream (set of per-channel
  active blocks) a host write lands in, separating hot from cold data
  so blocks die together.

Three built-in policies:

``greedy``
    Min-valid victim, single write stream.  This is the behavior the
    rest of the repo was calibrated against; it is the default and is
    bit-identical to the pre-policy FTL.
``costbenefit``
    Classic cost-benefit victim score ``(1 - u) / (1 + u) * age``
    (Rosenblum/LFS via EagleTree): prefers cool blocks whose remaining
    valid pages are unlikely to be invalidated soon over merely-emptiest
    blocks, trading copy work now for fewer re-copies later.
``hotcold``
    Greedy victim selection plus two write streams: ops whose pages were
    overwritten recently route to the hot stream, the rest to the cold
    stream.  Hot blocks then drain to near-empty before GC touches them.

Victim selection is one method, :meth:`FtlPolicy.victim_key`: a key
per closed block from its live-page count and birth stamp — the count
itself for ``greedy`` and ``hotcold``, the negated score for
``costbenefit`` — lowest first, lowest block index on ties.  Run-time
GC picks one victim at a time through :meth:`FtlPolicy.select_victim`;
preconditioning sorts the closed blocks by the key once per GC burst
(``Ftl._gc_pass``).  Both follow the one rule, and the burst relies on
GC changing neither input of a closed block.

Policies hold their own per-device state (bound via :meth:`FtlPolicy.bind`)
so the mechanism keeps zero overhead for policies that need none.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "FtlPolicy",
    "GreedyGcPolicy",
    "CostBenefitGcPolicy",
    "HotColdPolicy",
    "FTL_POLICIES",
    "make_ftl_policy",
]


class FtlPolicy:
    """Interface: victim selection + write-stream routing for one FTL."""

    #: registry key and report label
    name = "abstract"
    #: number of host append streams the FTL must maintain
    n_streams = 1

    def bind(self, ftl) -> None:
        """Attach per-device state; called once from ``Ftl.__init__``."""

    def victim_key(self, ftl, valid: np.ndarray, seq: np.ndarray) -> np.ndarray:
        """GC's order on closed blocks: the key of each block holding
        ``valid[i]`` live pages and opened at write clock ``seq[i]``.
        The victim is the closed block with the lowest key, the lowest
        block index on ties."""
        raise NotImplementedError

    def select_victim(self, ftl) -> Optional[int]:
        """Choose the next GC victim block, or None when none exists:
        the lowest :meth:`victim_key` among closed blocks, blocks still
        being appended excluded."""
        key = np.where(
            ftl.block_channel >= 0,
            self.victim_key(ftl, ftl.block_valid, ftl.block_seq),
            np.inf,
        )
        for b in ftl.active_blocks():
            if b is not None:
                key[b] = np.inf
        victim = int(np.argmin(key))
        if key[victim] == np.inf:
            return None
        return victim

    def route(self, ftl, pages: range) -> int:
        """Stream index for a host write covering ``pages``."""
        return 0

    def note_host_write(self, ftl, pages: range) -> None:
        """Observe a host write (for heat tracking); default no-op."""


class GreedyGcPolicy(FtlPolicy):
    """Fewest-live-pages victim, one write stream (the calibrated default)."""

    name = "greedy"
    n_streams = 1

    def victim_key(self, ftl, valid, seq):
        return valid


class CostBenefitGcPolicy(FtlPolicy):
    """Victim with the best ``benefit / cost = (1 - u) * age / (1 + u)``.

    ``u`` is the block's valid fraction (copy cost now); ``age`` is how
    many host page writes ago the block was opened (a proxy for how
    settled its remaining valid pages are).  Blocks still being appended
    are never victims.  The key is the negated score.
    """

    name = "costbenefit"
    n_streams = 1

    def victim_key(self, ftl, valid, seq):
        u = valid / float(ftl.pages_per_block)
        age = (ftl.write_seq - seq).astype(np.float64)
        return -((1.0 - u) * age / (1.0 + u))


class HotColdPolicy(FtlPolicy):
    """Greedy victims plus hot/cold write-stream separation.

    A host write routes to the hot stream when its pages were last
    written within the most recent ``hot_window`` fraction of the
    logical space's worth of host page writes — i.e. the data is being
    overwritten fast.  Preconditioning traffic leaves the heat map cold,
    so a fresh device starts with everything in the cold stream.
    """

    name = "hotcold"
    n_streams = 2
    COLD, HOT = 0, 1

    def __init__(self, hot_window: float = 0.25):
        if hot_window <= 0:
            raise ValueError(f"hot_window {hot_window} must be positive")
        self.hot_window = hot_window
        self._last_seq = None
        self._window_pages = 0

    def bind(self, ftl) -> None:
        self._last_seq = np.zeros(ftl.profile.logical_pages, dtype=np.int64)
        self._window_pages = max(
            1, int(ftl.profile.logical_pages * self.hot_window)
        )

    def victim_key(self, ftl, valid, seq):
        return valid

    def route(self, ftl, pages: range) -> int:
        newest = int(self._last_seq[pages.start : pages.stop].max())
        if newest > 0 and ftl.write_seq - newest < self._window_pages:
            return self.HOT
        return self.COLD

    def note_host_write(self, ftl, pages: range) -> None:
        self._last_seq[pages.start : pages.stop] = ftl.write_seq


FTL_POLICIES = {
    p.name: p for p in (GreedyGcPolicy, CostBenefitGcPolicy, HotColdPolicy)
}


def make_ftl_policy(policy) -> FtlPolicy:
    """Resolve a policy instance from a name, class, or instance."""
    if isinstance(policy, FtlPolicy):
        return policy
    if isinstance(policy, type) and issubclass(policy, FtlPolicy):
        return policy()
    try:
        return FTL_POLICIES[policy]()
    except KeyError:
        known = ", ".join(sorted(FTL_POLICIES))
        raise KeyError(f"unknown FTL policy {policy!r}; known: {known}") from None

"""FTL policy interface tests.

The policy layer owns GC victim selection and write-stream routing; the
mechanism (page map, append streams, evacuate-and-erase) must uphold
its invariants under *every* policy.  Hypothesis drives interleaved
host writes, TRIMs, and GC against each implementation and checks:

- no logical page is double-mapped (per-block valid counts sum to the
  mapped-page count, and never exceed block capacity);
- page counts are conserved: free + live + dead pages always equal the
  physical pool.
"""

import random

import numpy as np
import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from .helpers import assert_counts_are_the_map, reference_victim
from repro.ssd import SsdProfile
from repro.ssd.ftl import UNMAPPED, Ftl
from repro.ssd.ftl_policy import (
    FTL_POLICIES,
    CostBenefitGcPolicy,
    FtlPolicy,
    GreedyGcPolicy,
    HotColdPolicy,
    make_ftl_policy,
)

KIB = 1024
MIB = 1024 * 1024

ALL_POLICIES = sorted(FTL_POLICIES)

common_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def make_ftl(policy, **overrides) -> Ftl:
    defaults = dict(
        name="pol", channels=4, logical_capacity=8 * MIB, overprovision=1.0
    )
    defaults.update(overrides)
    return Ftl(SsdProfile(**defaults), seed=1, policy=policy)


def check_invariants(ftl: Ftl):
    """The no-double-mapping and page-conservation properties."""
    mapped = int((ftl.page_to_block != UNMAPPED).sum())
    assert int(ftl.block_valid.sum()) == mapped, "valid counts != mapped pages"
    assert int(ftl.block_valid.min()) >= 0
    assert int(ftl.block_valid.max()) <= ftl.profile.pages_per_block
    # Every mapped page's block must be allocated (not on the free list).
    free = set(ftl.free_blocks)
    for block in set(int(b) for b in ftl.page_to_block if b != UNMAPPED):
        assert block not in free, f"mapped block {block} is on the free list"
    # Conservation: every physical block is free or allocated exactly once.
    n_blocks = len(ftl.block_valid)
    allocated = sum(1 for b in range(n_blocks) if ftl.block_channel[b] != -1)
    assert allocated + len(free) == n_blocks


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["write", "trim"]),
        st.integers(min_value=0, max_value=2040),  # page index
        st.integers(min_value=1, max_value=8),  # pages
    ),
    max_size=60,
)


@pytest.mark.parametrize("policy", ALL_POLICIES)
@common_settings
@given(ops=ops_strategy)
def test_policy_invariants_under_mixed_ops(policy, ops):
    ftl = make_ftl(policy)
    page = ftl.profile.page_size
    for kind, start, pages in ops:
        end = min(start + pages, ftl.profile.logical_pages)
        if end <= start:
            continue
        if kind == "write":
            ftl.host_write(start * page, (end - start) * page)
        else:
            ftl.trim(start * page, (end - start) * page)
        if ftl.gc_needed:
            ftl._sync_gc()
    check_invariants(ftl)


@pytest.mark.parametrize("policy", ALL_POLICIES)
@common_settings
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_policy_precondition_full_mapping(policy, seed):
    ftl = Ftl(
        SsdProfile(
            name="pol2", channels=4, logical_capacity=8 * MIB, overprovision=1.0
        ),
        seed=seed,
        policy=policy,
    )
    ftl.precondition(age_factor=0.5)
    assert int((ftl.page_to_block != UNMAPPED).sum()) == ftl.profile.logical_pages
    assert ftl.gc_satisfied
    assert ftl.emergency_gcs == 0
    check_invariants(ftl)


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_policy_victim_never_active(policy):
    ftl = make_ftl(policy)
    ftl.precondition(age_factor=1.0)
    victim = ftl.pick_victim()
    assert victim is not None
    active = {b for b in ftl.active_blocks() if b is not None}
    assert victim not in active
    assert int(ftl.block_channel[victim]) >= 0


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_policy_sustained_overwrite_converges(policy):
    """Aged random overwrites never exhaust space or corrupt the map."""
    ftl = make_ftl(policy)
    ftl.precondition(age_factor=1.0)
    page = ftl.profile.page_size
    import random

    rng = random.Random(9)
    for _ in range(4000):
        p = rng.randrange(ftl.profile.logical_pages - 8)
        ftl.host_write(p * page, rng.choice([1, 4, 8]) * page)
        if ftl.gc_needed:
            ftl._sync_gc()
    check_invariants(ftl)
    assert ftl.emergency_gcs == 0


class IndexWitness(Ftl):
    """Before every ``collect_victim`` — background GC's and the
    emergency GC's inside ``_allocate_block`` alike — every block's
    count must be the pages the map names it for, the victim index's
    pick must be :func:`~tests.helpers.reference_victim`'s, and the
    index must bar exactly the blocks that are free, open or evacuating
    (:func:`assert_index_is_the_lanes`).  Counts the checks and the
    zero-live victims among them."""

    def __init__(self, *args, **kwargs):
        self.checked = 0
        self.zero_live = 0
        super().__init__(*args, **kwargs)

    def collect_victim(self):
        assert_counts_are_the_map(self)
        victim = self.pick_victim()
        assert victim == reference_victim(self)
        assert_index_is_the_lanes(self)
        self.checked += 1
        if victim is not None and self._valid[victim] == 0:
            self.zero_live += 1
        return super().collect_victim()


def assert_index_is_the_lanes(ftl):
    """``victim_penalty`` is 0 exactly on the closed blocks — allocated
    and listed on no append lane — and above any live count elsewhere."""
    closed = ftl.block_channel >= 0
    closed[[b for b in ftl.active_blocks() if b is not None]] = False
    assert ((ftl.victim_penalty == 0) == closed).all()
    assert (ftl.victim_penalty[~closed] > ftl.pages_per_block).all()


def retire_whole_block(ftl, rng):
    """TRIM every live page of a random closed block, so that GC meets
    a victim with no live page."""
    closed = np.flatnonzero(ftl.victim_penalty == 0)
    if not len(closed):
        return
    block = int(closed[rng.randrange(len(closed))])
    page = ftl.page_size
    live = [p for p in ftl.block_pages[block] if ftl.page_to_block[p] == block]
    ftl.trim_extents([(p * page, page) for p in live])
    assert ftl.block_valid[block] == 0


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_victim_index_picks_the_reference_victim_before_every_collect(policy):
    """A preconditioning burst, then seeded writes of one to 33 pages
    (some partial), whole-block TRIMs, background GC to the high
    watermark, and a stretch with no background GC, where host writes
    drain the pool and ``_allocate_block`` collects in an emergency."""
    ftl = IndexWitness(
        SsdProfile(name="index", channels=4, pages_per_block=16,
                   logical_capacity=2 * MIB, overprovision=1.0),
        seed=3, policy=policy,
    )
    ftl.precondition(age_factor=1.0)
    assert ftl.checked == 0  # the burst picks its victims by one sort
    assert_index_is_the_lanes(ftl)
    assert ftl.pick_victim() == reference_victim(ftl)
    rng = random.Random(policy)
    page = ftl.page_size
    for i in range(3000):
        if i == 2000:  # victims that an emergency GC empties without copying
            for _ in range(8):
                retire_whole_block(ftl, rng)
        if rng.random() < 0.05:
            retire_whole_block(ftl, rng)
        else:
            n = rng.choice([1, 1, 2, 8, 33])
            first = rng.randrange(ftl.logical_pages - n)
            ftl.host_write(first * page + rng.choice([0, 0, 100]), n * page - rng.choice([0, 50]))
        if 2000 <= i < 2400 and ftl.emergency_gcs < 5:
            continue  # no background GC: the pool drains to the emergency
        while ftl.gc_needed and not ftl.gc_satisfied:
            ftl.collect_victim()
    assert_index_is_the_lanes(ftl)
    assert ftl.checked > 300 and ftl.zero_live > 10 and ftl.emergency_gcs >= 5, (
        ftl.checked, ftl.zero_live, ftl.emergency_gcs
    )
    check_invariants(ftl)


def test_greedy_is_default_and_unchanged():
    """The refactor default is greedy, and it picks the min-valid block."""
    ftl = make_ftl(None)  # falls back to profile.ftl_policy = "greedy"
    assert ftl.policy.name == "greedy"
    ftl.precondition(age_factor=1.0)
    victim = ftl.pick_victim()
    active = {b for b in ftl.active_blocks() if b is not None}
    candidates = [
        int(ftl.block_valid[b])
        for b in range(len(ftl.block_valid))
        if ftl.block_channel[b] >= 0 and b not in active
    ]
    assert int(ftl.block_valid[victim]) == min(candidates)


def test_costbenefit_prefers_old_blocks_at_equal_valid():
    """At equal utilization, cost-benefit evacuates the older block."""
    ftl = make_ftl("costbenefit")
    page = ftl.profile.page_size
    ppb = ftl.profile.pages_per_block
    # Two generations of writes, then invalidate half of each uniformly.
    for p in range(0, 4 * ppb):
        ftl.host_write(p * page, page)
    for p in range(4 * ppb, 8 * ppb):
        ftl.host_write(p * page, page)
    for p in range(0, 8 * ppb, 2):
        ftl.trim(p * page, page)
    victim = ftl.pick_victim()
    assert victim is not None
    ages = ftl.write_seq - ftl.block_seq
    active = {b for b in ftl.active_blocks() if b is not None}
    peers = [
        b for b in range(len(ftl.block_valid))
        if ftl.block_channel[b] >= 0 and b not in active
        and int(ftl.block_valid[b]) == int(ftl.block_valid[victim])
    ]
    assert int(ages[victim]) == max(int(ages[b]) for b in peers)


def test_hotcold_separates_streams():
    """Re-overwritten pages land in the hot stream's active blocks."""
    ftl = make_ftl("hotcold")
    assert ftl.policy.n_streams == 2
    page = ftl.profile.page_size
    # First touch: everything is cold.
    ftl.host_write(0, 8 * page)
    cold_blocks = {b for b in ftl._host_active[HotColdPolicy.COLD] if b is not None}
    assert cold_blocks
    assert not any(b is not None for b in ftl._host_active[HotColdPolicy.HOT])
    # Immediate overwrite: now hot.
    ftl.host_write(0, 8 * page)
    hot_blocks = {b for b in ftl._host_active[HotColdPolicy.HOT] if b is not None}
    assert hot_blocks
    assert hot_blocks.isdisjoint(cold_blocks)


def test_make_ftl_policy_resolution():
    assert isinstance(make_ftl_policy("greedy"), GreedyGcPolicy)
    assert isinstance(make_ftl_policy("costbenefit"), CostBenefitGcPolicy)
    assert isinstance(make_ftl_policy("hotcold"), HotColdPolicy)
    assert isinstance(make_ftl_policy(GreedyGcPolicy), GreedyGcPolicy)
    instance = HotColdPolicy(hot_window=0.5)
    assert make_ftl_policy(instance) is instance
    with pytest.raises(KeyError, match="unknown FTL policy"):
        make_ftl_policy("lru")
    assert issubclass(FTL_POLICIES["greedy"], FtlPolicy)


def test_profile_ftl_policy_field_flows_through():
    profile = SsdProfile(
        name="polfield", channels=4, logical_capacity=8 * MIB,
        overprovision=1.0, ftl_policy="costbenefit",
    )
    assert Ftl(profile, seed=2).policy.name == "costbenefit"

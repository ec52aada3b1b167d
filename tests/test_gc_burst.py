"""GC in bursts: ``Ftl._sync_gc`` against the per-victim loop it replaced.

Preconditioning runs GC to the high watermark whenever the pool reaches
the low one.  ``Ftl._gc_pass`` evacuates a whole burst's victims in one
pass: one sort of the closed blocks by the policy's victim key, one
page-map gather over the victims' logs, the destination blocks placed
by per-channel rank arithmetic.  :class:`~tests.helpers.PerVictimGcFtl`
keeps the loop as it was — one ``collect_victim`` per victim, each
victim picked by the policy's rule as spelled before the victim key —
and every FTL field must end the same:

- for every built-in profile (shrunk to 32 MiB), policy, two seeds and
  two ``age_factor`` values;
- for small hand-built profiles that force the cases a burst must get
  right: a victim reopened as a GC destination within its own burst;
  the GC block open when the burst starts closing mid-burst with a key
  below a later victim's, so that it becomes a victim itself;
  cost-benefit ties at score 0; and a pool run dry, which must raise
  the loop's ``RuntimeError``.

:class:`Witness` is the reference with notes: each hand-built row
asserts that its case happened in the reference's bursts, so a row that
stops forcing its case fails instead of passing vacuously.
"""

import random

import pytest

from .helpers import PerVictimGcFtl, cost_benefit_scores, ftl_state
from repro.ssd import PROFILES, SsdProfile
from repro.ssd.ftl import Ftl

KIB = 1024
MIB = 1024 * KIB
POLICIES = ("greedy", "costbenefit", "hotcold")


def every_field(ftl):
    """:func:`~tests.helpers.ftl_state` plus the read-channel map, the
    watermark flags and the policy's own state."""
    state = ftl_state(ftl)
    state["page_channel"] = bytes(ftl.page_channel)
    state["flags"] = (ftl.gc_needed, ftl.gc_satisfied, ftl.host_starved, ftl._in_gc)
    state["policy"] = {
        key: value.tolist() if hasattr(value, "tolist") else value
        for key, value in vars(ftl.policy).items()
    }
    return state


def assert_every_field_equal(ftl, ref):
    got, want = every_field(ftl), every_field(ref)
    for field in want:
        assert got[field] == want[field], f"{field} differs"


class Witness(PerVictimGcFtl):
    """The per-victim reference, noting in :attr:`seen` what its bursts
    (``_sync_gc`` calls) did: ``"reopened"`` — a block erased earlier in
    the burst opened as a GC destination; ``"initial"`` — a victim was
    the GC block open when the burst started; ``"tie at 0"`` — a
    cost-benefit victim scored 0 while another closed block did too."""

    def __init__(self, *args, **kwargs):
        self.seen = set()
        self._open_at_start = None
        self._erased = set()
        super().__init__(*args, **kwargs)

    def _sync_gc(self):
        self._open_at_start = {b for b in self._gc_active if b is not None}
        self._erased = set()
        try:
            super()._sync_gc()
        finally:
            self._open_at_start = None

    def pick_victim(self):
        victim = super().pick_victim()
        if self._open_at_start is not None and victim is not None:
            if victim in self._open_at_start:
                self.seen.add("initial")
            if self.policy.name == "costbenefit":
                score = cost_benefit_scores(self)
                if score[victim] == 0 and (score == 0).sum() > 1:
                    self.seen.add("tie at 0")
        return victim

    def collect_victim(self):
        move = super().collect_victim()
        if move is not None and self._open_at_start is not None:
            self._erased.add(move.victim)
        return move

    def _allocate_block(self, channel):
        block = super()._allocate_block(channel)
        if self._open_at_start is not None and block in self._erased:
            self.seen.add("reopened")
        return block


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("age_factor", [0.5, 2.0])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", sorted(PROFILES))
def test_burst_gc_preconditions_every_built_in_profile_as_the_loop(name, policy, age_factor, seed):
    profile = PROFILES[name].with_capacity(32 * MIB)
    ftl = Ftl(profile, seed=seed, policy=policy)
    ref = PerVictimGcFtl(profile, seed=seed, policy=policy)
    ftl.precondition(age_factor)
    ref.precondition(age_factor)
    assert_every_field_equal(ftl, ref)


def tiny(channels, stripe_pages, pages_per_block, overprovision, reserve, low, high, kib):
    return SsdProfile(
        name="tiny", channels=channels, stripe_pages=stripe_pages,
        pages_per_block=pages_per_block, logical_capacity=kib * KIB,
        overprovision=overprovision, gc_reserve_blocks=reserve,
        gc_low_watermark=low, gc_high_watermark=high,
    )


#: case -> (profile, policy, seed, age_factor): preconditioning that
#: forces the case in some burst
PRECONDITION_CASES = {
    "reopened/greedy": (tiny(1, 4, 8, 1.0, 0, 0.02, 0.2, 1024), "greedy", 11, 1.0),
    "reopened/costbenefit": (tiny(1, 1, 4, 0.6, 1, 0.02, 0.2, 512), "costbenefit", 1, 0.5),
    "reopened/hotcold": (tiny(1, 4, 8, 0.6, 0, 0.02, 0.3, 512), "hotcold", 14, 0.5),
    "initial/greedy": (tiny(3, 4, 8, 0.6, 0, 0.02, 0.2, 1024), "greedy", 7, 0.5),
    "initial/costbenefit": (tiny(1, 1, 4, 0.6, 1, 0.06, 0.3, 256), "costbenefit", 11, 1.0),
    "initial/hotcold": (tiny(3, 2, 8, 0.6, 0, 0.02, 0.2, 1024), "hotcold", 10, 0.5),
}


@pytest.mark.parametrize("case", sorted(PRECONDITION_CASES))
def test_burst_gc_matches_the_loop_where_it_is_hardest(case):
    profile, policy, seed, age_factor = PRECONDITION_CASES[case]
    ftl = Ftl(profile, seed=seed, policy=policy)
    ref = Witness(profile, seed=seed, policy=policy)
    ftl.precondition(age_factor)
    ref.precondition(age_factor)
    assert case.split("/")[0] in ref.seen
    assert_every_field_equal(ftl, ref)


def retire_and_age(ftl, retired, trimmed, seed):
    """Precondition ``ftl`` (cost-benefit), then take ``retired`` blocks
    out of its free pool for good, as a drive retires worn blocks: with
    them gone the high watermark is out of reach of the blocks with a
    positive score.  Collect those at run time, one ``collect_victim``
    at a time; that leaves every closed block at score 0 — the full
    ones, and the GC blocks opened since the last host write (age 0).
    Trim a share ``trimmed`` of those GC blocks' pages, so that some
    score-0 blocks free space and others do not."""
    ftl.precondition(1.0)
    for _ in range(retired):
        ftl.free_blocks.pop()
    ftl._note_pool()
    while not ftl.gc_satisfied and cost_benefit_scores(ftl).max() > 0:
        ftl.collect_victim()
    assert not ftl.gc_satisfied
    young = [
        page for page, block in enumerate(ftl.page_to_block.tolist())
        if block >= 0 and ftl.block_seq[block] == ftl.write_seq and block not in ftl._gc_active
    ]
    for page in random.Random(seed).sample(young, int(len(young) * trimmed)):
        ftl.trim(page * ftl.page_size, ftl.page_size)


def test_cost_benefit_ties_at_score_0_go_to_the_lowest_block_as_in_the_loop():
    """Every closed block scores 0, and so does each GC block the burst
    closes: victims go in block order, and a closed GC block whose
    index is below the next victim's must be taken before it — the
    burst ends its first pass there and sorts again."""
    profile = tiny(1, 1, 8, 0.6, 1, 0.06, 0.3, 512)
    ftl = Ftl(profile, seed=0, policy="costbenefit")
    ref = Witness(profile, seed=0, policy="costbenefit")
    for each in (ftl, ref):
        retire_and_age(each, retired=3, trimmed=0.3, seed=0)
    assert_every_field_equal(ftl, ref)
    passes = []
    gc_pass = ftl._gc_pass
    ftl._gc_pass = lambda: passes.append(1) or gc_pass()
    ref.seen.clear()
    ftl._sync_gc()
    ref._sync_gc()
    assert "tie at 0" in ref.seen and len(passes) > 1
    assert_every_field_equal(ftl, ref)


@pytest.mark.parametrize("policy", POLICIES)
def test_a_pool_run_dry_raises_as_the_loop_does(policy):
    """With spare blocks retired and host writes draining the pool, GC
    runs out of destination blocks: the burst raises the loop's error.
    (The loop leaves a victim half copied when it raises; the burst
    raises before it moves anything of that victim's.)"""
    profile = tiny(1, 2, 4, 0.6, 0, 0.1, 0.3, 256)
    errors = []
    for cls in (Ftl, PerVictimGcFtl):
        ftl = cls(profile, seed=1, policy=policy)
        ftl.precondition(0.5)
        for _ in range(7):
            ftl.free_blocks.pop()
        ftl._note_pool()
        rng = random.Random(3)
        while not ftl.gc_needed:
            ftl.host_write(rng.randrange(ftl.logical_pages) * ftl.page_size, ftl.page_size)
        with pytest.raises(RuntimeError) as raised:
            ftl._sync_gc()
        errors.append(str(raised.value))
    assert errors[0] == errors[1]
    assert errors[0].startswith("FTL exhausted")

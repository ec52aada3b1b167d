"""Unit/behaviour tests for the SSD device model.

These verify the *mechanisms* the paper's evaluation depends on:
non-linear IOP/bandwidth vs op size, write cost exceeding read cost,
GC activity under sustained random overwrite, NCQ admission, and the
GC backpressure that parks host writes.
"""

import random


from repro.sim import Simulator
from repro.ssd import SsdDevice, SsdProfile

KIB = 1024
MIB = 1024 * 1024


def tiny_profile(**overrides) -> SsdProfile:
    defaults = dict(name="tiny", channels=4, logical_capacity=16 * MIB, overprovision=1.0)
    defaults.update(overrides)
    return SsdProfile(**defaults)


def run_closed_loop(profile, kind, size, duration=0.4, workers=32, seed=3):
    """Backlogged closed-loop driver; returns achieved op/s."""
    sim = Simulator()
    dev = SsdDevice(sim, profile, seed=seed)
    rng = random.Random(seed)
    page = profile.page_size
    done = {"n": 0}
    horizon = duration

    def worker():
        max_off = (profile.logical_capacity - size) // page
        while sim.now < horizon:
            off = rng.randrange(0, max_off) * page
            if kind == "read":
                yield dev.read(off, size)
            else:
                yield dev.write(off, size)
            done["n"] += 1

    for _ in range(workers):
        sim.process(worker())
    sim.run(until=horizon)
    return done["n"] / duration, dev


def test_read_completes_and_counts():
    sim = Simulator()
    dev = SsdDevice(sim, tiny_profile(), seed=1)
    flags = []

    def proc():
        yield dev.read(0, 4 * KIB)
        flags.append(sim.now)

    sim.process(proc())
    sim.run()
    assert dev.stats.reads == 1
    assert dev.stats.read_bytes == 4 * KIB
    assert flags and flags[0] > 0


def test_write_completes_and_counts():
    sim = Simulator()
    dev = SsdDevice(sim, tiny_profile(), seed=1)
    sim.process((yield_write(sim, dev)))
    sim.run()
    assert dev.stats.writes == 1
    assert dev.stats.write_bytes == 8 * KIB


def yield_write(sim, dev):
    def proc():
        yield dev.write(0, 8 * KIB)
    return proc()


def test_write_slower_than_read_at_same_size():
    profile = tiny_profile()
    sim = Simulator()
    dev = SsdDevice(sim, profile, seed=1)
    times = {}

    def reader():
        t0 = sim.now
        yield dev.read(0, 16 * KIB)
        times["read"] = sim.now - t0

    def writer():
        t0 = sim.now
        yield dev.write(64 * KIB, 16 * KIB)
        times["write"] = sim.now - t0

    sim.process(reader())
    sim.run()
    sim.process(writer())
    sim.run()
    assert times["write"] > times["read"]


def test_iop_throughput_decreases_with_op_size():
    profile = tiny_profile()
    small, _ = run_closed_loop(profile, "read", 4 * KIB, duration=0.2)
    large, _ = run_closed_loop(profile, "read", 64 * KIB, duration=0.2)
    assert small > large * 2


def test_bandwidth_increases_with_op_size():
    profile = tiny_profile()
    small, _ = run_closed_loop(profile, "read", 4 * KIB, duration=0.2)
    large, _ = run_closed_loop(profile, "read", 64 * KIB, duration=0.2)
    assert large * 64 * KIB > small * 4 * KIB


def test_ncq_bounds_in_flight():
    profile = tiny_profile(queue_depth=4)
    sim = Simulator()
    dev = SsdDevice(sim, profile, seed=1)
    peak = {"v": 0}

    def submitter():
        events = [dev.read(i * 4 * KIB, 4 * KIB) for i in range(16)]
        peak["v"] = max(peak["v"], dev.in_flight)
        yield sim.all_of(events)

    sim.process(submitter())
    sim.run()
    assert peak["v"] <= 4
    assert dev.stats.reads == 16


def test_starved_writes_resume_in_park_order_as_gc_frees_blocks():
    """A write finding the free pool down to the GC reserve keeps its
    slot and parks; each block the GC loop frees admits parked writes
    in park order, while a read goes straight through."""
    sim = Simulator()
    dev = SsdDevice(sim, tiny_profile(), seed=1)
    ftl = dev.ftl
    while not ftl.host_starved:  # retire free blocks, as a worn drive does
        ftl.free_blocks.pop()
        ftl._note_pool()
    admitted = []
    plan = dev._plan
    dev._plan = lambda *args: (admitted.append((args[1], sim.now)), plan(*args))[1]
    progress = []
    signal = dev._signal_gc_progress
    dev._signal_gc_progress = lambda: (progress.append(sim.now), signal())
    done = []
    for k in range(6):
        dev.submit(False, k * 64 * KIB, 16 * KIB, None, lambda k, r: done.append(k), k)
    assert (dev.in_flight, len(dev._starved), dev.gc_running) == (6, 6, True)
    dev.submit(True, 0, 4 * KIB, None, lambda k, r: done.append(k), "read")
    assert admitted == [(0, 0.0)] and dev.in_flight == 7
    sim.run(until=1.0)
    writes = admitted[1:]
    assert [offset for offset, _at in writes] == [k * 64 * KIB for k in range(6)]
    assert all(at in progress for _offset, at in writes)
    assert writes[0][1] > 0.0 and len({at for _offset, at in writes}) > 1
    assert sorted(done, key=str) == [0, 1, 2, 3, 4, 5, "read"]
    assert (dev.in_flight, len(dev._starved), dev.stats.writes) == (0, 0, 6)


def test_sustained_overwrite_triggers_gc():
    profile = tiny_profile()
    _rate, dev = run_closed_loop(profile, "write", 32 * KIB, duration=0.5)
    assert dev.stats.gc_runs > 0
    assert dev.stats.gc_blocks_erased > 0
    assert dev.ftl.emergency_gcs == 0


def test_gc_amplification_reported():
    profile = tiny_profile()
    _rate, dev = run_closed_loop(profile, "write", 16 * KIB, duration=0.5)
    amp = dev.stats.write_amplification(profile.page_size)
    assert amp >= 1.0
    assert amp < 5.0  # sane steady state, not a death spiral


def test_trim_is_instant_and_counted():
    sim = Simulator()
    dev = SsdDevice(sim, tiny_profile(), seed=1)
    before = sim.now
    dev.trim(0, 1 * MIB)
    assert sim.now == before
    assert dev.stats.trims == 1


def test_determinism_same_seed():
    profile = tiny_profile()
    r1, d1 = run_closed_loop(profile, "write", 8 * KIB, duration=0.3, seed=9)
    r2, d2 = run_closed_loop(profile, "write", 8 * KIB, duration=0.3, seed=9)
    assert r1 == r2
    assert d1.stats.gc_runs == d2.stats.gc_runs


def test_mixed_read_write_interference():
    """Reads sharing the device with large writes are slower than alone."""
    profile = tiny_profile()
    read_alone, _ = run_closed_loop(profile, "read", 4 * KIB, duration=0.3)

    sim = Simulator()
    dev = SsdDevice(sim, profile, seed=3)
    rng = random.Random(3)
    page = profile.page_size
    done = {"reads": 0}
    horizon = 0.3

    def reader():
        max_off = (profile.logical_capacity - 4 * KIB) // page
        while sim.now < horizon:
            yield dev.read(rng.randrange(0, max_off) * page, 4 * KIB)
            done["reads"] += 1

    def writer():
        max_off = (profile.logical_capacity - 256 * KIB) // page
        while sim.now < horizon:
            yield dev.write(rng.randrange(0, max_off) * page, 256 * KIB)

    for _ in range(16):
        sim.process(reader())
    for _ in range(16):
        sim.process(writer())
    sim.run(until=horizon)
    read_mixed = done["reads"] / horizon
    assert read_mixed < read_alone * 0.8


def test_device_without_precondition_starts_empty():
    sim = Simulator()
    dev = SsdDevice(sim, tiny_profile(), seed=1, precondition=False)
    assert dev.ftl.free_fraction == 1.0

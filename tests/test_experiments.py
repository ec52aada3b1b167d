"""Smoke tests for the experiment harness.

Fast figures run for real; slow ones are exercised at reduced scope
through their building blocks.  The full regeneration lives in
``benchmarks/``.
"""

import pickle
from dataclasses import replace

import pytest

from repro.experiments import FIGURES, run_figure
from repro.experiments import (
    chaosfig, clusterfig, common, fig3, fig5, fig6, fig8, partitionfig, scalefig,
)
from repro.experiments.clusterfig import ClusterTimeline
from repro.experiments.fig4 import Fig4Result


def test_figure_registry_complete():
    assert FIGURES == tuple(f"fig{i}" for i in range(2, 13)) + (
        "chaosfig", "clusterfig", "devicefig", "obsfig",
        "partitionfig", "scalefig",
    )


def test_run_figure_unknown_rejected():
    with pytest.raises(SystemExit):
        run_figure("fig99", quick=True)


def test_modes():
    assert common.mode_for(True).name == "quick"
    assert common.mode_for(False).name == "full"
    assert len(common.FULL.sizes) > len(common.QUICK.sizes)


def test_labels():
    assert common.size_label(1024) == "1K"
    assert common.size_label(262144) == "256K"
    assert common.ratio_label(None) == "1:1-mix"
    assert common.ratio_label(0.75) == "75:25"


def test_value_size_cycles_seven_sizes_512_bytes_apart():
    """partitionfig and scalefig write (and verify reads against) one
    shared per-op size rule."""
    from repro.experiments import partitionfig, scalefig

    sizes = [common.value_size(i) for i in range(14)]
    assert sizes[:7] == [2048 + 512 * k for k in range(7)]
    assert sizes[7:] == sizes[:7]
    assert partitionfig.value_size is scalefig.value_size is common.value_size


@pytest.mark.parametrize("schedule", [
    chaosfig.QUICK, chaosfig.FULL, clusterfig.QUICK, clusterfig.FULL,
    partitionfig.QUICK, partitionfig.FULL, scalefig.SMOKE, scalefig.QUICK, scalefig.FULL,
])
def test_every_shipped_schedule_is_accepted(schedule):
    assert replace(schedule) == schedule


def test_a_cluster_cell_with_no_post_kill_window_is_refused_before_it_runs():
    """``horizon == kill_at + settle`` leaves the post-kill rate window
    empty: the whole cell used to run, then divide by zero."""
    with pytest.raises(ValueError, match=r"^ClusterTimeline\.horizon "):
        clusterfig._run_cell((3, ClusterTimeline(kill_at=2.0, horizon=4.0), "intel320", 17))


def test_a_cluster_kill_before_the_demand_sample_is_refused():
    """The killer samples demand 1 s before the kill; ``kill_at < 1``
    made that sleep negative, the killer failed unobserved and the cell
    ran with no kill at all (no detection, no promotions)."""
    with pytest.raises(ValueError, match=r"^ClusterTimeline\.kill_at "):
        clusterfig._run_cell((3, ClusterTimeline(kill_at=0.5, horizon=4.0), "intel320", 17))


def test_cluster_post_kill_rate_counts_only_the_acks_inside_its_window(monkeypatch):
    """The rate divides by ``horizon - (kill_at + settle)``; a worker's
    PUT in flight at the horizon, acknowledged during the read-back,
    used to be counted in it too."""
    timeline = ClusterTimeline(kill_at=2.0, horizon=5.0)
    acked_at = {}
    kv_request = clusterfig.kv_request

    def timed(store, spec, rng, acks):
        acked = yield from kv_request(store, spec, rng, acks)
        if acked:
            acked_at.setdefault(spec.name, []).append(store.sim.now)
        return acked

    monkeypatch.setattr(clusterfig, "kv_request", timed)
    cell = clusterfig._run_cell((3, timeline, "intel320", 17))
    settle_at = timeline.kill_at + timeline.settle
    assert any(t > timeline.horizon for times in acked_at.values() for t in times)
    assert set(cell.post_kill_rate) == set(acked_at)
    for tenant, times in acked_at.items():
        inside = sum(settle_at <= t <= timeline.horizon for t in times)
        assert cell.post_kill_rate[tenant] == round(inside / (timeline.horizon - settle_at), 6)


def test_scalefig_sends_picklable_work_units_to_the_pool(monkeypatch):
    """``--jobs N`` pickles each work unit to a pool worker.  ``run``
    used to pass a function defined inside itself, which cannot be
    pickled, so ``scalefig --jobs 2`` failed on any host with two or
    more CPUs."""
    sent = []

    def pool_map(fn, items, jobs):
        sent.append(pickle.dumps((fn, items)))
        return [None, None]

    monkeypatch.setattr(scalefig, "parallel_map", pool_map)
    scalefig.run(smoke=True, jobs=2)
    assert len(sent) == 1


def test_fig6_runs_and_renders():
    result = fig6.run()
    text = fig6.render(result)
    assert "Figure 6" in text
    assert ("read", 1024) in result.points


def test_fig8_runs_and_renders():
    result = fig8.run()
    text = fig8.render(result)
    assert "constant" in text and "fitted" in text


def test_fig5_from_synthetic_fig4():
    cells = {
        (0.5, None, 1024, 1024): 20_000.0,
        (0.5, None, 1024, 4096): 30_000.0,
        (0.99, None, 1024, 1024): 35_000.0,
        (0.99, None, 1024, 4096): 36_000.0,
    }
    fig4_result = Fig4Result(
        profile="intel320", mode="quick", sizes=(1024, 4096), cells=cells
    )
    result = fig5.from_fig4(fig4_result)
    assert result.floor == 20_000.0
    assert set(result.curves) == {"50:50", "99:1"}
    text = fig5.render(result)
    assert "Figure 5" in text


def test_fig4_result_grid_orientation():
    cells = {
        (0.5, None, 1024, 1024): 1.0,
        (0.5, None, 1024, 4096): 2.0,
        (0.5, None, 4096, 1024): 3.0,
        (0.5, None, 4096, 4096): 4.0,
    }
    result = Fig4Result(profile="p", mode="quick", sizes=(1024, 4096), cells=cells)
    grid = result.grid(0.5, None)
    # rows: write sizes large->small; cols: read sizes small->large
    assert grid == [[2.0, 4.0], [1.0, 3.0]]
    assert result.floor == 1.0 and result.peak == 4.0


@pytest.fixture(scope="module")
def devicefig_smoke():
    """One serial and one ``--jobs 2`` smoke sweep, shared by the two
    devicefig tests (each sweep costs ~10 s)."""
    from repro.experiments import devicefig

    return devicefig.run(smoke=True, seed=17, jobs=1), devicefig.run(smoke=True, seed=17, jobs=2)


def test_devicefig_smoke_runs_and_renders(devicefig_smoke):
    from repro.experiments import devicefig

    result, _fanned = devicefig_smoke
    assert result.mode == "smoke"
    # 2 devices x 2 policies x 1 overprovision point
    assert len(result.cells) == 4
    for metrics in result.cells.values():
        assert metrics["read_vops"] > 0
        assert metrics["write_amp"] >= 1.0
        assert 0.0 < metrics["insulation"] <= 1.0
    # The pinned audit leg runs even in smoke mode.
    assert result.audit["ok"], result.audit["flags"]
    text = devicefig.render(result)
    assert "Conclusions" in text
    assert "valley" in text
    assert "reconciliation" in text


def test_devicefig_smoke_jobs_byte_identical(devicefig_smoke):
    from repro.experiments import devicefig

    serial, fanned = devicefig_smoke
    assert devicefig.render(serial) == devicefig.render(fanned)
    assert serial.cells == fanned.cells


def test_fig3_quick_subset_runs():
    # A tiny bespoke sweep: one op size, short window.
    from repro.core.tags import OpKind
    from repro.sim import Simulator
    from repro.ssd import SsdDevice, get_profile

    sim = Simulator()
    device = SsdDevice(sim, get_profile("intel320"), seed=3)
    iops, bw = fig3._sweep_point(
        sim, device, OpKind.READ, 4096, sequential=False,
        duration=0.1, warmup=0.05, seed=3,
    )
    assert iops > 1000
    assert bw == iops * 4096

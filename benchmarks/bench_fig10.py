"""Bench: regenerate Figure 10 (full-stack VOP throughput + floor)."""

import pytest

from repro.experiments import fig10

KIB = 1024


@pytest.mark.figure
def test_fig10_stack_throughput(quick_mode):
    result = fig10.run(quick=quick_mode)
    print()
    print(fig10.render(result))

    sizes = sorted({s for (_k, s) in result.pure})
    # Pure GET workloads run close to the interference-free max.
    for size in sizes:
        assert result.pure[("GET", size)] > 0.9 * result.max_vops
    # Pure PUT workloads drop far below it (FLUSH/COMPACT interference).
    for size in sizes:
        assert result.pure[("PUT", size)] < 0.65 * result.max_vops

    # Mixed throughput degrades as the ratio becomes PUT-heavy
    # (compare medians of the per-ratio sample sets).
    def ratio_median(fraction):
        samples = sorted(
            v for (f, _g, _p), v in result.mixed.items() if f == fraction
        )
        return samples[len(samples) // 2]

    assert ratio_median(0.75) > ratio_median(0.01)

    # The stack-aware floor mirrors the paper's coverage claims: most
    # workloads clear it, and the median unprovisionable-but-usable
    # excess stays modest.
    coverage = result.floor_coverage()
    assert coverage["fraction_below_floor"] < 0.35
    assert coverage["median_unprovisionable"] < 0.35

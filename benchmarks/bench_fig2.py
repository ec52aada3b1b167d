"""Bench: regenerate Figure 2 (app-request IO amplification breakdown)."""

import pytest

from repro.experiments import fig2


@pytest.mark.figure
def test_fig2_amplification_breakdown(quick_mode):
    result = fig2.run(quick=quick_mode)
    print()
    print(fig2.render(result))

    small = result.points["1K"]
    large = result.points["128K"]
    split = result.points["32K/128K"]
    # PUT (WAL) IO dominates GET IO at small request sizes.
    assert small["PUT write IO"] > small["GET read IO"]
    # WAL cost-per-request falls with size: PUT share shrinks.
    assert large["PUT write IO"] < small["PUT write IO"]
    # Background COMPACT grows with write bandwidth.
    compact_small = small["COMPACT read IO"] + small["COMPACT write IO"]
    compact_large = large["COMPACT read IO"] + large["COMPACT write IO"]
    assert compact_large > compact_small
    # The split workload's GETs terminate in a single pre-indexed file:
    # lowest GET IO of all points.
    assert split["GET read IO"] < min(
        p["GET read IO"] for label, p in result.points.items() if label != "32K/128K"
    ) + 1e-9
    # FLUSH writes happen at every point (the WAL must drain).
    assert all(p["FLUSH write IO"] > 0 for p in result.points.values())

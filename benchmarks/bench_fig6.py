"""Bench: regenerate Figure 6 (the Libra VOP cost model)."""

import pytest

from repro.experiments import fig6

KIB = 1024


@pytest.mark.figure
def test_fig6_cost_model(quick_mode):
    result = fig6.run(quick=quick_mode)
    print()
    print(fig6.render(result))

    sizes = sorted({s for (_k, s) in result.points})
    # Cost-per-byte decays monotonically for both op kinds.
    for kind in ("read", "write"):
        cpks = [result.points[(kind, s)][1] for s in sizes]
        assert all(a >= b * 0.999 for a, b in zip(cpks, cpks[1:])), kind

    # Writes always cost more than reads...
    for size in sizes:
        assert result.points[("write", size)][0] > result.points[("read", size)][0]

    # ...with the gap narrowing at large IOPs (lower erase overhead).
    gap_small = result.points[("write", sizes[0])][0] / result.points[("read", sizes[0])][0]
    gap_large = result.points[("write", sizes[-1])][0] / result.points[("read", sizes[-1])][0]
    assert gap_small > gap_large

    # The paper's anchor: a 1KB read costs about one VOP.
    assert result.points[("read", 1 * KIB)][0] == pytest.approx(1.0, rel=0.05)
    # And a 1KB write costs ~3x that (the 10000-reads / 3000-writes example).
    assert 2.0 < result.points[("write", 1 * KIB)][0] < 4.5

"""Bench: regenerate Figure 12 (shifting tenant demand)."""

import pytest

from repro.experiments import fig12


@pytest.mark.figure
def test_fig12_dynamic_demand(quick_mode):
    result = fig12.run(quick=quick_mode)
    print()
    print(fig12.render(result))

    # Aligned phase: every group meets its reservation.
    for group in ("read-heavy", "mixed", "write-heavy"):
        assert result.satisfied(group, "aligned"), group

    # Misaligned phase (workload swap, old reservations): the group now
    # issuing expensive requests against its stale reservation is cut
    # far below its aligned-phase throughput...
    rh_aligned, _ = result.throughput["read-heavy"]["aligned"]
    rh_misaligned, _ = result.throughput["read-heavy"]["misaligned"]
    assert rh_misaligned < 0.75 * rh_aligned
    # ...while the swapped counterpart coasts far above its stale
    # (small) reservation on the freed-up capacity.
    achieved, reserved = result.throughput["write-heavy"]["misaligned"]
    assert achieved > 1.5 * reserved

    # Realigning the reservations restores everyone.
    for group in ("read-heavy", "mixed", "write-heavy"):
        assert result.satisfied(group, "realigned"), group

    # Cost profiles swap roles: the initially write-heavy tenants end
    # with read-heavy-like amplified PUT costs and vice versa.
    rh_final = result.costs["read-heavy"]["realigned"][1]
    wh_final = result.costs["write-heavy"]["realigned"][1]
    rh_initial = result.costs["read-heavy"]["aligned"][1]
    wh_initial = result.costs["write-heavy"]["aligned"][1]
    assert wh_final > wh_initial * 1.5  # became expensive
    assert rh_final < rh_initial * 0.7  # became cheap

    # The policy responds to the misalignment by scaling allocations
    # down (overbooking) during that phase.  (In compressed quick-mode
    # timelines the aligned/realigned phases can also sit below 1.0 as
    # compaction profiles keep maturing, so no strict ordering here.)
    assert result.scales["misaligned"] < 1.0

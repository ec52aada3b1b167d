"""Bench: regenerate Figure 11 (reservations with/without profiles)."""

import pytest

from repro.experiments import fig11


@pytest.mark.figure
def test_fig11_reservations(quick_mode):
    result = fig11.run(quick=quick_mode)
    print()
    print(fig11.render(result))

    # With app-request profile tracking, every group meets its
    # reservation in both phases — including the write-heavy tenants
    # after their +50% increase.
    for group in ("read-heavy", "mixed", "write-heavy"):
        for phase in ("steady", "changed"):
            assert result.satisfied("tracking", group, phase), (group, phase)

    # Without tracking, the write-heavy tenants (whose FLUSH/COMPACT
    # consumption is unprovisioned) are clearly worse off: their worst
    # satisfaction ratio trails the tracking variant's by a wide gap.
    worst_tracking = min(
        result.satisfaction("tracking", "write-heavy", phase)
        for phase in ("steady", "changed")
    )
    worst_no_profile = min(
        result.satisfaction("no-profile", "write-heavy", phase)
        for phase in ("steady", "changed")
    )
    assert worst_tracking >= 0.9
    assert worst_no_profile < worst_tracking - 0.1, (
        worst_tracking, worst_no_profile
    )

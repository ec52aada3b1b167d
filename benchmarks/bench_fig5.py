"""Bench: regenerate Figure 5 (CDF of interference throughput)."""

import pytest

from repro.experiments import fig4, fig5


@pytest.mark.figure
def test_fig5_throughput_cdf(quick_mode):
    fig4_result = fig4.run(quick=quick_mode)
    result = fig5.run(quick=quick_mode, fig4_result=fig4_result)
    print()
    print(fig5.render(result))

    # Normalization: every curve starts at >= 1.0 (the floor).
    for label, points in result.curves.items():
        assert points[0][0] >= 1.0 - 1e-9, label

    # Write-leaning mixes sit lower (closer to the floor) than
    # read-dominant ones at the median.
    def median_of(label):
        pts = result.curves[label]
        return next(v for v, f in pts if f >= 0.5)

    assert median_of("25:75") <= median_of("99:1") * 1.05

    # Higher size variance pushes the distribution toward the floor:
    # the varied-size 50:50 curves' medians do not exceed the
    # fixed-size 50:50 median appreciably.
    fixed_median = median_of("50:50")
    for label in result.curves:
        if label.startswith("50:50 s="):
            assert median_of(label) <= fixed_median * 1.15

"""Bench: regenerate Figure 8 (competing VOP cost models)."""

import pytest

from repro.experiments import fig8

KIB = 1024


@pytest.mark.figure
def test_fig8_cost_model_comparison(quick_mode):
    result = fig8.run(quick=quick_mode)
    print()
    print(fig8.render(result))

    sizes = sorted({s for (_m, _k, s) in result.points})
    large = sizes[-1]

    for kind in ("read", "write"):
        # All models agree at the 1KB anchor.
        anchor = result.points[("exact", kind, 1 * KIB)]
        for model in ("constant", "linear", "fixed"):
            assert result.points[(model, kind, 1 * KIB)] == pytest.approx(
                anchor, rel=0.05
            ), (model, kind)
        # Constant grossly over-charges large ops...
        assert result.points[("constant", kind, large)] > \
            result.points[("exact", kind, large)] * 2
        # ...fixed grossly under-charges them...
        assert result.points[("fixed", kind, large)] < \
            result.points[("exact", kind, large)] / 3
        # ...linear matches the endpoints.
        assert result.points[("linear", kind, large)] == pytest.approx(
            result.points[("exact", kind, large)], rel=0.05
        )
        # Fitted stays close to exact everywhere.
        for size in sizes:
            exact = result.points[("exact", kind, size)]
            fitted = result.points[("fitted", kind, size)]
            assert abs(fitted - exact) / exact < 0.35, (kind, size)

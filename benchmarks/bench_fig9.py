"""Bench: regenerate Figure 9 (allocation accuracy per cost model)."""

import pytest

from repro.experiments import fig9


@pytest.mark.figure
def test_fig9_cost_model_accuracy(quick_mode):
    result = fig9.run(quick=quick_mode)
    print()
    print(fig9.render(result))

    def median(model, category, metric):
        med, _lo, _hi = result.summary(model, category, metric)
        return med

    IOP, VOP = 0, 1
    for category in ("rr", "ww", "rw"):
        # Libra's exact model achieves the best IOP insulation...
        exact = median("exact", category, IOP)
        assert exact > 0.85, (category, exact)
        # ...and fitted tracks it closely.
        assert median("fitted", category, IOP) > exact - 0.15
        # The scheduler enforces VOP shares accurately regardless of
        # model family (accounting fidelity), with exact >= 0.9.
        assert median("exact", category, VOP) > 0.9

    # The baselines lose on insulation for the mixed read/write set:
    # the best baseline stays below Libra's exact model.
    best_baseline = max(
        median(model, "rw", IOP) for model in ("constant", "linear", "fixed")
    )
    assert best_baseline < median("exact", "rw", IOP) + 0.02
    # The fixed model's size-blind charging skews same-kind mixes.
    assert median("fixed", "rr", IOP) < median("exact", "rr", IOP)

"""Bench: regenerate Figure 7 (IOP throughput ratios on three SSDs)."""

import pytest

from repro.experiments import fig7


@pytest.mark.figure
def test_fig7_throughput_ratios(quick_mode):
    result = fig7.run(quick=quick_mode)
    print()
    print(fig7.render(result))

    profiles = sorted({p for (p, _r, _w) in result.cells})
    assert set(profiles) == {"intel320", "samsung840", "oczvector"}

    for profile in profiles:
        # Near-perfect insulation on average (paper: mean MMR 0.98).
        assert result.mean_mmr(profile) > 0.9, profile
        # Readers and writers track each other in every cell.
        for (p, rsize, wsize), cell in result.cells.items():
            if p != profile:
                continue
            assert cell.mmr > 0.75, (profile, rsize, wsize)

    # The chunking artifact: the worst cells involve 256K ops, where
    # chunked scheduling trades accuracy for responsiveness — but even
    # those stay above 0.75 MMR.
    worst = min(result.cells.values(), key=lambda c: c.mmr)
    assert worst.mmr > 0.75

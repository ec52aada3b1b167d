"""Bench: regenerate Figure 4 (IO interference heat maps)."""

import pytest

from repro.core import reference_calibration
from repro.experiments import fig4

KIB = 1024


@pytest.mark.figure
def test_fig4_interference_heatmaps(quick_mode):
    result = fig4.run(quick=quick_mode)
    print()
    print(fig4.render(result))

    max_iop = reference_calibration(result.profile).max_iop
    # Interference carves a real valley: the floor sits well below the
    # interference-free maximum...
    assert result.floor < 0.85 * max_iop
    # ...but the device is never destroyed outright.
    assert result.floor > 0.3 * max_iop

    # Read-dominant (99:1) workloads suffer the least; their worst cell
    # beats the global floor comfortably.
    read_dominant = [
        v for (r, s, _rs, _ws), v in result.cells.items() if r == 0.99 and s is None
    ]
    assert min(read_dominant) > result.floor * 1.05

    # The deepest interference involves writes: the floor cell is not a
    # read-dominant one.
    floor_cell = min(result.cells, key=result.cells.get)
    assert floor_cell[0] != 0.99

    # Variable IOP sizes flatten and lower the surface: the sigma rows'
    # spread (max/min) is smaller than the fixed-size 50:50 row's.
    fixed = [v for (r, s, _g, _p), v in result.cells.items() if r == 0.5 and s is None]
    for sigma in {s for (_r, s, _g, _p) in result.cells if s is not None}:
        varied = [v for (r, s2, _g, _p), v in result.cells.items() if r == 0.5 and s2 == sigma]
        assert max(varied) / min(varied) < max(fixed) / min(fixed) * 1.25

"""Bench: regenerate Figure 3 (non-linear SSD IOP/s and bandwidth)."""

import pytest

from repro.experiments import fig3

KIB = 1024


@pytest.mark.figure
def test_fig3_device_curves(quick_mode):
    result = fig3.run(quick=quick_mode)
    print()
    print(fig3.render(result))

    sizes = sorted({s for (_k, _a, s) in result.points})
    small, large = sizes[0], sizes[-1]

    for access in ("rand", "seq"):
        # IOP throughput peaks at small sizes (controller bound)...
        read_small, _ = result.points[("read", access, small)]
        read_large, _ = result.points[("read", access, large)]
        assert read_small > read_large * 10
        # ...while bandwidth saturates at large sizes (channel bound).
        _, bw_small = result.points[("read", access, small)]
        _, bw_large = result.points[("read", access, large)]
        assert bw_large > bw_small * 3

    # Writes are slower than reads at every size (erase/program penalty).
    for size in sizes:
        read_iops, _ = result.points[("read", "rand", size)]
        write_iops, _ = result.points[("write", "rand", size)]
        assert write_iops < read_iops

    # Sequential writes are no slower than random (log-structured FTL,
    # clustered invalidation -> cheaper GC).
    _, wr_rand_bw = result.points[("write", "rand", large)]
    _, wr_seq_bw = result.points[("write", "seq", large)]
    assert wr_seq_bw >= wr_rand_bw * 0.9

    # Write bandwidth saturates earlier (around 32K) than read (64K+):
    # at 32K writes are within 25% of their peak.
    if 32 * KIB in sizes:
        wr_32k = result.points[("write", "rand", 32 * KIB)][1]
        wr_peak = max(result.points[("write", "rand", s)][1] for s in sizes)
        assert wr_32k > 0.6 * wr_peak

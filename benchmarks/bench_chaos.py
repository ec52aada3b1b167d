"""Bench: the chaos experiment (deterministic faults + failure handling).

Runs a fig11-style tenant mix through a scripted device-fault window
with a mid-run engine crash, and asserts the robustness contract:
no acknowledged write is lost, the failure handling is visible in the
per-tenant stats, allocations degrade proportionally and return to the
reservations, and two same-seed runs are byte-identical.
"""

import pytest

from repro.experiments import chaosfig


@pytest.mark.figure
def test_chaos_fault_window(quick_mode):
    result = chaosfig.run(quick=quick_mode)
    print()
    print(chaosfig.render(result))

    # The headline: every acknowledged write survived the fault window,
    # the crash, and the recovery — verified by reading each one back.
    assert result.verified
    assert result.total_lost == 0
    for tenant, acked in result.acked_puts.items():
        assert acked > 0, tenant

    # The crash tore unacknowledged records off the WAL tail and the
    # recovery scan replayed the acknowledged ones.
    assert result.torn_records > 0
    assert result.replayed_records > 0

    # Failure handling is visible in the per-tenant request stats:
    # transparent retries everywhere, attempt timeouts during the stall,
    # and requests that waited out the crash — while surfaced errors
    # stay far below the retry count (the node absorbs the chaos).
    total = {
        k: sum(s[k] for s in result.request_stats.values())
        for k in ("retries", "timeouts", "errors", "crashes", "crash_waits")
    }
    assert total["retries"] > 0
    assert total["timeouts"] > 0
    assert total["crashes"] == 1
    assert total["errors"] < total["retries"] / 5

    # The device actually injected faults of every scripted kind.
    assert result.device_faults["read_faults"] > 0
    assert result.device_faults["write_faults"] > 0
    assert result.device_faults["corrupt_reads"] > 0
    assert result.device_faults["degraded_ops"] > 0
    assert result.device_faults["stall_seconds"] > 0
    # ... and the engines detected every corruption via checksums.
    assert result.engine_faults["checksum_failures"] > 0
    assert result.engine_faults["read_retries"] > 0

    # Throughput dips during the window and recovers after it.
    for tenant in result.tenant_rates:
        assert result.dip_ratio(tenant) < 0.6, tenant
        assert result.recovery_ratio(tenant) > 0.8, tenant

    # Graceful degradation: the policy re-estimated capacity downward
    # under the sustained cost inflation (scaling allocations down
    # proportionally), then returned to the reservations afterwards.
    assert result.capacity_reestimates > 0
    assert result.min_effective_capacity < 0.8 * result.capacity_vops
    assert result.min_scale < 0.9
    assert result.final_scale > 0.95


@pytest.mark.figure
def test_chaos_two_runs_identical():
    """Same seed, same chaos: the two outcomes are equal."""
    first = chaosfig.run(quick=True)
    second = chaosfig.run(quick=True)
    assert first == second

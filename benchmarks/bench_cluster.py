"""Bench: the cluster experiment (replication, node kill, failover).

Runs the clusterfig RF sweep — two tenants through ClusterClient
endpoints against a three-node cluster, node0 killed mid-run — and
asserts the replication contract: RF >= 2 loses zero acknowledged
writes and keeps serving after failover, RF = 1 visibly loses the dead
node's partitions, replication cost shows up in write amplification
and Libra's demand estimates, and two same-seed runs are
byte-identical.
"""

import pytest

from repro.experiments import clusterfig


@pytest.mark.figure
def test_cluster_failover_sweep(quick_mode):
    result = clusterfig.run(quick=quick_mode)
    print()
    print(clusterfig.render(result))

    # The headline: with RF >= 2, every acknowledged write survived the
    # node kill — verified by reading each one back — while RF = 1 lost
    # the dead node's partitions outright.
    assert all(cell.verified for cell in result.cells)
    assert result.replicated_lost == 0
    rf1 = result.cell(1)
    assert sum(rf1.lost.values()) > 0

    # Availability: the replicated cells keep serving both tenants in
    # the settled post-kill window.
    for cell in result.cells:
        if cell.rf >= 2:
            for tenant, rate in cell.post_kill_rate.items():
                assert rate > 0, (cell.rf, tenant)

    # The detector noticed the silence and promoted backups for every
    # partition the dead node led (RF = 1 has no backups to promote).
    for cell in result.cells:
        assert cell.detection_s > 0, cell.rf
        if cell.rf >= 2:
            assert cell.promotions > 0, cell.rf
            assert cell.repl_applies > 0, cell.rf

    # The cost side: durable WAL records per acknowledged write grow
    # with RF, and the backup applies inflate Libra's demand estimates
    # — replication is visible to provisioning.
    amps = [result.cell(rf).write_amplification for rf in (1, 2, 3)]
    assert amps[0] < amps[1] < amps[2]
    assert amps[0] >= 1.0
    demands = [result.cell(rf).prekill_demand_vops for rf in (1, 2, 3)]
    assert demands[0] < demands[1]
    assert all(cell.rpc_round_trips > 0 for cell in result.cells)


@pytest.mark.figure
def test_cluster_two_runs_identical():
    """Same seed, same cluster chaos: the two outcomes are equal."""
    first = clusterfig.run(quick=True)
    second = clusterfig.run(quick=True)
    assert first == second

"""Bench: the device sweep (NVMe vs SATA, FTL policies, overprovision).

Runs the devicefig grid — fig4-style interference plus the fig9
cost-model insulation check across {SATA, NVMe x1/x4/x8} x {greedy,
costbenefit, hotcold} x overprovision points — and asserts which paper
conclusions survive the device change: the mixed-workload interference
valley, the SATA-calibrated exact model's insulation, VOP audit
reconciliation on the NVMe stack, and epoch fast-forward agreement
with the event-by-event run.
"""

import pytest

from repro.experiments import devicefig


@pytest.mark.figure
def test_device_sweep(quick_mode):
    result = devicefig.run(quick=quick_mode)
    print()
    print(devicefig.render(result))

    # Every cell produced sane metrics.
    for metrics in result.cells.values():
        assert metrics["read_vops"] > 0
        assert metrics["write_amp"] >= 1.0
        assert 0.0 < metrics["insulation"] <= 1.0

    # Queue scaling: the 8-queue NVMe device clears the SATA read
    # ceiling by a wide margin (per-queue controller lanes).
    sata_read = result.mean("read_vops", device="sata")
    nvme8_read = result.mean("read_vops", device="nvme x8")
    assert nvme8_read > 1.5 * sata_read

    # The interference valley persists on every queue architecture:
    # adding writers always costs the readers.
    for device, _ in devicefig.DEVICES:
        assert result.mean("valley", device=device) < 0.75, device

    # queues=1 NVMe is the SATA path: same structural model, same
    # throughput (within measurement noise of different trial seeds).
    sata_mix = result.mean("mix_vops", device="sata")
    nvme1_mix = result.mean("mix_vops", device="nvme x1")
    assert nvme1_mix == pytest.approx(sata_mix, rel=0.2)

    # The SATA-calibrated exact cost model still insulates tenants on
    # the NVMe architectures (the fig9 conclusion survives).
    for device, _ in devicefig.DEVICES:
        assert result.mean("insulation", device=device) > 0.5, device

    # More overprovisioning -> no worse write amplification, on average
    # across devices and policies.
    ops = sorted({op for (_, _, op) in result.cells})
    wa = [result.mean("write_amp", op=op) for op in ops]
    assert wa[-1] <= wa[0] * 1.05

    # The pinned NVMe legs: VOP accounting reconciles exactly, and the
    # hybrid fast-forward run agrees with the event-by-event run.
    assert result.audit["ok"], result.audit["flags"]
    assert result.audit["reconciliation"] == pytest.approx(1.0, abs=1e-9)
    assert all(result.ff_agree.values()), result.ff_agree
    assert result.ff_fraction > 0.5


@pytest.mark.figure
def test_device_sweep_parallel_byte_identical(quick_mode):
    serial = devicefig.run(smoke=True, seed=31, jobs=1)
    fanned = devicefig.run(smoke=True, seed=31, jobs=4)
    assert devicefig.render(serial) == devicefig.render(fanned)

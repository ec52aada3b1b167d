"""The one hybrid driver: cross-commit identity, loaded churn, input checks.

``tests/test_epoch.py``, ``test_fluid_epoch.py`` and ``test_control.py``
pin FF == DES *within* a commit.  Nothing there pins latency mass,
segment boundaries or rejection reasons *across* commits — which is
what every refactor of the hybrid stack has had to check by hand.  The
golden digests below were recorded at the commit before
``repro.workload.hybrid`` existed (two runner classes, two loops); a
change to the driver that moves any simulated number moves a digest.
Re-record only for a deliberate model change, and say so in the PR:

    PYTHONPATH=src python tests/test_hybrid_driver.py
"""

import dataclasses
import hashlib

import pytest

from repro.control.churn import ChurnConfig, run_churn_trial
from repro.core.calibration import reference_calibration
from repro.core.tags import OpKind
from repro.core.vop import make_cost_model
from repro.ssd import get_profile
from repro.workload import EpochTenantSpec, RateChange, run_epoch_trial

KIB = 1024
MIB = 1024 * KIB
PROFILE = get_profile("intel320")
SMALL = PROFILE.with_capacity(64 * MIB)
MODEL = make_cost_model("exact", reference_calibration("intel320"))


def loaded_specs(util, read_fraction, n_tenants=4, size=4 * KIB):
    """Tenants whose aggregate demand sits at ``util`` of VOP capacity."""
    mean = read_fraction * MODEL.cost(OpKind.READ, size) + (
        1.0 - read_fraction
    ) * MODEL.cost(OpKind.WRITE, size)
    rate = util * MODEL.max_iop / mean / n_tenants
    return [
        EpochTenantSpec(name=f"t{i}", rate=rate, read_fraction=read_fraction,
                        read_size=size, write_size=size)
        for i in range(n_tenants)
    ]


def _quiet_specs():
    return [
        EpochTenantSpec(name="small", rate=900.0, read_fraction=0.95),
        EpochTenantSpec(name="big", rate=25.0, read_fraction=1.0,
                        read_size=300 * KIB),
        EpochTenantSpec(name="spread", rate=400.0, read_fraction=0.9,
                        read_size=16 * KIB, write_size=8 * KIB, sigma=0.4),
    ]


_CHANGING = loaded_specs(0.60, 1.0)
_CHANGES = (
    RateChange(at=0.3, tenant="t0", rate=_CHANGING[0].rate * 1.3),
    RateChange(at=0.6, tenant="t2", rate=_CHANGING[2].rate * 0.2),
)


#: name -> (profile, specs, horizon, kwargs); each runs in both modes
EPOCH_SCENARIOS = {
    "quiet_multichunk": (PROFILE, _quiet_specs(), 1.5, dict(
        seed=3, rate_changes=(RateChange(at=0.7, tenant="small", rate=1500.0),),
    )),
    "loaded": (PROFILE, loaded_specs(0.75, 1.0), 0.8, dict(seed=7)),
    # small device: the GC watermark is crossed inside the horizon, so a
    # fluid epoch closes on "gc", the collector runs event-by-event and
    # fluid coverage resumes after it
    "mixed_gc": (SMALL, loaded_specs(0.65, 0.9), 1.5, dict(seed=7)),
    "rate_changes": (PROFILE, _CHANGING, 0.9,
                     dict(seed=13, rate_changes=_CHANGES)),
    "nvme8": (SMALL.with_queues(8), loaded_specs(0.75, 1.0), 0.6,
              dict(seed=21)),
    # quiet-only runner: a write closes the quiet epoch at the GC
    # crossing and the rest of the horizon stays event-by-event
    "fluid_off": (SMALL, loaded_specs(0.5, 0.6), 1.0,
                  dict(seed=3, fluid=False)),
}

#: 4 nodes at ~60 % utilisation with 70 % writes: quiet epochs are
#: closed by a GC crossing on one node while the others stay idle, and
#: thousands of tasks run event-by-event around the collector
CHURN_LOADED = ChurnConfig(
    n_nodes=4, n_tenants=60, horizon=30.0, base_rate=900.0,
    read_fraction=0.3, rebalance_interval=5.0,
)

GOLDEN = {
    "quiet_multichunk/des": "f68fa914847f82a2",
    "quiet_multichunk/ff": "601524c4e41bf9d5",
    "loaded/des": "09b72e301c0f09b8",
    "loaded/ff": "b9084f37fd247d41",
    "mixed_gc/des": "3dfc62f55d242fac",
    "mixed_gc/ff": "082ed548d697daee",
    "rate_changes/des": "5374cccf89b45cd2",
    "rate_changes/ff": "0a573b598d453859",
    "nvme8/des": "84a08ae7206ca1c9",
    "nvme8/ff": "827f94a7d38127ff",
    "fluid_off/des": "00e2cc351086f5c8",
    "fluid_off/ff": "9775aaca36a9b3e6",
    "churn_loaded/des": "f6d8216788bbb481",
    "churn_loaded/ff": "d854994d2545ab3e",
}


def _sha(payload) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def epoch_digest(result) -> str:
    return _sha((
        [dataclasses.astuple(s) for s in result.segments],
        [
            (name, t.ops, t.tasks, t.bytes, t.vops, t.failed_ops,
             t.latency.count, t.latency.mean, t.latency.percentile(99))
            for name, t in result.tenants.items()
        ],
        sorted(result.des_reasons.items()),
        sorted(result.reject_counts.items()),
    ))


def churn_digest(result) -> str:
    return _sha((
        result.agreement_key(), result.total_vops, result.ff_seconds,
        result.ff_tasks, result.des_tasks,
        [dataclasses.astuple(a) for a in result.actions],
    ))


def run_churn_pair():
    """The loaded churn config in both modes: ``(des, ff)``."""
    return tuple(run_churn_trial(CHURN_LOADED, fast_forward=ff) for ff in (False, True))


def compute_digests(churn_pair) -> dict:
    digests = {}
    for name, (profile, specs, horizon, kwargs) in EPOCH_SCENARIOS.items():
        for ff in (False, True):
            result = run_epoch_trial(
                profile, specs, horizon, fast_forward=ff, **kwargs
            )
            digests[f"{name}/{'ff' if ff else 'des'}"] = epoch_digest(result)
    for mode, result in zip(("des", "ff"), churn_pair):
        digests[f"churn_loaded/{mode}"] = churn_digest(result)
    return digests


@pytest.fixture(scope="module")
def churn_pair():
    return run_churn_pair()


def test_golden_digests_match_the_two_loop_parent(churn_pair):
    digests = compute_digests(churn_pair)
    report = "\n".join(
        f"  {k}: {v}{'' if GOLDEN.get(k) == v else f'  != golden {GOLDEN.get(k)}'}"
        for k, v in digests.items()
    )
    assert digests == GOLDEN, f"per-scenario digests:\n{report}"


def test_loaded_churn_ff_matches_des_through_gc_handbacks(churn_pair):
    """``test_control.py``'s churn agreement case is > 90 % quiet and
    never reaches the multi-node GC handback: here one node's write
    closes a quiet epoch while the others are idle, the collector runs
    event-by-event, and the two modes still agree exactly."""
    des, ff = churn_pair
    assert ff.agreement_key() == des.agreement_key()
    assert ff.total_vops == pytest.approx(des.total_vops, rel=1e-9)
    assert des.ff_seconds == 0.0 and des.des_tasks == des.total_tasks
    assert 0.5 * CHURN_LOADED.horizon < ff.ff_seconds < CHURN_LOADED.horizon
    assert ff.des_tasks > 5_000  # a real event-by-event share, not a sliver
    assert ff.total_tasks == ff.ff_tasks + ff.des_tasks


def test_churn_reports_why_fast_forward_was_lost(churn_pair):
    """The per-reason seconds partition the event-by-event share of the
    horizon, and GC — the disturbance this config is built around — is
    among the reasons."""
    des, ff = churn_pair
    assert "gc" in ff.des_reasons
    assert sum(ff.des_reasons.values()) == pytest.approx(
        CHURN_LOADED.horizon - ff.ff_seconds, abs=1e-6
    )
    assert des.des_reasons == {"disabled": pytest.approx(CHURN_LOADED.horizon)}


_SPECS = [EpochTenantSpec(name="t0", rate=100.0), EpochTenantSpec(name="t1", rate=100.0)]


@pytest.mark.parametrize("kwargs, field", [
    (dict(specs=[]), "specs"),
    (dict(rate_changes=[RateChange(0.5, "zz", 10.0)]), "rate_changes"),
    (dict(rate_changes=[RateChange(0.5, "t0", 0.0)]), "rate_changes"),
    (dict(allocations={"t0": 1000.0}), "allocations"),
])
def test_bad_epoch_trial_input_fails_fast_and_names_the_field(kwargs, field):
    """Bad input used to surface as a bare KeyError / ZeroDivisionError
    at the simulated time it was first touched."""
    args = dict(specs=_SPECS, horizon=1.0, fast_forward=True)
    args.update(kwargs)
    with pytest.raises(ValueError, match=field):
        run_epoch_trial(PROFILE, **args)


def test_bad_churn_config_fails_fast_and_names_the_field():
    with pytest.raises(ValueError, match="partitions_per_tenant"):
        run_churn_trial(dataclasses.replace(CHURN_LOADED, partitions_per_tenant=0))


if __name__ == "__main__":
    for key, value in compute_digests(run_churn_pair()).items():
        print(f'    "{key}": "{value}",')

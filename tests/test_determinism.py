"""Nondeterminism audit: every random draw flows through a seeded RNG.

Two guards: a source scan that bans ambient randomness (module-level
``random.*`` / ``numpy.random.*`` calls — everything must go through an
explicit ``random.Random(seed)``), and an end-to-end check that two
runs of a faulty, crashing workload produce byte-identical outcomes.

The scan allows one numpy spelling: a Mersenne Twister bit generator
put in a seeded ``random.Random``'s state before it draws — how
``Ftl`` preconditioning draws its ``randrange`` pages in bulk, bit for
bit.  A module using it must copy that state in (``getstate()`` into
the generator's ``.state``).
"""

import pathlib
import random
import re

import pytest

from repro.core import Reservation
from repro.faults import FaultKind, FaultPlan, FaultWindow, StorageFault
from repro.node import NodeConfig, StorageNode
from repro.sim import Simulator
from repro.ssd import SsdProfile

KIB = 1024
MIB = 1024 * 1024

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: calls on the `random` module itself (the shared global RNG), e.g.
#: random.random(), random.randrange(...) — but not random.Random(seed)
AMBIENT_RANDOM = re.compile(r"\brandom\s*\.\s*(?!Random\b)[a-z_]+\s*\(")
AMBIENT_NUMPY = re.compile(r"\b(?:np|numpy)\s*\.\s*random\s*\.")
#: ... and the spellings that would reach numpy.random without the prefix
NUMPY_RANDOM_IMPORT = re.compile(
    r"\bimport\s+numpy\s*\.\s*random\b|\bfrom\s+numpy\s*\.\s*random\s+import\b"
    r"|\bfrom\s+numpy\s+import\s+(?:.*,\s*)?random\b"
)
#: the one exception: a whole statement binding a name to an explicitly
#: seeded MT19937, which then has a ``random.Random``'s state copied in
SEEDED_BIT_GENERATOR = re.compile(
    r"^\s*[\w.]+\s*=\s*(?:np|numpy)\s*\.\s*random\s*\.\s*MT19937\s*\(\s*\d+\s*\)\s*$"
)
STATE_COPY = re.compile(r"\.getstate\s*\(\s*\)")


def _offenders(lines):
    """The code lines of one module that draw from, or reach, a
    process-global RNG."""
    copies_state = any(map(STATE_COPY.search, lines))
    return [
        line for line in lines
        if not (copies_state and SEEDED_BIT_GENERATOR.match(line))
        and (AMBIENT_RANDOM.search(line) or AMBIENT_NUMPY.search(line)
             or NUMPY_RANDOM_IMPORT.search(line))
    ]


def _code_lines(path):
    """Source lines with docstrings/comments crudely stripped."""
    in_doc = False
    for line in path.read_text().splitlines():
        stripped = line.strip()
        quotes = stripped.count('"""') + stripped.count("'''")
        if in_doc:
            if quotes:
                in_doc = False
            continue
        if quotes == 1:
            in_doc = True
            continue
        if quotes >= 2 or stripped.startswith("#"):
            continue
        yield line.split("#", 1)[0]


def test_no_ambient_randomness_in_source():
    offenders = [
        f"{path.relative_to(SRC)}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        for line in _offenders(list(_code_lines(path)))
    ]
    assert not offenders, (
        "ambient (unseeded, process-global) randomness found — route it "
        "through a seeded random.Random instance:\n" + "\n".join(offenders)
    )


STATE_COPIED_IN = "internal = self.rng.getstate()[1]"


@pytest.mark.parametrize("line", [
    "x = random.random()",
    "random.shuffle(order)",
    "noise = np.random.normal(0, 1, 8)",
    "np.random.seed(1)",
    "rng = numpy.random.default_rng()",
    "gen = np . random . MT19937()",  # unseeded: OS entropy
    "raw = np.random.MT19937(0).random_raw(8)",  # draws before any state copy
    "from numpy.random import default_rng",
    "from numpy import linalg, random",
    "import numpy.random as npr",
])
def test_audit_rejects_module_level_draws(line):
    assert _offenders([STATE_COPIED_IN, line]) == [line]


def test_audit_allows_a_bit_generator_only_with_a_state_copied_in():
    seeded = "        twister = np.random.MT19937(0)"
    assert _offenders([seeded, STATE_COPIED_IN]) == []
    assert _offenders([seeded]) == [seeded]
    assert _offenders([
        "rng = random.Random(seed)", "page = self.rng.randrange(n)",
        "raw = twister.random_raw(chunk)",
    ]) == []


# ---------------------------------------------------------------------------
# Two identical runs
# ---------------------------------------------------------------------------

TINY = SsdProfile(name="tiny-det", channels=4, logical_capacity=64 * MIB, overprovision=1.0)


def _chaotic_run(seed=5):
    sim = Simulator()
    plan = (
        FaultPlan(seed=seed)
        .add(FaultWindow(FaultKind.READ_ERROR, 0.2, 0.9, probability=0.1))
        .add(FaultWindow(FaultKind.WRITE_ERROR, 0.2, 0.9, probability=0.1))
        .add(FaultWindow(FaultKind.CORRUPT_READ, 0.2, 0.9, probability=0.1))
        .add(FaultWindow(FaultKind.DEGRADED_BW, 0.2, 0.9, slowdown=3.0))
        .add(FaultWindow(FaultKind.STALL, 0.5, 0.6))
    )
    node = StorageNode(
        sim,
        profile=TINY,
        config=NodeConfig(capacity_vops=20_000.0, max_retries=8, request_timeout=0.2),
        fault_plan=plan,
        seed=seed,
    )
    node.add_tenant("t1", Reservation(gets=2000, puts=2000))
    rng = random.Random(f"det:{seed}")
    log = []

    def worker(widx):
        while sim.now < 1.5:
            key = rng.randrange(200)
            try:
                if rng.random() < 0.5:
                    size = yield from node.get("t1", key)
                    log.append(("get", round(sim.now, 9), key, size))
                else:
                    size = 1 * KIB + (key % 4) * KIB
                    yield from node.put("t1", key, size)
                    log.append(("put", round(sim.now, 9), key, size))
            except StorageFault as exc:
                log.append(("err", round(sim.now, 9), key, type(exc).__name__))

    def chaos():
        yield sim.timeout(0.15)
        torn = node.crash("t1")
        replayed = yield from node.restart("t1")
        log.append(("crash", torn, replayed))

    for widx in range(3):
        sim.process(worker(widx))
    sim.process(chaos())
    sim.run(until=2.0)
    node.stop()
    stats = node.stats("t1")
    return repr(
        (
            log,
            sorted(vars(stats).items()),
            sorted(node.device.stats.as_dict().items()),
            sorted(vars(node.engines["t1"].stats).items()),
            node.device.faults.injected_read_errors,
            node.device.faults.injected_write_errors,
            node.device.faults.injected_corruptions,
        )
    )


def test_two_identical_runs_are_byte_identical():
    assert _chaotic_run(seed=5) == _chaotic_run(seed=5)


def test_different_seeds_diverge():
    # Sanity check that the fingerprint actually captures the chaos
    # (otherwise the identity test above proves nothing).
    assert _chaotic_run(seed=5) != _chaotic_run(seed=6)


# ---------------------------------------------------------------------------
# Replicated cluster: network faults + node kill + failover
# ---------------------------------------------------------------------------


def _link_table(fabric):
    """Every link's counters, read from ``fabric.link_stats`` (each
    ``LinkStats``'s ``vars()``), keyed "src->dst" and rounded as they
    were when ``tests/test_node_golden.py`` pinned this run's repr."""
    scale = {"bytes": ("kbytes", 1 / 1024, 1), "queue_wait": ("queue_wait_ms", 1e3, 3),
             "max_queue_wait": ("max_queue_wait_ms", 1e3, 3)}
    table = []
    for (src, dst), stats in sorted(fabric.link_stats.items()):
        row = {}
        for field, value in vars(stats).items():
            if field in scale:
                field, factor, digits = scale[field]
                value = round(value * factor, digits)
            row[field] = value
        table.append((f"{src}->{dst}", row))
    return table


def _replicated_run(seed=9):
    from repro.net import NetConfig
    from repro.node import StorageCluster

    sim = Simulator()
    plan = (
        FaultPlan(seed=seed)
        .add(FaultWindow(FaultKind.MSG_DROP, 0.3, 1.2, probability=0.05))
        .add(FaultWindow(FaultKind.MSG_DUP, 0.3, 1.2, probability=0.05))
        .add(FaultWindow(FaultKind.MSG_DELAY, 0.3, 1.2, extra_latency=0.003))
    )
    net = NetConfig(
        rf=2,
        heartbeat_interval=0.05,
        suspicion_timeout=0.25,
        rpc_timeout=0.05,
        rpc_backoff=0.002,
        fault_plan=plan,
    )
    cluster = StorageCluster(
        sim,
        n_nodes=3,
        profile=TINY,
        config=NodeConfig(capacity_vops=20_000.0),
        partitions_per_tenant=4,
        seed=seed,
        net=net,
    )
    cluster.add_tenant("t1", Reservation(gets=2000, puts=2000))
    client = cluster.make_client()
    rng = random.Random(f"repl-det:{seed}")
    log = []

    def worker(widx):
        while sim.now < 2.5:
            key = rng.randrange(120)
            try:
                if rng.random() < 0.4:
                    size = yield from client.get("t1", key)
                    log.append(("get", round(sim.now, 9), key, size))
                else:
                    size = 1 * KIB + (key % 4) * KIB
                    yield from client.put("t1", key, size)
                    log.append(("put", round(sim.now, 9), key, size))
            except StorageFault as exc:
                log.append(("err", round(sim.now, 9), key, type(exc).__name__))
            yield sim.timeout(0.002)

    def killer():
        yield sim.timeout(1.0)
        cluster.kill_node("node0")

    for widx in range(3):
        sim.process(worker(widx))
    sim.process(killer())
    sim.run(until=4.0)
    cluster.stop()
    promotions = [
        rec.promotions for rec in cluster.detector.failovers
    ]
    return repr(
        (
            log,
            promotions,
            cluster.partition_map.version,
            sorted(vars(cluster.total_stats("t1")).items()),
            _link_table(cluster.fabric),
            sorted(
                (name, vars(service.rpc.stats), service.quorum_acks)
                for name, service in cluster.services.items()
            ),
            cluster.fabric.injector.dropped_messages,
            cluster.fabric.injector.duplicated_messages,
            cluster.fabric.injector.delayed_messages,
        )
    )


def test_replicated_cluster_runs_are_byte_identical():
    assert _replicated_run(seed=9) == _replicated_run(seed=9)


def test_replicated_cluster_seeds_diverge():
    assert _replicated_run(seed=9) != _replicated_run(seed=10)

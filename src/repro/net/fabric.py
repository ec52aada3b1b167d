"""The simulated network fabric: NICs, links, and message delivery.

Cross-node hops cost simulated time and congest under load.  Each
endpoint (storage node, cluster controller, client) owns a :class:`Nic`
whose egress is a FIFO serialization resource: a message occupies the
NIC for ``(bytes + overhead) / bandwidth`` seconds, and messages that
arrive while it is busy queue behind it — so a replication storm or a
fan-in of responses shows up as queueing delay, exactly like the SSD
model's controller stage.  Delivery then takes a per-link propagation
latency.  The model is deliberately structural (a single store-and-
forward hop per message, no TCP dynamics): curve shapes — serialization
cost growing with object size, congestion knees under fan-in — survive,
with calibrated constants.

Message faults reuse the :mod:`repro.faults` plan machinery: MSG_DROP /
MSG_DELAY / MSG_DUP windows are evaluated per message by a dedicated
:class:`~repro.faults.NetFaultInjector`, so network chaos is as
replayable as device chaos.  A node marked down (a kill) silently eats
every message addressed to or sent from it — the failure detector, not
the fabric, is what tells the rest of the cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..faults import FaultPlan, NetFaultInjector
from ..sim import Simulator

__all__ = ["MESSAGE_OVERHEAD", "NetConfig", "LinkStats", "Nic", "Link", "NetworkFabric"]

#: framing/header bytes added to every message's serialization cost
MESSAGE_OVERHEAD = 256


@dataclass(frozen=True)
class NetConfig:
    """Fabric, RPC, replication, and failure-detection parameters.

    The bandwidth/latency defaults model an intra-rack 10 GbE hop
    (~1.25 GB/s per NIC, ~100 us one-way including switching); they are
    calibrated constants, not measurements, like the SSD profiles.
    """

    #: per-NIC egress bandwidth in bytes/second
    nic_bandwidth: float = 1.25e9
    #: one-way propagation + switching latency per message, seconds
    link_latency: float = 100e-6
    # -- replication -------------------------------------------------------
    #: replication factor: replicas per partition (1 = no replication)
    rf: int = 1
    #: "primary-backup" (the paper's in-rack setting) or "leaderless"
    #: (Dynamo-style: any reachable replica coordinates, sloppy quorums
    #: with hinted handoff, vector-clock versioning with read repair,
    #: background anti-entropy)
    replication_mode: str = "primary-backup"
    #: replicas that must durably hold a PUT/DELETE before the ack
    #: (None = majority of rf; clamped to the live replica count)
    write_quorum: Optional[int] = None
    #: replies a quorum read waits for (None = majority of rf).
    #: Leaderless GETs always read a quorum; primary-backup GETs read
    #: the primary alone unless this is set above 1, and then a quorum
    #: of live replicas (the chain-senior reply wins)
    read_quorum: Optional[int] = None
    # -- leaderless mode ---------------------------------------------------
    #: seconds between hinted-handoff delivery sweeps on each node
    hint_interval: float = 0.5
    #: seconds between per-node anti-entropy digest exchanges
    anti_entropy_interval: float = 2.0
    # -- RPC budgets (mirroring NodeConfig's device-fault budgets) ---------
    #: per-attempt response budget, seconds
    rpc_timeout: float = 0.25
    #: transparent retries per call before the failure surfaces
    rpc_retries: int = 5
    #: initial retry backoff, seconds (doubles per attempt)
    rpc_backoff: float = 0.005
    #: deterministic backoff jitter fraction in [0, 1]: each retry's
    #: backoff is scaled by ``1 + jitter * u`` with ``u`` drawn from the
    #: endpoint's own seeded RNG, so synchronized retry storms after a
    #: partition heal decorrelate without losing reproducibility
    rpc_jitter: float = 0.25
    # -- failure detection -------------------------------------------------
    #: seconds between heartbeats from each node
    heartbeat_interval: float = 0.2
    #: silence after which a node is suspected and failed over
    suspicion_timeout: float = 1.0
    #: MSG_DROP / MSG_DELAY / MSG_DUP windows applied to every message
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self):
        for name, least in (("rf", 1), ("rpc_retries", 0)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < least:
                raise ValueError(f"{name} {value!r} must be an int >= {least}")
        for name in ("write_quorum", "read_quorum"):
            value = getattr(self, name)
            if value is not None and (
                not isinstance(value, int) or isinstance(value, bool)
                or not 1 <= value <= self.rf
            ):
                raise ValueError(f"{name} {value!r} not an int in [1, rf={self.rf}]")
        if self.replication_mode not in ("primary-backup", "leaderless"):
            raise ValueError(
                f"unknown replication_mode {self.replication_mode!r}"
            )
        # A zero period or timeout spins its loop at one instant; a NaN
        # or infinite one, or bandwidth, never fires or poisons every
        # later timestamp.
        for name in (
            "nic_bandwidth", "hint_interval", "anti_entropy_interval",
            "rpc_timeout", "heartbeat_interval", "suspicion_timeout",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} {value!r} must be finite and > 0")
        for name in ("link_latency", "rpc_backoff"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} {value!r} must be finite and >= 0")
        if not 0.0 <= self.rpc_jitter <= 1.0:
            raise ValueError(f"rpc_jitter {self.rpc_jitter} not in [0, 1]")

    @property
    def leaderless(self) -> bool:
        return self.replication_mode == "leaderless"

    @property
    def effective_write_quorum(self) -> int:
        """The configured write quorum, defaulting to a majority of rf."""
        return self.write_quorum if self.write_quorum is not None else self.rf // 2 + 1

    @property
    def effective_read_quorum(self) -> int:
        """The configured read quorum, defaulting to a majority of rf."""
        return self.read_quorum if self.read_quorum is not None else self.rf // 2 + 1


@dataclass
class LinkStats:
    """Per-(src, dst) delivery counters."""

    messages: int = 0
    bytes: int = 0
    #: summed seconds messages waited behind the egress NIC
    queue_wait: float = 0.0
    max_queue_wait: float = 0.0
    dropped: int = 0
    duplicated: int = 0
    #: messages addressed to a node that was down at delivery time
    dead_letters: int = 0
    #: messages severed by an active NET_PARTITION window
    partitioned: int = 0


class Nic:
    """One endpoint's egress serialization resource.

    Modeled as a next-free-time accumulator rather than a DES process:
    a message starting service at ``max(now, next_free)`` and holding
    the NIC for its serialization time yields exactly FIFO queueing
    delay under load, with no per-message process overhead.
    :meth:`Link.send` does the accounting, into the links' books
    (``NetworkFabric.link_stats``): the NIC keeps no counters of its
    own, and its sent messages and bytes are its outbound links' sums.
    ``down`` is set once the endpoint is killed.
    """

    __slots__ = ("name", "bandwidth", "next_free", "down")

    def __init__(self, name: str, bandwidth: float):
        self.name = name
        self.bandwidth = bandwidth
        self.next_free = 0.0
        self.down = False


class Link:
    """One direction between two endpoints, opened on its first message:
    its counters, its source NIC and its latency."""

    __slots__ = ("fabric", "sim", "src", "dst", "stats", "nic", "latency", "injector")

    def __init__(self, fabric: "NetworkFabric", src: str, dst: str):
        self.fabric = fabric
        self.sim = fabric.sim
        self.src = src
        self.dst = dst
        self.stats = LinkStats()
        self.nic = fabric.nics[src]
        self.latency = fabric.config.link_latency
        self.injector = fabric.injector

    def send(self, nbytes: int, message: Any, deliver: Callable[[Any], None]) -> None:
        """Ship ``message`` (fire-and-forget); ``deliver(message)`` runs
        at its arrival, and is what checks for a dead receiver.

        Serialization occupies the source NIC (FIFO), propagation adds
        the link latency, and the active fault windows may drop, delay,
        or duplicate the message in flight.  A dead source sends nothing.
        """
        nic = self.nic
        if nic.down:
            return
        now = self.sim.now
        wire_bytes = nbytes + MESSAGE_OVERHEAD
        self.stats.messages += 1
        self.stats.bytes += wire_bytes
        # Occupy the source NIC: service starts once it is free.
        if nic.next_free > now:
            stats = self.stats
            queue_wait = nic.next_free - now
            stats.queue_wait += queue_wait
            if queue_wait > stats.max_queue_wait:
                stats.max_queue_wait = queue_wait
            nic.next_free += wire_bytes / nic.bandwidth
        else:
            nic.next_free = now + wire_bytes / nic.bandwidth
        if self.injector is None:
            self.sim.call_at(nic.next_free + self.latency, deliver, message)
            return
        injector = self.injector
        stats = self.stats
        # Partition severance first: it is deterministic (no RNG draw),
        # so cutting a link never perturbs drop/dup streams.
        if injector.severed(now, self.src, self.dst):
            stats.partitioned += 1
            return
        if injector.drop(now):
            stats.dropped += 1
            return
        arrival = nic.next_free + self.latency + injector.extra_delay(now)
        deliveries = 1
        if injector.duplicate(now):
            stats.duplicated += 1
            deliveries = 2
        for copy in range(deliveries):
            # Duplicates trail the original by one propagation delay.
            self.sim.call_at(arrival + copy * self.latency, deliver, message)


class NetworkFabric:
    """Message transport between named endpoints.

    Sending is fire-and-forget, over the :class:`Link` between two
    names: the message reaches the receiving endpoint's handler at its
    (congestion- and fault-adjusted) arrival time, or never —
    request/response semantics live one layer up, in
    :mod:`repro.net.rpc`, whose endpoints are what attach here.
    """

    def __init__(self, sim: Simulator, config: Optional[NetConfig] = None):
        self.sim = sim
        self.config = config or NetConfig()
        self.nics: Dict[str, Nic] = {}
        #: name -> the attached :class:`~repro.net.rpc.RpcEndpoint`
        self.endpoints: Dict[str, Any] = {}
        self._down: Dict[str, float] = {}  # endpoint -> kill time
        self.link_stats: Dict[Tuple[str, str], LinkStats] = {}
        #: src -> dst -> Link, opened on the pair's first message
        self._links: Dict[str, Dict[str, Link]] = {}
        self.injector = (
            NetFaultInjector(self.config.fault_plan)
            if self.config.fault_plan is not None
            else None
        )

    # -- membership --------------------------------------------------------

    def attach(self, name: str, endpoint: Any) -> Nic:
        """Register an :class:`~repro.net.rpc.RpcEndpoint` under ``name``
        and give it its NIC."""
        if name in self.nics:
            raise ValueError(f"endpoint {name!r} already attached")
        nic = Nic(name, self.config.nic_bandwidth)
        nic.down = name in self._down
        self.nics[name] = nic
        self.endpoints[name] = endpoint
        self._links[name] = {}
        return nic

    def set_down(self, name: str) -> None:
        """Kill an endpoint: it no longer sends or receives anything."""
        self._down.setdefault(name, self.sim.now)
        nic = self.nics.get(name)
        if nic is not None:
            nic.down = True

    # -- transport ---------------------------------------------------------

    def link(self, src: str, dst: str) -> Link:
        """The link from attached ``src`` to ``dst``, opened on first use
        (a dead source's is a throwaway that adds no counters)."""
        link = self._links[src].get(dst)
        if link is None:
            link = Link(self, src, dst)
            if src not in self._down:
                self._links[src][dst] = link
                self.link_stats[(src, dst)] = link.stats
        return link

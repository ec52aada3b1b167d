"""Primary-backup replication over the RPC layer.

Each storage node runs a :class:`KvService`: the RPC face of its
:class:`~repro.node.server.StorageNode`.  Partition primaries serve
client ``kv.*`` calls; writes are acknowledged only once the record is
durable on a **write quorum** of replicas — the primary's own WAL group
commit (the :meth:`~repro.engine.wal.Wal.subscribe` commit point, which
is exactly when ``StorageNode.put`` returns) plus ``repl.apply``
acknowledgements from backups, each of which itself means "my WAL group
commit for this record landed".

Replication is sequenced per (tenant, partition): the primary stamps
every shipped record with a monotonically increasing sequence number,
and backups apply strictly in sequence order, buffering records that
arrive early (MSG_DELAY and MSG_DUP windows, plus RPC retries, can
reorder the stream).  An acknowledged ``repl.apply`` for sequence *n*
therefore guarantees the backup durably holds the entire prefix up to
*n* — the property failover leans on: promoting the live replica with
the highest applied sequence can never lose an acknowledged write while
at most ``rf - write_quorum`` replicas are down.

Duplicates are harmless end to end: re-applied sequence numbers are
acknowledged without re-running the write, and the KV store itself is
last-writer-wins per key.

**Leaderless mode** (``NetConfig(replication_mode="leaderless")``)
replaces the primary's sequenced stream with Dynamo-style coordination:
*any* home replica coordinates a write (``lkv.put``), stamps it with a
vector clock (see :mod:`repro.net.versioning`), applies it locally
through the full charged engine path, and ships the versioned record to
the other home replicas.  Unreachable homes are covered by **hinted
handoff**: the record spills to the next reachable ring successor, which
stores it durably (a real engine write, charged to the owning tenant)
plus a hint naming the intended owner, and hands it off once the owner
is reachable again.  Hinted acks count toward the **sloppy write
quorum**, so W ≥ 2 writes keep committing through a partition without
losing the "on ≥ W durable replicas" guarantee.  Quorum reads
(``lkv.get``) collect versioned replies from R home replicas, surface
concurrent siblings, resolve by the explicit last-writer-wins tiebreak,
and push **read repair** to any replica that answered stale — repair
traffic runs the same engine path, so it is charged as VOPs to the
owning tenant, visible to Libra's demand estimates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..faults import NodeUnreachable, QuorumError, RetriesExhausted, StorageFault
from ..node.router import PartitionMap
from ..node.server import StorageNode
from ..sim import Simulator
from .fabric import NetConfig, NetworkFabric
from .rpc import ACK_BYTES, RpcEndpoint
from .versioning import Version, VersionStore, reconcile

__all__ = ["Membership", "KvService"]

#: wire bytes for a replication record beyond its payload (seq, ids)
REPL_HEADER_BYTES = 64
#: wire bytes of a versioned-record envelope (clock entries, stamp)
VERSION_HEADER_BYTES = 96


class Membership:
    """The cluster's shared view of which nodes are alive.

    In the simulation every service reads one membership object — the
    abstraction of a converged gossip/ZooKeeper view.  The failure
    detector is the only writer; everyone else asks :meth:`is_live`
    before spending an RPC budget on a dead peer.
    """

    def __init__(self, names):
        self._live: Set[str] = set(names)
        self._dead: List[str] = []
        #: dead→live transitions (leaderless recovery; see the detector)
        self.revivals = 0

    def is_live(self, name: str) -> bool:
        return name in self._live

    def mark_dead(self, name: str) -> None:
        if name in self._live:
            self._live.discard(name)
            self._dead.append(name)

    def mark_live(self, name: str) -> None:
        """Revive a suspected-dead node (leaderless mode: a partitioned
        node whose heartbeats resume after the heal is *recovered*, the
        signal hinted handoff waits for — unlike primary-backup, where
        a declared death is final)."""
        if name in self._dead:
            self._dead.remove(name)
            self._live.add(name)
            self.revivals += 1

    def live(self) -> List[str]:
        return sorted(self._live)

    def dead(self) -> List[str]:
        return list(self._dead)

    def add(self, name: str) -> None:
        """Admit a freshly provisioned node (control-plane node add)."""
        self._live.add(name)

    def remove(self, name: str) -> None:
        """Retire a drained node: gone from the view without being
        declared dead, so no failover machinery runs for it."""
        self._live.discard(name)
        if name in self._dead:
            self._dead.remove(name)


class _Migration:
    """Outbound migration state on a source primary (one key range).

    Created by :meth:`KvService.migration_begin`; the reshard
    coordinator drives the snapshot/catch-up/cutover sequence around
    it.  ``tail`` collects writes to the migrating range that commit
    after the snapshot scan started — the WAL tail the catch-up rounds
    replay.  ``fenced`` rejects new writes during the final drain;
    the fence waits on the service's per-partition in-flight counter
    so every admitted write commits (and lands in the tail) first.
    """

    __slots__ = ("lo", "hi", "tail", "fenced")

    def __init__(self, lo: Optional[int], hi: Optional[int]):
        self.lo = lo
        self.hi = hi
        self.tail: List[Tuple[int, int, str]] = []  # (key, size, op)
        self.fenced = False

    def covers(self, key: int) -> bool:
        return self.lo is None or (self.lo <= key < self.hi)


class _Quorum:
    """One replicated write's shipments: their ack count behind the
    write's quorum event.  Called as each shipment's ``done``."""

    __slots__ = ("event", "need", "total", "acks", "done", "settled", "payload",
                 "nbytes", "trace", "owner")

    def __init__(self, event, need: int, total: int, payload: dict, nbytes: int,
                 trace, owner: str):
        self.event = event
        self.need = need
        self.total = total
        self.acks = 0
        self.done = 0
        self.settled = False
        self.payload = payload
        self.nbytes = nbytes
        self.trace = trace
        self.owner = owner

    def __call__(self, ok: bool, _value) -> None:
        if ok:
            self.acks += 1
        self.done += 1
        if self.settled:
            return
        if self.acks >= self.need:
            self.settled = True
            self.event.succeed()
        elif self.done == self.total:
            self.settled = True
            payload = self.payload
            self.event.fail(
                QuorumError(
                    f"{self.owner}: {payload['tenant']}/{payload['pid']} seq "
                    f"{payload['seq']}: {self.acks}/{self.need} replica acks"
                )
            )


class KvService:
    """One node's RPC face: client KV methods plus the replication feed.

    Methods (all payloads are plain dicts):

    - ``kv.get {tenant, key}`` → ``{size}`` — served from the local
      engine; any replica can answer (its applied prefix), the primary
      is authoritative.
    - ``kv.put {tenant, key, size}`` / ``kv.delete {tenant, key}`` —
      primary only: local durable write, then quorum replication.
    - ``repl.apply {tenant, pid, seq, key, size, op}`` → ``{seq}`` —
      backup applies the record in sequence order through the full
      engine path (WAL, memtable, FLUSH/COMPACT), so replicated writes
      consume VOPs on every replica and Libra's per-node demand
      estimates see the backup load.
    - ``repl.seq {tenant, pid}`` → ``{seq}`` — the applied sequence,
      queried by the failure detector when choosing a promotion target.
    """

    def __init__(
        self,
        sim: Simulator,
        node: StorageNode,
        fabric: NetworkFabric,
        partition_map: PartitionMap,
        membership: Membership,
        config: Optional[NetConfig] = None,
    ):
        self.sim = sim
        self.node = node
        self.partition_map = partition_map
        self.membership = membership
        self.config = config or fabric.config
        self._write_quorum = self.config.effective_write_quorum
        self.rpc = RpcEndpoint(
            sim, fabric, node.name, config=self.config, tracer=node.tracer
        )
        self.rpc.register("kv.get", self._handle_get)
        self.rpc.register("kv.put", self._handle_put)
        self.rpc.register("kv.delete", self._handle_delete)
        self.rpc.register_async("repl.apply", self._handle_apply)
        self.rpc.register("repl.seq", self._handle_seq)
        self.rpc.register("mig.apply", self._handle_mig_apply)
        # -- live migration (control plane; see repro.control.reshard) -----
        #: outbound migrations on this primary: (tenant, pid) -> state
        self.migrations: Dict[Tuple[str, int], _Migration] = {}
        #: writes in flight per (tenant, pid) — counted whether or not a
        #: migration is active, so a migration that *begins* mid-write
        #: can still fence against (and tail-capture) that write
        self._op_inflight: Dict[Tuple[str, int], int] = {}
        self._op_idle: Dict[Tuple[str, int], object] = {}
        self.fence_rejects = 0
        self.mig_records_out = 0
        self.mig_bytes_out = 0
        self.mig_records_in = 0
        # -- leaderless mode (vector clocks + sloppy quorums) --------------
        #: per-key surviving version sets (leaderless mode only)
        self.versions = VersionStore(node.name)
        #: pending hinted records: (target, tenant, key) -> Version
        self.hints: Dict[Tuple[str, str, int], Version] = {}
        self.hints_stored = 0
        self.hints_delivered = 0
        #: writes whose record spilled to at least one hint holder
        self.hinted_writes = 0
        self.read_repairs_sent = 0
        self.repairs_received = 0
        self.handoffs_received = 0
        self.ae_received = 0
        #: quorum reads that surfaced >1 concurrent sibling
        self.sibling_reads = 0
        self._lseq = 0
        self._handoff_stopped = False
        if self.config.leaderless:
            self.rpc.register("lkv.put", self._handle_lput)
            self.rpc.register("lkv.get", self._handle_lget)
            self.rpc.register("repl.store", self._handle_store)
            self.rpc.register("repl.read", self._handle_read)
            self.rpc.register("hint.store", self._handle_hint)
            sim.process(self._handoff_loop(), name=f"handoff.{node.name}")
        #: highest sequence shipped per (tenant, pid) while primary
        self._ship_seq: Dict[Tuple[str, int], int] = {}
        #: highest sequence applied in order per (tenant, pid) as backup
        self._applied: Dict[Tuple[str, int], int] = {}
        #: out-of-order arrivals waiting for their predecessors:
        #: (tenant, pid) -> {seq: (key, size, op, trace, request, slot,
        #: received at)}
        self._pending: Dict[Tuple[str, int], Dict[int, tuple]] = {}
        self._draining: Set[Tuple[str, int]] = set()
        #: durable WAL records per tenant on this node (primary writes,
        #: backup applies, and engine-internal record commits alike) —
        #: fed by the WAL commit hook, used to report replication write
        #: amplification (cluster-wide durable records vs acked writes)
        self.durable_records: Dict[str, int] = {}
        #: writes this node acked as primary that reached their quorum
        self.quorum_acks = 0
        #: writes that failed to assemble a quorum (surfaced to client)
        self.quorum_failures = 0

    # -- wiring ------------------------------------------------------------

    def watch_tenant(self, tenant: str) -> None:
        """Subscribe the durable-record counter to the tenant's WAL.

        Registered through :meth:`LsmEngine.subscribe_wal` so the hook
        survives WAL rotation at memtable flushes.
        """
        self.durable_records.setdefault(tenant, 0)

        def on_commit(records, tenant=tenant):
            self.durable_records[tenant] += len(records)

        self.node.engines[tenant].subscribe_wal(on_commit)

    # -- role helpers ------------------------------------------------------

    def applied_seq(self, tenant: str, pid: int) -> int:
        """The contiguous applied prefix this node holds for a partition."""
        slot = (tenant, pid)
        return max(self._applied.get(slot, 0), self._ship_seq.get(slot, 0))

    def _next_seq(self, slot: Tuple[str, int]) -> int:
        # A freshly promoted primary continues the stream where its
        # applied prefix ends; an original primary continues its own.
        seq = max(self._ship_seq.get(slot, 0), self._applied.get(slot, 0)) + 1
        self._ship_seq[slot] = seq
        return seq

    # -- client-facing handlers (run on the partition primary) -------------

    def _handle_get(self, payload):
        tenant, key = payload["tenant"], payload["key"]
        size = yield from self.node.get(tenant, key, trace=payload.get("trace"))
        return {"size": size}, (size or ACK_BYTES)

    def _handle_put(self, payload):
        tenant, key, size = payload["tenant"], payload["key"], payload["size"]
        trace = payload.get("trace")
        partition = self._own_partition(tenant, key)
        slot = self._fence_check(partition, key)
        self._op_inflight[slot] = self._op_inflight.get(slot, 0) + 1
        try:
            # Local durable write first: when this returns, the record's
            # WAL group commit has landed — the commit hook has run and
            # the record is eligible for acknowledgement and shipping.
            yield from self.node.put(tenant, key, size, trace=trace)
            # Re-fetch: a migration that began while this write was in
            # the engine must still capture it — the snapshot scan may
            # have already passed this key's position.
            mig = self.migrations.get(slot)
            if mig is not None and mig.covers(key):
                mig.tail.append((key, size, "put"))
            yield from self._replicate(partition, key, size, "put", trace)
        finally:
            self._op_done(slot)
        return {"ok": True}, ACK_BYTES

    def _handle_delete(self, payload):
        tenant, key = payload["tenant"], payload["key"]
        trace = payload.get("trace")
        partition = self._own_partition(tenant, key)
        slot = self._fence_check(partition, key)
        self._op_inflight[slot] = self._op_inflight.get(slot, 0) + 1
        try:
            yield from self.node.delete(tenant, key, trace=trace)
            mig = self.migrations.get(slot)
            if mig is not None and mig.covers(key):
                mig.tail.append((key, 0, "delete"))
            yield from self._replicate(partition, key, 0, "delete", trace)
        finally:
            self._op_done(slot)
        return {"ok": True}, ACK_BYTES

    def _own_partition(self, tenant: str, key: int):
        """The key's partition, insisting this node is its primary.

        A write that reaches a demoted or never-primary replica (a
        client raced a map change) is rejected; the error travels back
        and the client re-resolves against the bumped map version.
        """
        partition = self.partition_map.partition_of(tenant, key)
        if partition.node != self.node.name:
            raise KeyError(
                f"{self.node.name} is not primary for {tenant}/{partition.index} "
                f"(owner: {partition.node})"
            )
        return partition

    def _replicate(self, partition, key: int, size: int, op: str, trace=None):
        """Ship the just-committed record; wait for the write quorum.

        The quorum requirement is clamped to the replicas that are
        actually live, so a failed-over partition (one dead replica)
        keeps accepting writes at reduced redundancy instead of
        stalling forever — the availability/durability trade the paper's
        setting (in-rack primary-backup) takes.

        The record ships to every live backup regardless of the quorum
        setting; ``write_quorum`` only controls how many acks gate the
        client's acknowledgement.  W = 1 is therefore *asynchronous*
        replication (ack on local commit, shipping races the failure),
        not no replication.

        Each shipment is a :meth:`_ship` scheduled for now, in the heap
        slot a shipping process's start would take, and relays its
        reply through :meth:`RpcEndpoint.call_async` — no process or
        generator per shipment.
        """
        is_live = self.membership.is_live
        backups = []
        for name in partition.replicas[1:]:
            if is_live(name):
                backups.append(name)
        need = min(self._write_quorum, 1 + len(backups)) - 1
        if not backups:
            self.quorum_acks += 1
            return
        seq = self._next_seq((partition.tenant, partition.index))
        payload = {
            "tenant": partition.tenant,
            "pid": partition.index,
            "seq": seq,
            "key": key,
            "size": size,
            "op": op,
        }
        if trace is not None:
            payload["trace"] = trace
        quorum = _Quorum(
            self.sim.event(), need, len(backups), payload, size + REPL_HEADER_BYTES,
            trace, self.node.name,
        )
        sim = self.sim
        for name in backups:
            sim.call_at(sim.now, self._ship, (name, quorum))
        if need <= 0:
            # Asynchronous replication: the shipments run on, but the
            # local durable commit alone earns the ack.
            self.quorum_acks += 1
            return
        try:
            yield quorum.event
        except QuorumError:
            self.quorum_failures += 1
            raise
        self.quorum_acks += 1

    def _ship(self, shipment) -> None:
        target, quorum = shipment
        self.rpc.call_async(
            target, "repl.apply", quorum.payload, quorum.nbytes, quorum, quorum.trace
        )

    # -- replication-feed handlers (run on backups) ------------------------

    def _handle_apply(self, request) -> None:
        """``repl.apply``: answered once the record and its whole prefix
        are durable here (by :meth:`_drain`), duplicates at once."""
        payload = request.payload
        slot = (payload["tenant"], payload["pid"])
        seq = payload["seq"]
        applied = self._applied.setdefault(slot, 0)
        now = self.sim.now
        if seq <= applied:
            # Duplicate (MSG_DUP or a retry whose original landed):
            # already durable, acknowledge without re-applying.
            self.rpc.reply(request, {"seq": applied}, ACK_BYTES, now)
            return
        self._pending.setdefault(slot, {})[seq] = (
            payload["key"], payload["size"], payload["op"], payload.get("trace"),
            request, slot, now,
        )
        if slot not in self._draining:
            self._draining.add(slot)
            self.sim.process(self._drain(slot), name="repl.drain")

    def _drain(self, slot: Tuple[str, int]):
        """Apply buffered records in sequence order, acking each.

        An ack (or nack) is scheduled for now — where a waiter's wake-up
        would queue — and reads the applied prefix when it fires.
        """
        tenant, _pid = slot
        pending = self._pending.setdefault(slot, {})
        sim = self.sim
        try:
            while True:
                entry = pending.pop(self._applied[slot] + 1, None)
                if entry is None:
                    return
                key, size, op, trace, request, _slot, _received = entry
                try:
                    yield from self.node.apply_replica(
                        tenant, key, size or 1024, op=op, trace=trace
                    )
                except StorageFault as exc:
                    # The apply did not land (engine retries exhausted);
                    # nack so the primary re-ships, and stop draining —
                    # order must hold.
                    sim.call_at(sim.now, self._nack_apply, (request, exc))
                    return
                self._applied[slot] += 1
                sim.call_at(sim.now, self._ack_apply, entry)
        finally:
            self._draining.discard(slot)

    def _ack_apply(self, entry) -> None:
        _key, _size, _op, _trace, request, slot, received = entry
        self.rpc.reply(request, {"seq": self._applied[slot]}, ACK_BYTES, received)

    def _nack_apply(self, failed) -> None:
        self.rpc.reply_error(*failed)

    def _handle_seq(self, payload):
        applied = self.applied_seq(payload["tenant"], payload["pid"])
        return {"seq": applied}, ACK_BYTES
        yield  # pragma: no cover - marks this handler as a generator

    # -- live migration (source primary + destination sides) ----------------
    #
    # The reshard coordinator (repro.control.reshard) drives these as a
    # catch-up-then-cutover sequence: snapshot scan (charged range read
    # here), batched ship to the joining replicas (wire bytes on the
    # fabric, charged replica applies there), WAL-tail replay rounds,
    # then a fence + final drain so every acknowledged write is on the
    # destination before the atomic map bump hands ownership over.

    def _fence_check(self, partition, key: int) -> Tuple[str, int]:
        """Admission check for a write; returns the in-flight slot key.

        A write into a fenced migrating range is rejected — the error
        travels back as an RpcError and the client's retry loop
        re-resolves once the cutover bumps the map version.
        """
        slot = (partition.tenant, partition.index)
        mig = self.migrations.get(slot)
        if mig is not None and mig.fenced and mig.covers(key):
            self.fence_rejects += 1
            raise KeyError(
                f"{partition.tenant}/{partition.index} is fenced for cutover "
                f"on {self.node.name}"
            )
        return slot

    def _op_done(self, slot: Tuple[str, int]) -> None:
        remaining = self._op_inflight.get(slot, 0) - 1
        if remaining <= 0:
            self._op_inflight.pop(slot, None)
            waiter = self._op_idle.pop(slot, None)
            if waiter is not None and not waiter.triggered:
                waiter.succeed()
        else:
            self._op_inflight[slot] = remaining

    def migration_begin(
        self, tenant: str, pid: int, lo: Optional[int], hi: Optional[int]
    ) -> None:
        """Start tailing acked writes to ``[lo, hi)`` of a partition."""
        slot = (tenant, pid)
        if slot in self.migrations:
            raise RuntimeError(f"{tenant}/{pid} already migrating on {self.node.name}")
        self.migrations[slot] = _Migration(lo, hi)

    def migration_take_tail(self, tenant: str, pid: int) -> List[Tuple[int, int, str]]:
        """Drain the accumulated WAL tail for one catch-up round."""
        mig = self.migrations[(tenant, pid)]
        tail, mig.tail = mig.tail, []
        return tail

    def migration_fence(self, tenant: str, pid: int):
        """DES generator: stop admitting writes to the migrating range,
        wait for in-flight ones to commit, and return the final tail.

        The wait covers *every* write in flight on the partition —
        including ones admitted before :meth:`migration_begin` ran —
        so nothing can commit (and tail-append) after the final drain.
        """
        slot = (tenant, pid)
        mig = self.migrations[slot]
        mig.fenced = True
        while self._op_inflight.get(slot, 0) > 0:
            waiter = self._op_idle.get(slot)
            if waiter is None or waiter.triggered:
                waiter = self.sim.event()
                self._op_idle[slot] = waiter
            yield waiter
        tail, mig.tail = mig.tail, []
        return tail

    def migration_end(self, tenant: str, pid: int) -> None:
        """Drop migration state after cutover (or on abort)."""
        self.migrations.pop((tenant, pid), None)

    def migration_snapshot(self, tenant: str, lo: int, hi: int):
        """DES generator: charged range read of ``[lo, hi)`` from the
        local engine — the snapshot the coordinator ships."""
        results = yield from self.node.scan(tenant, lo, hi - 1)
        return [(key, size, "put") for key, size in results]

    def migration_ship(
        self,
        targets: Sequence[str],
        tenant: str,
        records: Sequence[Tuple[int, int, str]],
        batch: int = 32,
    ):
        """DES generator: ship records to each joining replica in order.

        Batched ``mig.apply`` calls pay real wire bytes here and real
        charged engine applies on the destination, so migration traffic
        is priced in VOPs on both ends and reconciles in the audit.
        """
        if not records:
            return
        for start in range(0, len(records), batch):
            chunk = list(records[start:start + batch])
            nbytes = sum(size for _k, size, _op in chunk) + REPL_HEADER_BYTES
            for target in targets:
                yield from self.rpc.call(
                    target,
                    "mig.apply",
                    {"tenant": tenant, "records": chunk},
                    nbytes,
                    give_up=lambda t=target: not self.membership.is_live(t),
                )
                self.mig_records_out += len(chunk)
                self.mig_bytes_out += nbytes

    def reset_stream(self, tenant: str, pid: int, seq: int) -> None:
        """Align this replica's sequence state at cutover.

        The coordinator declares the acked prefix to be ``seq`` on every
        member of the new replica set (control metadata riding the map
        bump): the new primary continues shipping from there, and
        surviving old backups won't mistake the new stream for stale
        duplicates or buffer forever behind sequences that already
        landed via the migration ship.
        """
        slot = (tenant, pid)
        self._applied[slot] = seq
        self._ship_seq[slot] = seq
        self._pending.pop(slot, None)

    def _handle_mig_apply(self, payload):
        """Destination side: durably apply a batch of shipped records
        through the full charged replica path, in order."""
        tenant = payload["tenant"]
        for key, size, op in payload["records"]:
            yield from self.node.apply_replica(tenant, key, size or 1024, op=op)
            self.mig_records_in += 1
        return {"n": len(payload["records"])}, ACK_BYTES

    # -- leaderless mode (vector clocks + sloppy quorums) -------------------

    def stop(self) -> None:
        """Stop background loops (the hinted-handoff scanner)."""
        self._handoff_stopped = True

    def apply_version(self, tenant: str, key: int, version: Version, trace=None):
        """DES generator: durably apply one versioned record locally.

        The value bytes go through the full engine replica path (WAL,
        memtable, flush/compaction — charged as VOPs to the owning
        tenant); the clock folds into the version store.  A record the
        local store already dominates is acknowledged without engine
        work — it carries no new information.  Returns True when the
        record changed local state.
        """
        for existing in self.versions.get(tenant, key):
            if existing.clock.descends(version.clock):
                self.versions.stale_inserts += 1
                return False
        yield from self.node.apply_replica(
            tenant, key, version.size or 1024, op=version.op, trace=trace
        )
        self.versions.insert(tenant, key, version)
        return True

    def holds_version(self, tenant: str, key: int, version: Version) -> bool:
        """True when this replica durably holds ``version`` (or one that
        causally supersedes it) — the conservation predicate tests walk."""
        return any(
            v.clock.descends(version.clock) for v in self.versions.get(tenant, key)
        )

    def hinted_for(self, target: str, tenant: str, key: int, version: Version) -> bool:
        """True when this node queues a hint covering ``version`` for
        ``target`` — the other half of the conservation predicate."""
        held = self.hints.get((target, tenant, key))
        return held is not None and held.clock.descends(version.clock)

    def _home_partition(self, tenant: str, key: int):
        """The key's partition, insisting this node is a home replica.

        Any home replica may coordinate in leaderless mode; a request
        landing elsewhere (stale client ring view) is rejected so the
        client re-resolves.
        """
        partition = self.partition_map.partition_of(tenant, key)
        if self.node.name not in partition.replicas:
            raise KeyError(
                f"{self.node.name} is not a replica of {tenant}/{partition.index} "
                f"({partition.replicas})"
            )
        return partition

    def _handle_lput(self, payload):
        """Coordinate a leaderless write: version, apply locally, ship.

        The coordinator's own durable commit is the first ack; the rest
        of the **sloppy** write quorum comes from home replicas or — for
        unreachable homes — hint holders, each ack meaning "this record
        is durable somewhere and will reach its owner".
        """
        tenant, key = payload["tenant"], payload["key"]
        size = payload.get("size", 0)
        op = payload.get("op", "put")
        trace = payload.get("trace")
        partition = self._home_partition(tenant, key)
        self._lseq += 1
        version = Version(
            clock=self.versions.next_clock(tenant, key),
            size=size,
            op=op,
            stamp=(self.sim.now, self.node.name, self._lseq),
        )
        # Local durable write first, through the app-level path: the
        # write is counted once, on its coordinator.
        if op == "delete":
            yield from self.node.delete(tenant, key, trace=trace)
        else:
            yield from self.node.put(tenant, key, size, trace=trace)
        self.versions.insert(tenant, key, version)
        peers = [name for name in partition.replicas if name != self.node.name]
        need = min(self.config.effective_write_quorum, len(partition.replicas)) - 1
        quorum = self.sim.event()
        state = {"acks": 0, "done": 0}
        for name in peers:
            self.sim.process(
                self._ship_versioned(
                    partition, name, key, version, state, need, len(peers),
                    quorum, trace,
                ),
                name=f"lrepl.{self.node.name}->{name}",
            )
        if need > 0 and peers:
            try:
                yield quorum
            except QuorumError:
                self.quorum_failures += 1
                raise
        self.quorum_acks += 1
        return {"ok": True, "version": version.wire()}, ACK_BYTES

    def _ship_versioned(
        self, partition, target, key, version, state, need, total, quorum, trace=None
    ):
        """Ship one versioned record to a home replica, spilling to a
        hint holder when the home is dead or unreachable."""
        tenant = partition.tenant
        nbytes = version.size + VERSION_HEADER_BYTES
        payload = {
            "tenant": tenant, "key": key, "version": version.wire(),
            "reason": "write",
        }
        if trace is not None:
            payload["trace"] = trace
        # The direct ship is always attempted, even at a suspected-dead
        # target: a *partitioned* home is dead to the majority-side
        # detector yet perfectly reachable from a same-side coordinator,
        # and ``give_up`` bounds the truly-dead case to one attempt.
        ok = False
        try:
            yield from self.rpc.call(
                target, "repl.store", payload, nbytes, trace=trace,
                give_up=lambda: not self.membership.is_live(target),
            )
            ok = True
        except (RetriesExhausted, StorageFault):
            ok = False
        if not ok:
            ok = yield from self._hint_spill(
                partition, target, key, version, nbytes, trace
            )
            if ok:
                self.hinted_writes += 1
        state["acks"] += 1 if ok else 0
        state["done"] += 1
        if quorum.triggered:
            return
        if state["acks"] >= need:
            quorum.succeed()
        elif state["done"] == total:
            quorum.fail(
                QuorumError(
                    f"{self.node.name}: {tenant} key {key}: sloppy quorum "
                    f"{state['acks']}/{need} acks"
                )
            )

    def _hint_spill(self, partition, target, key, version, nbytes, trace=None):
        """Walk the ring successors until one durably takes the record
        plus a hint naming ``target``.  True on success."""
        tenant = partition.tenant
        payload = {
            "tenant": tenant, "key": key, "version": version.wire(),
            "target": target,
        }
        if trace is not None:
            payload["trace"] = trace
        candidates = self.partition_map.hint_candidates(tenant, partition.index)
        # Live-flagged holders first, then suspected-dead ones: a
        # partitioned holder on the coordinator's own side is marked
        # dead by the far side's detector but still takes the hint, and
        # ``give_up`` caps a truly-dead holder at one attempt.
        ordered = [
            h for h in candidates if self.membership.is_live(h)
        ] + [
            h for h in candidates if not self.membership.is_live(h)
        ]
        for holder in ordered:
            if holder == self.node.name:
                continue
            try:
                yield from self.rpc.call(
                    holder, "hint.store", payload, nbytes, trace=trace,
                    give_up=lambda h=holder: not self.membership.is_live(h),
                )
                return True
            except (RetriesExhausted, StorageFault):
                continue
        return False

    def _handle_lget(self, payload):
        """Coordinate a leaderless quorum read with read repair.

        Collects versioned replies from R home replicas (the local one
        free), reconciles, answers with the winner, and pushes repair
        records — full charged engine writes — to every replica whose
        reply missed a surviving version.
        """
        tenant, key = payload["tenant"], payload["key"]
        trace = payload.get("trace")
        partition = self._home_partition(tenant, key)
        need = min(self.config.effective_read_quorum, len(partition.replicas)) - 1
        local_size = yield from self.node.get(tenant, key, trace=trace)
        replies = {self.node.name: (local_size, list(self.versions.get(tenant, key)))}
        peers = [name for name in partition.replicas if name != self.node.name]
        if need > 0 and peers:
            quorum = self.sim.event()
            state = {"done": 0}
            for name in peers:
                self.sim.process(
                    self._read_one_replica(
                        name, tenant, key, replies, state, need, len(peers),
                        quorum, trace,
                    ),
                    name=f"lread.{self.node.name}->{name}",
                )
            yield quorum  # raises NodeUnreachable when < R replicas answer
        versions = [v for _size, held in replies.values() for v in held]
        winner, survivors = reconcile(versions)
        if winner is None:
            # No versioned history anywhere (pre-seeded or never written
            # through the leaderless path): the local engine answers.
            return {"size": local_size, "siblings": 0}, (local_size or ACK_BYTES)
        if len(survivors) > 1:
            self.sibling_reads += 1
        for name in sorted(replies):
            _size, held = replies[name]
            for version in survivors:
                if any(v.clock.descends(version.clock) for v in held):
                    continue
                if name == self.node.name:
                    self.sim.process(
                        self.apply_version(tenant, key, version, trace),
                        name=f"lrepair.local.{self.node.name}",
                    )
                else:
                    self.read_repairs_sent += 1
                    self.sim.process(
                        self._push_store(
                            name, tenant, key, version, "repair", trace
                        ),
                        name=f"lrepair.{self.node.name}->{name}",
                    )
        size = None if winner.tombstone else winner.size
        return {"size": size, "siblings": len(survivors)}, (size or ACK_BYTES)

    def _read_one_replica(
        self, target, tenant, key, replies, state, need, total, quorum, trace=None
    ):
        payload = {"tenant": tenant, "key": key}
        if trace is not None:
            payload["trace"] = trace
        try:
            reply = yield from self.rpc.call(
                target, "repl.read", payload, ACK_BYTES, trace=trace,
                give_up=lambda: not self.membership.is_live(target),
            )
            replies[target] = (
                reply["size"],
                [Version.from_wire(w) for w in reply["versions"]],
            )
        except (RetriesExhausted, StorageFault):
            pass
        state["done"] += 1
        if quorum.triggered:
            return
        if len(replies) - 1 >= need:  # -1: the coordinator's local reply
            quorum.succeed()
        elif state["done"] == total:
            quorum.fail(
                NodeUnreachable(
                    f"{self.node.name}: {tenant} key {key}: read quorum "
                    f"{len(replies) - 1}/{need} replica answers"
                )
            )

    def _push_store(self, target, tenant, key, version, reason, trace=None):
        """Background best-effort versioned push (read repair, handoff
        retries ride :meth:`_handoff_loop` instead)."""
        payload = {
            "tenant": tenant, "key": key, "version": version.wire(),
            "reason": reason,
        }
        if trace is not None:
            payload["trace"] = trace
        try:
            yield from self.rpc.call(
                target, "repl.store", payload,
                version.size + VERSION_HEADER_BYTES, trace=trace,
                give_up=lambda: not self.membership.is_live(target),
            )
        except (RetriesExhausted, StorageFault):
            pass  # anti-entropy converges what repair could not

    # -- leaderless replica-side handlers ----------------------------------

    def _handle_store(self, payload):
        """Durably apply a versioned record (write / repair / handoff /
        anti-entropy — ``reason`` keys the counters)."""
        tenant, key = payload["tenant"], payload["key"]
        version = Version.from_wire(payload["version"])
        reason = payload.get("reason", "write")
        applied = yield from self.apply_version(
            tenant, key, version, payload.get("trace")
        )
        if applied:
            if reason == "repair":
                self.repairs_received += 1
            elif reason == "handoff":
                self.handoffs_received += 1
            elif reason == "ae":
                self.ae_received += 1
        return {"ok": True, "applied": applied}, ACK_BYTES

    def _handle_read(self, payload):
        """Replica-local read for another coordinator's quorum: engine
        GET through the charged path plus the local version set."""
        tenant, key = payload["tenant"], payload["key"]
        size = yield from self.node.read_replica(
            tenant, key, trace=payload.get("trace")
        )
        held = [v.wire() for v in self.versions.get(tenant, key)]
        return {"size": size, "versions": held}, (size or ACK_BYTES)

    def _handle_hint(self, payload):
        """Take custody of a record whose home replica is unreachable.

        The record is durably applied *here* (a real engine write,
        charged to the owning tenant) and a hint naming the intended
        owner is queued; :meth:`_handoff_loop` delivers it once the
        owner is live again.
        """
        tenant, key = payload["tenant"], payload["key"]
        target = payload["target"]
        version = Version.from_wire(payload["version"])
        yield from self.apply_version(tenant, key, version, payload.get("trace"))
        slot = (target, tenant, key)
        held = self.hints.get(slot)
        if held is None or version.clock.descends(held.clock):
            self.hints[slot] = version
            self.hints_stored += 1
        return {"ok": True}, ACK_BYTES

    def _handoff_loop(self):
        """Periodically deliver queued hints to owners that came back.

        Delivery is a normal ``repl.store`` (reason ``handoff``): the
        owner pays the full engine write, so recovered-replica catch-up
        shows up in its VOP demand like any other write.
        """
        interval = self.config.hint_interval
        while not self._handoff_stopped:
            yield self.sim.timeout(interval)
            for slot in sorted(self.hints):
                target, tenant, key = slot
                version = self.hints.get(slot)
                if version is None or not self.membership.is_live(target):
                    continue
                payload = {
                    "tenant": tenant, "key": key, "version": version.wire(),
                    "reason": "handoff",
                }
                try:
                    yield from self.rpc.call(
                        target, "repl.store", payload,
                        version.size + VERSION_HEADER_BYTES,
                        give_up=lambda t=target: not self.membership.is_live(t),
                    )
                except (RetriesExhausted, StorageFault):
                    continue  # still unreachable: keep the hint
                if self.hints.get(slot) is version:
                    del self.hints[slot]
                self.hints_delivered += 1

"""Primary-backup replication over the RPC layer.

Partition primaries serve client ``kv.*`` calls; writes are
acknowledged only once the record is durable on a **write quorum** of
replicas — the primary's own WAL group commit (the
:meth:`~repro.engine.wal.Wal.subscribe` commit point, which is exactly
when ``StorageNode.put`` returns) plus ``repl.apply`` acknowledgements
from backups, each of which itself means "my WAL group commit for this
record landed".

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

The live-migration protocol lives here whole: one
:meth:`PrimaryBackupService.transfer` moves a key range off the source
primary (``mig.apply`` lands it on the destination) and runs the
cutover commit :mod:`repro.control.reshard` supplies inside its fence.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Set, Tuple

from ..faults import QuorumError, StorageFault
from .replication import Quorum, ReplicaService
from .rpc import ACK_BYTES

__all__ = ["PrimaryBackupService"]

#: wire bytes for a replication record beyond its payload (seq, ids)
REPL_HEADER_BYTES = 64
#: records per ``mig.apply`` batch
MIG_BATCH_RECORDS = 32
#: catch-up rounds stop once the tail is at most this long; the rest
#: drains inside the fence window
TAIL_THRESHOLD = 8
#: cap on catch-up rounds (a write-hot range could otherwise chase its
#: own tail forever; the fence drain bounds the residue)
MAX_TAIL_ROUNDS = 10


class _Migration:
    """Outbound migration state on a source primary (one key range),
    alive for one :meth:`PrimaryBackupService.transfer`.

    ``tail`` collects writes to the migrating range that commit
    after the snapshot scan started — the WAL tail the catch-up rounds
    replay.  ``fenced`` rejects new writes during the final drain;
    the fence waits on the service's per-partition in-flight counter
    so every admitted write commits (and lands in the tail) first.
    """

    __slots__ = ("lo", "hi", "tail", "fenced")

    def __init__(self, lo: int, hi: int):
        self.lo = lo
        self.hi = hi
        self.tail: List[Tuple[int, int, str]] = []  # (key, size, op)
        self.fenced = False

    def covers(self, key: int) -> bool:
        return self.lo <= key < self.hi


class PrimaryBackupService(ReplicaService):
    """One node's primary-backup face: client KV methods plus the
    replication feed and live migration.

    Methods (all payloads are plain dicts):

    - ``kv.get {tenant, key}`` → ``{size}`` — served from the local
      engine; any replica can answer (its applied prefix), the primary
      is authoritative.
    - ``kv.put`` / ``kv.delete {tenant, key, size, op}`` — primary
      only: local durable write, then quorum replication.
    - ``repl.apply {tenant, pid, seq, key, size, op}`` → ``{seq}`` —
      backup applies the record in sequence order through the full
      engine path (WAL, memtable, FLUSH/COMPACT), so replicated writes
      consume VOPs on every replica and Libra's per-node demand
      estimates see the backup load.
    - ``repl.seq {tenant, pid}`` → ``{seq}`` — the applied sequence,
      queried by the failure detector when choosing a promotion target.
    - ``mig.apply {tenant, records}`` — a migration destination applies
      a shipped batch.

    Live migration is two calls: :meth:`transfer` (the whole protocol,
    on the source primary) and :meth:`reset_stream` (a cutover's
    sequence alignment, on each new replica).
    """

    def __init__(self, sim, node, fabric, partition_map, membership, config=None):
        super().__init__(sim, node, fabric, partition_map, membership, config)
        self._write_quorum = self.config.effective_write_quorum
        rpc = self.rpc
        rpc.register("kv.get", self._handle_get)
        rpc.register("kv.put", self._handle_write)
        rpc.register("kv.delete", self._handle_write)
        rpc.register_async("repl.apply", self._handle_apply)
        rpc.register("repl.seq", self._handle_seq)
        rpc.register("mig.apply", self._handle_mig_apply)
        # -- live migration (see transfer) ---------------------------------
        #: outbound migrations on this primary: (tenant, pid) -> state
        self._migrations: Dict[Tuple[str, int], _Migration] = {}
        #: writes in flight per (tenant, pid) — counted whether or not a
        #: migration is active, so a migration that *begins* mid-write
        #: can still fence against (and tail-capture) that write
        self._op_inflight: Dict[Tuple[str, int], int] = {}
        self._op_idle: Dict[Tuple[str, int], object] = {}
        #: highest sequence shipped per (tenant, pid) while primary
        self._ship_seq: Dict[Tuple[str, int], int] = {}
        #: highest sequence applied in order per (tenant, pid) as backup
        self._applied: Dict[Tuple[str, int], int] = {}
        #: out-of-order arrivals waiting for their predecessors:
        #: (tenant, pid) -> {seq: (key, size, op, trace, request, slot,
        #: received at)}
        self._pending: Dict[Tuple[str, int], Dict[int, tuple]] = {}
        self._draining: Set[Tuple[str, int]] = set()

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

    def _handle_write(self, payload):
        """``kv.put`` / ``kv.delete``: the local durable write, then the
        quorum replication of the record."""
        tenant, key = payload["tenant"], payload["key"]
        size, op = payload["size"], payload["op"]
        trace = payload.get("trace")
        partition = self._own_partition(tenant, key)
        slot = self._fence_check(partition, key)
        self._op_inflight[slot] = self._op_inflight.get(slot, 0) + 1
        try:
            # Local durable write first: when this returns, the record's
            # WAL group commit has landed — the commit hook has run and
            # the record is eligible for acknowledgement and shipping.
            if op == "delete":
                yield from self.node.delete(tenant, key, trace=trace)
            else:
                yield from self.node.put(tenant, key, size, trace=trace)
            # Re-fetch: a migration that began while this write was in
            # the engine must still capture it — the snapshot scan may
            # have already passed this key's position.
            mig = self._migrations.get(slot)
            if mig is not None and mig.covers(key):
                mig.tail.append((key, size, op))
            yield from self._replicate(partition, key, size, op, trace)
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

        Each shipment is a :meth:`_ship` queued for now, where a
        shipping process's start would be queued, and relays its
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
        sim = self.sim
        quorum = Quorum(
            sim, need, len(backups), QuorumError, self.node.name, payload,
            size + REPL_HEADER_BYTES, trace,
        )
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

        An ack (or nack) is queued for now, where a waiter's wake-up
        would be, and reads the applied prefix when it runs.
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

    def _fence_check(self, partition, key: int) -> Tuple[str, int]:
        """Admission check for a write; returns the in-flight slot key.

        A write into a fenced migrating range is rejected — the error
        travels back as an RpcError and the client's retry loop
        re-resolves once the cutover bumps the map version.
        """
        slot = (partition.tenant, partition.index)
        mig = self._migrations.get(slot)
        if mig is not None and mig.fenced and mig.covers(key):
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

    def transfer(
        self, tenant: str, pid: int, lo: int, hi: int, targets: Sequence[str],
        commit: Callable[[], None],
    ):
        """DES generator: move ``[lo, hi)`` of a partition this node leads
        to the joining replicas ``targets``, then run ``commit()``.

        A charged range scan is the snapshot, shipped in batched
        ``mig.apply`` calls (wire bytes here, charged applies on each
        target).  Writes that commit after the scan began collect in a
        WAL tail, replayed in rounds until it is short.  Then the fence
        rejects new writes to the range and waits for *every* write in
        flight on the partition, including ones admitted before the
        transfer began, so nothing can tail-append after the final
        drain.  The final tail ships and ``commit`` (the caller's map
        bump and stream alignment) runs inside the fence.  Returns
        ``(snapshot records, tail rounds, tail records, fence start)``.
        """
        slot = (tenant, pid)
        if slot in self._migrations:
            raise RuntimeError(f"{tenant}/{pid} already migrating on {self.node.name}")
        mig = self._migrations[slot] = _Migration(lo, hi)
        try:
            scanned = yield from self.node.scan(tenant, lo, hi - 1)
            yield from self._ship_records(
                targets, tenant, [(key, size, "put") for key, size in scanned]
            )
            rounds = tailed = 0
            residue = []
            for _round in range(MAX_TAIL_ROUNDS):
                tail, mig.tail = mig.tail, []
                tailed += len(tail)
                if len(tail) <= TAIL_THRESHOLD:
                    residue = tail  # short enough to drain inside the fence
                    break
                rounds += 1
                yield from self._ship_records(targets, tenant, tail)
            fenced_at = self.sim.now
            mig.fenced = True
            while self._op_inflight.get(slot, 0) > 0:
                waiter = self._op_idle.get(slot)
                if waiter is None or waiter.triggered:
                    waiter = self._op_idle[slot] = self.sim.event()
                yield waiter
            tailed += len(mig.tail)
            yield from self._ship_records(targets, tenant, residue + mig.tail)
            commit()
        finally:
            del self._migrations[slot]
        return len(scanned), rounds, tailed, fenced_at

    def _ship_records(
        self, targets: Sequence[str], tenant: str, records: List[Tuple[int, int, str]]
    ):
        """DES generator: ship records to each target in order, in
        batched ``mig.apply`` calls."""
        for start in range(0, len(records), MIG_BATCH_RECORDS):
            chunk = records[start:start + MIG_BATCH_RECORDS]
            nbytes = sum(size for _k, size, _op in chunk) + REPL_HEADER_BYTES
            for target in targets:
                yield from self.rpc.call(
                    target,
                    "mig.apply",
                    {"tenant": tenant, "records": chunk},
                    nbytes,
                    give_up=lambda t=target: not self.membership.is_live(t),
                )

    def reset_stream(self, tenant: str, pid: int, seq: int) -> None:
        """Align this replica's sequence state at cutover.

        A cutover commit declares the acked prefix to be ``seq`` on every
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
        return {"n": len(payload["records"])}, ACK_BYTES

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

from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

from ..faults import QuorumError, StorageFault
from ..sim import Process
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


class _Stream:
    """One partition's replication state on one node: as primary, the
    highest sequence shipped and the writes in flight (counted even with
    no migration active, so one that begins mid-write still fences on
    it) with a fence's waiter (``idle``); as backup, the sequence
    applied in order and the early arrivals (``seq -> (request, stream,
    received at)``) that at most one draining process applies."""

    __slots__ = ("shipped", "inflight", "idle", "applied", "pending", "draining")

    def __init__(self):
        self.shipped = 0
        self.inflight = 0
        self.idle = None
        self.applied = 0
        self.pending: Dict[int, tuple] = {}
        self.draining = False


class PrimaryBackupService(ReplicaService):
    """One node's primary-backup face: client KV methods plus the
    replication feed and live migration.

    Methods (the request's trace id rides on the message):

    - ``kv.get (tenant, key)`` → the size — served from the local
      engine; any replica can answer (its applied prefix), the primary
      is authoritative.
    - ``kv.put`` / ``kv.delete (tenant, key, size, op)`` → True —
      primary only: local durable write, then quorum replication.
    - ``repl.apply ((tenant, pid), seq, key, size, op)`` → the applied
      sequence — backup applies the record in sequence order through
      the full engine path (WAL, memtable, FLUSH/COMPACT), so replicated
      writes consume VOPs on every replica and Libra's per-node demand
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
        #: acks a write needs from its backups
        self._backup_acks = self.config.effective_write_quorum - 1
        rpc = self.rpc
        rpc.register_async("kv.get", self._handle_get)
        rpc.register_async("kv.put", self._handle_write)
        rpc.register_async("kv.delete", self._handle_write)
        rpc.register_async("repl.apply", self._handle_apply)
        rpc.register("repl.seq", self._handle_seq)
        rpc.register("mig.apply", self._handle_mig_apply)
        # -- live migration (see transfer) ---------------------------------
        #: outbound migrations on this primary: (tenant, pid) -> state
        self._migrations: Dict[Tuple[str, int], _Migration] = {}
        #: (tenant, pid) -> its replication state on this node
        self._streams: Dict[Tuple[str, int], _Stream] = defaultdict(_Stream)

    # -- role helpers ------------------------------------------------------

    def applied_seq(self, tenant: str, pid: int) -> int:
        """The contiguous applied prefix this node holds for a partition."""
        stream = self._streams.get((tenant, pid))
        return 0 if stream is None else max(stream.applied, stream.shipped)

    # -- client-facing handlers (run on the partition primary) -------------

    def _handle_get(self, request):
        started = self.sim.now
        try:
            tenant, key = request.payload
            size = yield from self.node.get(tenant, key, request.trace)
        except Exception as exc:  # noqa: BLE001 - travels back to the caller
            self.rpc.reply_error(request, exc)
            return
        self.rpc.reply(request, size, size or ACK_BYTES, started)

    def _handle_write(self, request):
        """``kv.put`` / ``kv.delete``: the local durable write, then the
        quorum replication of the record (:meth:`_replicate`).

        A write that reaches a demoted or never-primary replica (a
        client raced a map change), or a fenced migrating range, is
        rejected; the error travels back and the client re-resolves
        against the bumped map version.
        """
        started = self.sim.now
        node = self.node
        try:
            tenant, key, size, op = request.payload
            partition = self.partition_map.partition_of(tenant, key)
            replicas = partition.replicas
            if replicas[0] != node.name:
                raise KeyError(
                    f"{node.name} is not primary for {tenant}/{partition.index} "
                    f"(owner: {replicas[0]})"
                )
            slot = (tenant, partition.index)
            migrations = self._migrations
            if migrations:
                mig = migrations.get(slot)
                if mig is not None and mig.fenced and mig.covers(key):
                    raise KeyError(
                        f"{tenant}/{partition.index} is fenced for cutover on {node.name}"
                    )
            stream = self._streams[slot]
            stream.inflight += 1
            try:
                # Local durable write first: when this returns, the
                # record's WAL group commit has landed — the commit hook
                # has run and the record is eligible for acknowledgement
                # and shipping.
                if op == "delete":
                    yield from node.delete(tenant, key, request.trace)
                else:
                    yield from node.put(tenant, key, size, request.trace)
                # Re-fetch: a migration that began while this write was
                # in the engine must still capture it — the snapshot scan
                # may have already passed this key's position.
                if migrations:
                    mig = migrations.get(slot)
                    if mig is not None and mig.covers(key):
                        mig.tail.append((key, size, op))
                quorum = self._replicate(replicas, slot, stream, key, size, op, request.trace)
                if quorum is not None:
                    try:
                        yield quorum
                    except QuorumError:
                        self.quorum_failures += 1
                        raise
                self.quorum_acks += 1
            finally:
                stream.inflight -= 1
                if stream.idle is not None:
                    self._op_done(stream)
        except Exception as exc:  # noqa: BLE001 - travels back to the caller
            self.rpc.reply_error(request, exc)
            return
        self.rpc.reply(request, True, ACK_BYTES, started)

    def _replicate(self, replicas, slot, stream: _Stream, key: int, size: int, op: str,
                   trace):
        """Ship the just-committed record to every live backup; returns
        the :class:`Quorum` the write waits for, or None when the local
        commit alone earns the ack.

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

        Shipments relay their replies to the quorum
        (:meth:`RpcEndpoint.fan_out`): no process per shipment.  A
        freshly promoted primary continues the sequence where its
        applied prefix ends; an original primary continues its own.
        """
        backups = list(filter(self.membership.live.__contains__, replicas[1:]))
        if not backups:
            return None
        seq = stream.shipped = max(stream.shipped, stream.applied) + 1
        total = len(backups)
        quorum = Quorum(
            self.sim, min(self._backup_acks, total), total,
            QuorumError, self.node.name, slot[0], key,
        )
        self.rpc.fan_out(
            backups, "repl.apply", (slot, seq, key, size, op),
            size + REPL_HEADER_BYTES, quorum, trace,
        )
        # Asynchronous replication: the shipments run on, but the local
        # durable commit alone earns the ack.
        return quorum if quorum.need > 0 else None

    # -- replication-feed handlers (run on backups) ------------------------

    def _handle_apply(self, request) -> None:
        """``repl.apply``: answered once the record and its whole prefix
        are durable here (by :meth:`_drain`), duplicates at once."""
        slot, seq, _key, _size, _op = request.payload
        stream = self._streams[slot]
        if seq <= stream.applied:
            # Duplicate (MSG_DUP or a retry whose original landed):
            # already durable, acknowledge without re-applying.
            self.rpc.reply(request, stream.applied, ACK_BYTES, self.sim.now)
            return
        stream.pending[seq] = (request, stream, self.sim.now)
        if not stream.draining:
            stream.draining = True
            Process(self.sim, self._drain(stream, slot[0]), "repl.drain")

    def _drain(self, stream: _Stream, tenant: str):
        """Apply buffered records in sequence order, acking each.

        An ack (or nack) is queued for now, where a waiter's wake-up
        would be, and reads the applied prefix when it runs.
        """
        pending = stream.pending
        try:
            while pending:
                entry = pending.pop(stream.applied + 1, None)
                if entry is None:
                    return
                request = entry[0]
                _slot, _seq, key, size, op = request.payload
                try:
                    yield from self.node.apply_replica(
                        tenant, key, size or 1024, op, request.trace
                    )
                except StorageFault as exc:
                    # The apply did not land (engine retries exhausted);
                    # nack so the primary re-ships, and stop draining —
                    # order must hold.
                    self.sim.call_at(self.sim.now, self._nack_apply, (request, exc))
                    return
                stream.applied += 1
                self.sim.call_at(self.sim.now, self._ack_apply, entry)
        finally:
            stream.draining = False

    def _ack_apply(self, entry) -> None:
        request, stream, received = entry
        self.rpc.reply(request, stream.applied, ACK_BYTES, received)

    def _nack_apply(self, failed) -> None:
        self.rpc.reply_error(*failed)

    def _handle_seq(self, request):
        payload = request.payload
        return {"seq": self.applied_seq(payload["tenant"], payload["pid"])}, ACK_BYTES
        yield  # pragma: no cover - marks this handler as a generator

    # -- live migration (source primary + destination sides) ----------------

    def _op_done(self, stream: _Stream) -> None:
        """A write ended while a fence waits: wake it once none is in
        flight."""
        if stream.inflight <= 0:
            waiter, stream.idle = stream.idle, None
            if not waiter.triggered:
                waiter.succeed()

    def transfer(
        self, tenant: str, pid: int, lo: int, hi: int, targets: Sequence[str],
        commit: Callable[[], None],
    ):
        """DES generator: move ``[lo, hi)`` of a partition this node leads
        to the joining replicas ``targets``, then run ``commit()``.

        A charged range scan is the snapshot (skipped when ``targets``
        is empty: nothing is shipped), shipped in batched
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
            # An in-place move (no joining replica) ships nothing, so it
            # charges no snapshot scan; the fence and its drain still run.
            scanned = (yield from self.node.scan(tenant, lo, hi - 1)) if targets else []
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
            stream = self._streams[slot]
            while stream.inflight > 0:
                waiter = stream.idle
                if waiter is None or waiter.triggered:
                    waiter = stream.idle = self.sim.event()
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
        stream = self._streams[(tenant, pid)]
        stream.applied = seq
        stream.shipped = seq
        stream.pending = {}

    def _handle_mig_apply(self, request):
        """Destination side: durably apply a batch of shipped records
        through the full charged replica path, in order."""
        payload = request.payload
        tenant = payload["tenant"]
        for key, size, op in payload["records"]:
            yield from self.node.apply_replica(tenant, key, size or 1024, op=op)
        return {"n": len(payload["records"])}, ACK_BYTES

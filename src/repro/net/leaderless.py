"""Leaderless (Dynamo-style) replication over the RPC layer.

``NetConfig(replication_mode="leaderless")`` replaces the primary's
sequenced stream with any-replica coordination: *any* home replica
coordinates a write (``lkv.put``), stamps it with a vector clock (see
:mod:`repro.net.versioning`), applies it locally through the full
charged engine path, and ships the versioned record to the other home
replicas.  Unreachable homes are covered by **hinted handoff**: the
record spills to the next reachable ring successor, which stores it
durably (a real engine write, charged to the owning tenant) plus a hint
naming the intended owner, and hands it off once the owner is reachable
again.  Hinted acks count toward the **sloppy write quorum**, so W ≥ 2
writes keep committing through a partition without losing the "on ≥ W
durable replicas" guarantee.  Quorum reads (``lkv.get``) collect
versioned replies from R home replicas, surface concurrent siblings,
resolve by the explicit last-writer-wins tiebreak, and push **read
repair** to any replica that answered stale — repair traffic runs the
same engine path, so it is charged as VOPs to the owning tenant,
visible to Libra's demand estimates.

Background anti-entropy (:mod:`repro.net.antientropy`) converges what
reads never touch.  There is no live migration here: the control plane
refuses a leaderless cluster.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..faults import NodeUnreachable, QuorumError, RetriesExhausted, StorageFault
from .replication import Quorum, ReplicaService
from .rpc import ACK_BYTES
from .versioning import Version, VersionStore, reconcile

__all__ = ["LeaderlessService"]

#: wire bytes of a versioned-record envelope (clock entries, stamp)
VERSION_HEADER_BYTES = 96


class LeaderlessService(ReplicaService):
    """One node's leaderless face: coordination, replica storage, hints.

    Methods (all payloads are plain dicts):

    - ``lkv.put {tenant, key, size, op}`` → ``{ok, version}`` — this
      home replica coordinates the write: version, local apply, ship.
    - ``lkv.get {tenant, key}`` → ``{size, siblings}`` — quorum read
      with read repair.
    - ``repl.store {tenant, key, version, reason}`` — durably apply a
      versioned record (write, repair, handoff or anti-entropy).
    - ``repl.read {tenant, key}`` → ``{size, versions}`` — a replica's
      answer to another coordinator's quorum read.
    - ``hint.store {tenant, key, version, target}`` — take custody of a
      record for an unreachable home replica.
    """

    def __init__(self, sim, node, fabric, partition_map, membership, config=None):
        super().__init__(sim, node, fabric, partition_map, membership, config)
        #: per-key surviving version sets
        self.versions = VersionStore(node.name)
        #: pending hinted records: (target, tenant, key) -> Version
        self.hints: Dict[Tuple[str, str, int], Version] = {}
        self.hints_stored = 0
        self.hints_delivered = 0
        self.read_repairs_sent = 0
        self.repairs_received = 0
        self.handoffs_received = 0
        self.ae_received = 0
        #: quorum reads that surfaced >1 concurrent sibling
        self.sibling_reads = 0
        self._lseq = 0
        self._handoff_stopped = False
        rpc = self.rpc
        rpc.register("lkv.put", self._handle_lput)
        rpc.register("lkv.get", self._handle_lget)
        rpc.register("repl.store", self._handle_store)
        rpc.register("repl.read", self._handle_read)
        rpc.register("hint.store", self._handle_hint)
        sim.process(self._handoff_loop(), name=f"handoff.{node.name}")

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

    def push(self, target: str, tenant: str, key: int, version: Version,
             reason: str, trace=None):
        """DES generator: one ``repl.store`` of ``version`` at ``target``;
        True once it is durable there, False when the target could not
        be reached.  ``reason`` (write, repair, handoff, ae) keys the
        receiver's counters."""
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
            return False
        return True

    # -- coordinator side ----------------------------------------------------

    def _home_partition(self, tenant: str, key: int):
        """The key's partition, insisting this node is a home replica.

        Any home replica may coordinate; a request landing elsewhere
        (stale client ring view) is rejected so the client re-resolves.
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
        size, op = payload["size"], payload["op"]
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
        quorum = Quorum(self.sim, need, len(peers), QuorumError, self.node.name, payload)
        for name in peers:
            self.sim.process(
                self._ship_versioned(partition, name, key, version, quorum, trace),
                name=f"lrepl.{self.node.name}->{name}",
            )
        if need > 0 and peers:
            try:
                yield quorum.event
            except QuorumError:
                self.quorum_failures += 1
                raise
        self.quorum_acks += 1
        return {"ok": True, "version": version.wire()}, ACK_BYTES

    def _ship_versioned(self, partition, target, key, version, quorum, trace=None):
        """Ship one versioned record to a home replica, spilling to a
        hint holder when the home is dead or unreachable."""
        # The direct ship is always attempted, even at a suspected-dead
        # target: a *partitioned* home is dead to the majority-side
        # detector yet perfectly reachable from a same-side coordinator,
        # and ``give_up`` bounds the truly-dead case to one attempt.
        ok = yield from self.push(target, partition.tenant, key, version, "write", trace)
        if not ok:
            ok = yield from self._hint_spill(partition, target, key, version, trace)
        quorum(ok)

    def _hint_spill(self, partition, target, key, version, trace=None):
        """Walk the ring successors until one durably takes the record
        plus a hint naming ``target``.  True on success."""
        tenant = partition.tenant
        payload = {
            "tenant": tenant, "key": key, "version": version.wire(),
            "target": target,
        }
        if trace is not None:
            payload["trace"] = trace
        nbytes = version.size + VERSION_HEADER_BYTES
        candidates = self.partition_map.hint_candidates(tenant, partition.index)
        # ``give_up`` caps a truly-dead holder at one attempt.
        for holder in self.membership.live_first(candidates):
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
            quorum = Quorum(
                self.sim, need, len(peers), NodeUnreachable, self.node.name, payload
            )
            for name in peers:
                self.sim.process(
                    self._read_one_replica(name, payload, replies, quorum, trace),
                    name=f"lread.{self.node.name}->{name}",
                )
            yield quorum.event  # raises NodeUnreachable when < R replicas answer
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
                        self.push(name, tenant, key, version, "repair", trace),
                        name=f"lrepair.{self.node.name}->{name}",
                    )
        size = None if winner.tombstone else winner.size
        return {"size": size, "siblings": len(survivors)}, (size or ACK_BYTES)

    def _read_one_replica(self, target, payload, replies, quorum, trace=None):
        """Ask one home replica for its versions; the ``lkv.get``
        request's own payload is the ``repl.read`` payload."""
        try:
            reply = yield from self.rpc.call(
                target, "repl.read", payload, ACK_BYTES, trace=trace,
                give_up=lambda: not self.membership.is_live(target),
            )
        except (RetriesExhausted, StorageFault):
            quorum(False)
            return
        replies[target] = (
            reply["size"],
            [Version.from_wire(w) for w in reply["versions"]],
        )
        quorum(True)

    # -- replica side ----------------------------------------------------------

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
                delivered = yield from self.push(target, tenant, key, version, "handoff")
                if not delivered:
                    continue  # still unreachable: keep the hint
                if self.hints.get(slot) is version:
                    del self.hints[slot]
                self.hints_delivered += 1

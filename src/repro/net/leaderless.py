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

Background **anti-entropy** converges what reads never touch (a
partition that heals after one-sided writes leaves cold keys divergent
otherwise).  Every ``NetConfig.anti_entropy_interval`` seconds each node
picks, for each (tenant, partition) it is a home replica of, one peer
replica round-robin, exchanges Merkle-style digests (see
:meth:`repro.net.versioning.VersionStore.digest`), and for divergent
buckets pushes the versions the peer lacks and pulls the versions it
lacks itself.  The digest exchange is metadata-only; every transfer
lands through the charged engine path, so repair bandwidth is charged
to the owning tenant like foreground writes.  Rounds are staggered per
node by a deterministic name-hash phase, so a cluster's scans spread
over the interval and same-seed runs stay byte-identical.

There is no live migration here: the control plane refuses a
leaderless cluster.
"""

from __future__ import annotations

import zlib
from typing import Dict, Tuple

from ..faults import NodeUnreachable, QuorumError, RetriesExhausted, StorageFault
from .replication import Quorum, ReplicaService
from .rpc import ACK_BYTES
from .versioning import Version, VersionStore, reconcile

__all__ = ["LeaderlessService"]

#: wire bytes of a versioned-record envelope (clock entries, stamp)
VERSION_HEADER_BYTES = 96
#: wire bytes of one digest reply entry (bucket hash vector slot)
DIGEST_ENTRY_BYTES = 8
#: Merkle-style digest buckets per (tenant, partition) key range
DIGEST_BUCKETS = 16


class LeaderlessService(ReplicaService):
    """One node's leaderless face: coordination, replica storage, hints,
    and the hinted-handoff and anti-entropy loops.

    Methods (the request's trace id rides on the message; a version is
    the :class:`~repro.net.versioning.Version` itself):

    - ``lkv.put (tenant, key, size, op)`` → the stamped version — this
      home replica coordinates the write: version, local apply, ship.
    - ``lkv.get (tenant, key)`` → the size — quorum read with read
      repair.
    - ``repl.store (tenant, key, version, reason)`` → True when it
      changed local state — durably apply a versioned record (write,
      repair, handoff or anti-entropy).
    - ``repl.read (tenant, key)`` → ``(size, versions)`` — a replica's
      answer to another coordinator's quorum read.
    - ``hint.store (tenant, key, version, target)`` → True — take
      custody of a record for an unreachable home replica.
    - ``ae.digest (tenant, pid)`` → ``(root, bucket hashes)`` and
      ``ae.bucket (tenant, pid, bucket)`` → ``((key, versions), ...)``
      — a peer's side of an anti-entropy round.
    """

    def __init__(self, sim, node, fabric, partition_map, membership, config=None):
        super().__init__(sim, node, fabric, partition_map, membership, config)
        #: per-key surviving version sets
        self.versions = VersionStore(node.name, partition_map)
        #: pending hinted records: (target, tenant, key) -> Version
        self.hints: Dict[Tuple[str, str, int], Version] = {}
        self.hints_stored = 0
        self.hints_delivered = 0
        self.read_repairs_sent = 0
        self.repairs_received = 0
        self.handoffs_received = 0
        #: records anti-entropy applied here, pushed or pulled
        self.ae_received = 0
        #: quorum reads that surfaced >1 concurrent sibling
        self.sibling_reads = 0
        self.ae_rounds = 0
        #: digest exchanges whose roots disagreed (sync work followed)
        self.ae_mismatches = 0
        #: records anti-entropy shipped to a peer that lacked them
        self.ae_pushed = 0
        #: per-(tenant, pid) round-robin cursor over peer replicas
        self._ae_turn: Dict[Tuple[str, int], int] = {}
        self._lseq = 0
        self._stopped = False
        rpc = self.rpc
        rpc.register("lkv.put", self._handle_lput)
        rpc.register("lkv.get", self._handle_lget)
        rpc.register("repl.store", self._handle_store)
        rpc.register("repl.read", self._handle_read)
        rpc.register("hint.store", self._handle_hint)
        rpc.register("ae.digest", self._handle_digest)
        rpc.register("ae.bucket", self._handle_bucket)
        sim.process(self._handoff_loop(), name=f"handoff.{node.name}")
        sim.process(self._ae_loop(), name=f"ae.{node.name}")

    def stop(self) -> None:
        """Stop background loops (hinted handoff and anti-entropy)."""
        self._stopped = True

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
        try:
            yield from self.rpc.call(
                target, "repl.store", (tenant, key, version, reason),
                version.size + VERSION_HEADER_BYTES, trace, self.membership.is_dead,
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

    def _handle_lput(self, request):
        """Coordinate a leaderless write: version, apply locally, ship.

        The coordinator's own durable commit is the first ack; the rest
        of the **sloppy** write quorum comes from home replicas or — for
        unreachable homes — hint holders, each ack meaning "this record
        is durable somewhere and will reach its owner".
        """
        tenant, key, size, op = request.payload
        trace = request.trace
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
        quorum = Quorum(self.sim, need, len(peers), QuorumError, self.node.name, tenant, key)
        # A process per ship, not a fan_out: a failed push spills to a
        # hint holder in the same step, which a callback would send one
        # queued action later.
        for name in peers:
            self.sim.process(
                self._ship_versioned(partition, name, key, version, quorum, trace),
                name=f"lrepl.{self.node.name}->{name}",
            )
        if need > 0 and peers:
            try:
                yield quorum
            except QuorumError:
                self.quorum_failures += 1
                raise
        self.quorum_acks += 1
        return version, ACK_BYTES

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
        payload = (tenant, key, version, target)
        nbytes = version.size + VERSION_HEADER_BYTES
        candidates = self.partition_map.hint_candidates(tenant, partition.index)
        # ``give_up`` caps a truly-dead holder at one attempt.
        for holder in self.membership.live_first(candidates):
            if holder == self.node.name:
                continue
            try:
                yield from self.rpc.call(
                    holder, "hint.store", payload, nbytes, trace, self.membership.is_dead
                )
                return True
            except (RetriesExhausted, StorageFault):
                continue
        return False

    def _handle_lget(self, request):
        """Coordinate a leaderless quorum read with read repair.

        Collects versioned replies from R home replicas (the local one
        free), reconciles, answers with the winner's size, and pushes
        repair records — full charged engine writes — to every replica
        whose reply missed a surviving version.
        """
        payload = tenant, key = request.payload
        trace = request.trace
        partition = self._home_partition(tenant, key)
        need = min(self.config.effective_read_quorum, len(partition.replicas)) - 1
        local_size = yield from self.node.get(tenant, key, trace=trace)
        replies = {self.node.name: (local_size, self.versions.get(tenant, key))}
        peers = [name for name in partition.replicas if name != self.node.name]
        if need > 0 and peers:
            quorum = Quorum(
                self.sim, need, len(peers), NodeUnreachable, self.node.name, tenant, key
            )
            # The ``lkv.get`` payload is the ``repl.read`` payload.
            self.rpc.fan_out(
                peers, "repl.read", payload, ACK_BYTES, quorum.gathering(replies), trace,
                self.membership.is_dead,
            )
            yield quorum  # raises NodeUnreachable when < R replicas answer
        versions = [v for _size, held in replies.values() for v in held]
        winner, survivors = reconcile(versions)
        if winner is None:
            # No versioned history anywhere (pre-seeded or never written
            # through the leaderless path): the local engine answers.
            return local_size, (local_size or ACK_BYTES)
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
        return size, (size or ACK_BYTES)

    # -- replica side ----------------------------------------------------------

    def _handle_store(self, request):
        """Durably apply a versioned record (write / repair / handoff /
        anti-entropy — ``reason`` keys the counters)."""
        tenant, key, version, reason = request.payload
        applied = yield from self.apply_version(tenant, key, version, request.trace)
        if applied:
            if reason == "repair":
                self.repairs_received += 1
            elif reason == "handoff":
                self.handoffs_received += 1
            elif reason == "ae":
                self.ae_received += 1
        return applied, ACK_BYTES

    def _handle_read(self, request):
        """Replica-local read for another coordinator's quorum: engine
        GET through the charged path plus the local version set."""
        tenant, key = request.payload
        size = yield from self.node.read_replica(tenant, key, trace=request.trace)
        return (size, self.versions.get(tenant, key)), (size or ACK_BYTES)

    def _handle_hint(self, request):
        """Take custody of a record whose home replica is unreachable.

        The record is durably applied *here* (a real engine write,
        charged to the owning tenant) and a hint naming the intended
        owner is queued; :meth:`_handoff_loop` delivers it once the
        owner is live again.
        """
        tenant, key, version, target = request.payload
        yield from self.apply_version(tenant, key, version, request.trace)
        slot = (target, tenant, key)
        held = self.hints.get(slot)
        if held is None or version.clock.descends(held.clock):
            self.hints[slot] = version
            self.hints_stored += 1
        return True, ACK_BYTES

    def _handoff_loop(self):
        """Periodically deliver queued hints to owners that came back.

        Delivery is a normal ``repl.store`` (reason ``handoff``): the
        owner pays the full engine write, so recovered-replica catch-up
        shows up in its VOP demand like any other write.
        """
        interval = self.config.hint_interval
        while not self._stopped:
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

    # -- anti-entropy ----------------------------------------------------------

    def _ae_loop(self):
        interval = self.config.anti_entropy_interval
        # Deterministic per-node phase: spread the cluster's scans over
        # one interval (a name hash, never Python's salted hash()).
        yield self.sim.timeout((zlib.crc32(self.node.name.encode()) % 997) / 997.0 * interval)
        while not self._stopped:
            yield self.sim.timeout(interval)
            if self._stopped:
                return
            yield from self._ae_round()

    def _ae_round(self):
        """One sweep: sync each home partition, in (tenant, pid) order,
        with one peer replica picked round-robin."""
        self.ae_rounds += 1
        name = self.node.name
        owned = [
            (tenant, partition.index, [r for r in partition.replicas if r != name])
            for tenant in sorted(self.node.engines)
            for partition in self.partition_map.partitions(tenant)
            if name in partition.replicas
        ]
        for tenant, pid, peers in owned:
            if self._stopped:
                return
            if not peers:
                continue
            turn = self._ae_turn.get((tenant, pid), 0)
            self._ae_turn[(tenant, pid)] = turn + 1
            peer = peers[turn % len(peers)]
            if not self.membership.is_live(peer):
                continue
            try:
                yield from self._ae_sync(tenant, pid, peer)
            except (RetriesExhausted, StorageFault):
                continue  # peer unreachable this round; next round retries

    def _ae_sync(self, tenant: str, pid: int, peer: str):
        """Digest-compare one partition with ``peer``; transfer diffs."""
        versions = self.versions
        my_root, my_buckets = versions.digest(tenant, pid, DIGEST_BUCKETS)
        root, buckets = yield from self.rpc.call(
            peer, "ae.digest", (tenant, pid), ACK_BYTES, None, self.membership.is_dead
        )
        if root == my_root:
            return
        self.ae_mismatches += 1
        for bucket, (mine, theirs) in enumerate(zip(my_buckets, buckets)):
            if mine == theirs:
                continue
            peer_held = dict((yield from self.rpc.call(
                peer, "ae.bucket", (tenant, pid, bucket), ACK_BYTES,
                None, self.membership.is_dead,
            )))
            keys = {key for key in versions.keys_in(tenant, pid) if key % DIGEST_BUCKETS == bucket}
            for key in sorted(keys | set(peer_held)):
                held = versions.get(tenant, key)
                remote = peer_held.get(key, ())
                for version in held:
                    if any(r.clock.descends(version.clock) for r in remote):
                        continue
                    self.ae_pushed += 1
                    yield from self.push(peer, tenant, key, version, "ae")
                for version in remote:
                    if any(m.clock.descends(version.clock) for m in held):
                        continue
                    if (yield from self.apply_version(tenant, key, version)):
                        self.ae_received += 1

    def _handle_digest(self, request):
        tenant, pid = request.payload
        digest = self.versions.digest(tenant, pid, DIGEST_BUCKETS)
        return digest, ACK_BYTES + DIGEST_ENTRY_BYTES * DIGEST_BUCKETS
        yield  # pragma: no cover - marks this handler as a generator

    def _handle_bucket(self, request):
        tenant, pid, bucket = request.payload
        versions = self.versions
        entries = tuple(
            (key, versions.get(tenant, key))
            for key in versions.keys_in(tenant, pid)
            if key % DIGEST_BUCKETS == bucket
        )
        return entries, ACK_BYTES + DIGEST_ENTRY_BYTES * 8 * max(len(entries), 1)
        yield  # pragma: no cover - marks this handler as a generator

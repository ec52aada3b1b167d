"""Background anti-entropy for leaderless replication.

Read repair only converges keys that are *read*; a partition that heals
after a burst of one-sided writes leaves cold keys divergent
indefinitely.  Each node therefore runs an :class:`AntiEntropyService`:
every ``NetConfig.anti_entropy_interval`` seconds it picks, for each
(tenant, partition) it is a home replica of, one peer replica
round-robin, exchanges Merkle-style digests (see
:meth:`repro.net.versioning.VersionStore.digest`), and for divergent
buckets pushes the versions the peer lacks and pulls the versions it
lacks itself.

The digest exchange is metadata-only and cheap; the *transfers* are
real: every pushed or pulled record lands through the full engine
replica path (``repl.store`` reason ``ae`` on the peer,
:meth:`LeaderlessService.apply_version` locally), so anti-entropy repair
bandwidth is charged to the owning tenant in VOPs and shows up in
Libra's demand estimates exactly like foreground writes.

Rounds are staggered per node by a deterministic name-hash phase so a
cluster's AE scans spread over the interval instead of thundering
together — same-seed runs stay byte-identical.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Tuple

from ..faults import RetriesExhausted, StorageFault
from ..sim import Simulator
from .rpc import ACK_BYTES
from .versioning import Version

__all__ = ["AntiEntropyService"]

#: wire bytes of one digest reply entry (bucket hash vector slot)
DIGEST_ENTRY_BYTES = 8
#: Merkle-style digest buckets per (tenant, partition) key range
DIGEST_BUCKETS = 16


class AntiEntropyService:
    """One node's periodic digest-exchange-and-sync loop."""

    def __init__(self, sim: Simulator, service):
        self.sim = sim
        self.service = service  # the node's LeaderlessService
        self.config = service.config
        self.partition_map = service.partition_map
        self.membership = service.membership
        self.interval = self.config.anti_entropy_interval
        #: per-(tenant, pid) round-robin cursor over peer replicas
        self._turn: Dict[Tuple[str, int], int] = {}
        self._stopped = False
        self.rounds = 0
        #: digest exchanges whose roots disagreed (sync work followed)
        self.digest_mismatches = 0
        #: records shipped to a peer that lacked them
        self.pushed = 0
        #: records applied locally because a peer held newer state
        self.pulled = 0
        service.rpc.register("ae.digest", self._handle_digest)
        service.rpc.register("ae.bucket", self._handle_bucket)
        sim.process(self._loop(), name=f"ae.{service.node.name}")

    def stop(self) -> None:
        self._stopped = True

    # -- the periodic loop -------------------------------------------------

    def _loop(self):
        name = self.service.node.name
        # Deterministic per-node phase: spread the cluster's scans over
        # one interval (a name hash, never Python's salted hash()).
        phase = (zlib.crc32(name.encode()) % 997) / 997.0 * self.interval
        yield self.sim.timeout(phase)
        while not self._stopped:
            yield self.sim.timeout(self.interval)
            if self._stopped:
                return
            yield from self._round()

    def _owned(self) -> List[Tuple[str, int, Tuple[str, ...]]]:
        """(tenant, pid, peer replicas) for every home partition, in
        deterministic (tenant, pid) order."""
        name = self.service.node.name
        owned = []
        for tenant in sorted(self.service.node.engines):
            for partition in self.partition_map.partitions(tenant):
                if name in partition.replicas:
                    peers = tuple(
                        r for r in partition.replicas if r != name
                    )
                    owned.append((tenant, partition.index, peers))
        return owned

    def _round(self):
        """One sweep: sync each owned partition with one peer."""
        self.rounds += 1
        for tenant, pid, peers in self._owned():
            if self._stopped:
                return
            if not peers:
                continue
            slot = (tenant, pid)
            turn = self._turn.get(slot, 0)
            self._turn[slot] = turn + 1
            peer = peers[turn % len(peers)]
            if not self.membership.is_live(peer):
                continue
            try:
                yield from self._sync(tenant, pid, peer)
            except (RetriesExhausted, StorageFault):
                continue  # peer unreachable this round; next round retries

    def _sync(self, tenant: str, pid: int, peer: str):
        """Digest-compare one partition with ``peer``; transfer diffs."""
        svc = self.service
        partitions = self.partition_map.partitions_per_tenant
        my_root, my_buckets = svc.versions.digest(
            tenant, pid, partitions, DIGEST_BUCKETS
        )
        reply = yield from svc.rpc.call(
            peer, "ae.digest", {"tenant": tenant, "pid": pid}, ACK_BYTES,
            give_up=lambda: not self.membership.is_live(peer),
        )
        if reply["root"] == my_root:
            return
        self.digest_mismatches += 1
        their_buckets = reply["buckets"]
        divergent = [
            i for i, mine in enumerate(my_buckets)
            if i >= len(their_buckets) or their_buckets[i] != mine
        ]
        for bucket in divergent:
            reply = yield from svc.rpc.call(
                peer, "ae.bucket",
                {"tenant": tenant, "pid": pid, "bucket": bucket}, ACK_BYTES,
                give_up=lambda: not self.membership.is_live(peer),
            )
            theirs: Dict[int, List[Version]] = {
                int(key): [Version.from_wire(w) for w in wires]
                for key, wires in reply["entries"]
            }
            mine_keys = [
                key
                for key in svc.versions.keys_in(tenant, pid, partitions)
                if key % DIGEST_BUCKETS == bucket
            ]
            for key in sorted(set(mine_keys) | set(theirs)):
                held = svc.versions.get(tenant, key)
                remote = theirs.get(key, [])
                for version in held:
                    if any(r.clock.descends(version.clock) for r in remote):
                        continue
                    self.pushed += 1
                    yield from svc.push(peer, tenant, key, version, "ae")
                for version in remote:
                    if any(m.clock.descends(version.clock) for m in held):
                        continue
                    applied = yield from svc.apply_version(tenant, key, version)
                    if applied:
                        self.pulled += 1
                        svc.ae_received += 1

    # -- peer-side handlers ------------------------------------------------

    def _handle_digest(self, payload):
        tenant, pid = payload["tenant"], payload["pid"]
        root, buckets = self.service.versions.digest(
            tenant, pid, self.partition_map.partitions_per_tenant, DIGEST_BUCKETS
        )
        reply_bytes = ACK_BYTES + DIGEST_ENTRY_BYTES * len(buckets)
        return {"root": root, "buckets": list(buckets)}, reply_bytes
        yield  # pragma: no cover - marks this handler as a generator

    def _handle_bucket(self, payload):
        tenant, pid = payload["tenant"], payload["pid"]
        bucket = payload["bucket"]
        svc = self.service
        entries = [
            [key, [v.wire() for v in svc.versions.get(tenant, key)]]
            for key in svc.versions.keys_in(
                tenant, pid, self.partition_map.partitions_per_tenant
            )
            if key % DIGEST_BUCKETS == bucket
        ]
        reply_bytes = ACK_BYTES + DIGEST_ENTRY_BYTES * 8 * max(len(entries), 1)
        return {"entries": entries}, reply_bytes
        yield  # pragma: no cover - marks this handler as a generator

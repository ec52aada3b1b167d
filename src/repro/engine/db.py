"""The LSM key-value persistence engine.

One ``LsmEngine`` instance manages one tenant's partition: a memtable +
WAL in front of a leveled tree of SSTables, with FLUSH and COMPACT
running as parallel background DES processes (the paper's modified
LevelDB runs them in parallel too).  All IO goes through the
filesystem, whose backend is the Libra scheduler, tagged with
(tenant, app-request, internal op).

Engine methods are written as generators to be driven inside the
caller's DES process::

    size = yield from engine.get(key)
    yield from engine.put(key, size)

GET path: memtable → immutable memtable → eligible SSTables newest
first, paying one index-block read per probed file and a data read on
the hit.  PUT path: group-committed WAL append, memtable insert,
rotation + background FLUSH when full (stalling writers only when a
flush is already behind, as LevelDB does).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from operator import index
from typing import Dict, List, Optional

from ..core.tags import InternalOp, IoTag, RequestClass
from ..core.tracker import ResourceTracker
from ..faults import CorruptionError, StorageFault
from ..sim import Event, Simulator
from ..ssd import SimFilesystem
from .compaction import merge_entries, pick_compaction, split_outputs
from .memtable import TOMBSTONE, Memtable
from .sstable import SsTable, TableBuilder
from .version import Version
from .wal import Wal

__all__ = ["EngineConfig", "EngineStats", "LsmEngine"]

KIB = 1024
MIB = 1024 * 1024
#: writers stop until compaction catches up at this many L0 files
#: (LevelDB's kL0_StopWritesTrigger)
L0_STOP = 12
#: per-record WAL framing overhead (key + header)
RECORD_OVERHEAD = 24
#: initial backoff before retrying a FLUSH/COMPACT that hit a device
#: fault (doubles per attempt; background work must outlast transient
#: fault windows rather than die)
FAULT_RETRY_BACKOFF = 0.05


@dataclass(frozen=True)
class EngineConfig:
    """LSM tuning knobs (LevelDB-flavoured defaults, scaled to the
    simulated device size)."""

    memtable_bytes: int = 2 * MIB
    l0_trigger: int = 4
    level1_bytes: int = 8 * MIB
    level_ratio: int = 8
    max_levels: int = 5
    max_output_file_bytes: int = 2 * MIB
    #: sequential IO chunk for FLUSH writes and COMPACT reads/writes
    io_chunk: int = 256 * KIB
    #: tables whose index blocks stay cached in memory (LevelDB's table
    #: cache / max_open_files).  A GET pays an index-block read only on
    #: the first probe of an uncached table — so write-heavy workloads,
    #: which churn fresh L0 files, re-pay index reads constantly while
    #: stable trees probe from memory (§3.1's GET amplification).
    table_cache_entries: int = 8
    #: Bloom filter bits per key (0 = off, matching the paper's
    #: prototype).  With filters on, a GET skips eligible files whose
    #: filter reports "absent" — buying back GET amplification at the
    #: cost of filter memory (see bench_ablation_bloom).
    bloom_bits_per_key: int = 0
    #: re-reads the engine attempts when a checksummed block read comes
    #: back corrupt, before surfacing the CorruptionError
    read_retries: int = 2


@dataclass
class EngineStats:
    """Cumulative engine activity counters."""

    gets: int = 0
    get_hits: int = 0
    get_misses: int = 0
    puts: int = 0
    deletes: int = 0
    flushes: int = 0
    compactions: int = 0
    compaction_input_bytes: int = 0
    index_probes: int = 0
    index_cache_hits: int = 0
    bloom_skips: int = 0
    put_stalls: int = 0
    recoveries: int = 0
    recovered_records: int = 0
    scans: int = 0
    scanned_entries: int = 0
    # Failure handling (see repro.faults)
    checksum_failures: int = 0
    read_retries: int = 0
    torn_records: int = 0
    flush_retries: int = 0
    compaction_aborts: int = 0

    def snapshot(self) -> "EngineStats":
        return EngineStats(**vars(self))

    def delta(self, earlier: "EngineStats") -> "EngineStats":
        return EngineStats(
            **{k: getattr(self, k) - getattr(earlier, k) for k in vars(self)}
        )


class LsmEngine:
    """One tenant's log-structured merge tree over the shared device."""

    def __init__(
        self,
        sim: Simulator,
        fs: SimFilesystem,
        tenant: str,
        config: Optional[EngineConfig] = None,
        tracker: Optional[ResourceTracker] = None,
        tracer=None,
    ):
        self.sim = sim
        self.fs = fs
        self.tenant = tenant
        self.config = config or EngineConfig()
        self.tracker = tracker
        #: optional repro.obs Tracer for WAL/SSTable/flush/compact spans
        self.tracer = tracer
        self.stats = EngineStats()
        self.version = Version(max_levels=self.config.max_levels)
        self.memtable = Memtable(self.config.memtable_bytes)
        self.immutable: Optional[Memtable] = None
        self._wal = Wal(sim, fs, f"{tenant}-wal-0", tracer=tracer)
        self._wal_seq = 0
        #: engine-lifetime WAL commit listeners (re-attached on rotation)
        self._wal_listeners: List = []
        self._sequence = 0
        self._flush_done: Event = sim.event()
        self._compact_done: Event = sim.event()
        self._compacting = False
        self._file_seq = 0
        self._refs: Dict[int, int] = {}  # table_id -> active readers
        self._doomed: Dict[int, SsTable] = {}  # awaiting last reader
        #: LRU of table ids whose index blocks are resident in memory
        self._index_cache: "OrderedDict[int, None]" = OrderedDict()
        self._builder = TableBuilder(
            sim,
            fs,
            write_chunk=self.config.io_chunk,
            bloom_bits_per_key=self.config.bloom_bits_per_key,
        )

    # -- public request API (drive with ``yield from``) ---------------------------

    def get(self, key: int, tag: Optional[IoTag] = None):
        """Point lookup; returns the object size or None.  Block reads go
        through :meth:`_read_verified` only to re-read after a checksum
        failure, or with a tracer installed (it records the span)."""
        tag = tag or IoTag(self.tenant, RequestClass.GET)
        stats = self.stats
        stats.gets += 1
        entry = self.memtable.get(key)
        if entry is None and self.immutable is not None:
            entry = self.immutable.get(key)
        size = None if entry is None else entry.size
        candidates = () if entry is not None else self.version.eligible_files(key)
        refs = self._refs
        for table in candidates:
            refs[table.table_id] = refs.get(table.table_id, 0) + 1
        index_cache = self._index_cache
        traced = self.tracer is not None
        try:
            for table in candidates:
                if table.bloom is not None and not table.bloom.may_contain(key):
                    stats.bloom_skips += 1
                    continue
                stats.index_probes += 1
                if table.table_id in index_cache:  # the index block is resident
                    index_cache.move_to_end(table.table_id)
                    stats.index_cache_hits += 1
                else:
                    index_cache[table.table_id] = None
                    while len(index_cache) > self.config.table_cache_entries:
                        index_cache.popitem(last=False)
                    read, arg, span = table.read_index_block, key, "sst.index"
                    if traced:
                        yield from self._read_verified(read, arg, span=span, tag=tag)
                    else:
                        try:
                            yield read(arg, tag)
                        except CorruptionError as exc:
                            yield from self._read_verified(
                                read, arg, span=span, tag=tag, failed=exc,
                            )
                idx = table.find(key)
                if idx is not None:
                    size = table.sizes[idx]
                    if size != TOMBSTONE:
                        read, arg, span = table.read_value, idx, "sst.value"
                        if traced:
                            yield from self._read_verified(read, arg, span=span, tag=tag)
                        else:
                            try:
                                yield read(arg, tag)
                            except CorruptionError as exc:
                                yield from self._read_verified(
                                    read, arg, span=span, tag=tag, failed=exc,
                                )
                    break
        finally:
            for table in candidates:
                self._unref(table)
        if size is None or size == TOMBSTONE:
            stats.get_misses += 1
            return None
        stats.get_hits += 1
        return size

    def put(self, key: int, size: int, tag: Optional[IoTag] = None):
        """Durable write of ``size`` bytes under ``key``: checks its
        arguments, then returns the write's generator (one engine frame)."""
        if type(size) is not int or size <= 0:
            raise ValueError(f"object size must be a positive int, got {size!r}")
        if key != key:
            raise ValueError("key must not be NaN")
        self.stats.puts += 1
        return self._write(key, size, tag or IoTag(self.tenant, RequestClass.PUT))

    def delete(self, key: int, tag: Optional[IoTag] = None):
        """Durable tombstone write for ``key`` (a generator, as :meth:`put`)."""
        if key != key:
            raise ValueError("key must not be NaN")
        self.stats.deletes += 1
        return self._write(key, TOMBSTONE, tag or IoTag(self.tenant, RequestClass.DELETE))

    def scan(self, lo: int, hi: int, tag: Optional[IoTag] = None, limit: Optional[int] = None):
        """Range scan: sorted live (key, size) pairs with lo <= key <= hi.

        Merges every overlapping source — both memtables and all
        overlapping tables at every level — newest version winning,
        tombstones suppressing older values.  Each table holding a key in
        range costs one sequential read of the covered data span (what a
        LevelDB iterator pays); the rows merge through C-level dict
        updates, one per source.
        """
        if not lo <= hi:  # NaN bounds included
            raise ValueError(f"scan range [{lo}, {hi}] is empty")
        if limit is not None and index(limit) < 0:  # TypeError for a float
            raise ValueError(f"scan limit must be non-negative, got {limit}")
        tag = tag or IoTag(self.tenant, RequestClass.GET)
        self.stats.scans += 1
        merged: Dict[int, int] = {}
        # Oldest sources first so newer layers overwrite.
        tables = self.version.scan_sources(lo, hi)
        # Captured with the table list, before the first IO wait: a FLUSH
        # that lands mid-scan moves the immutable memtable's entries into
        # an L0 table this scan never listed.
        memtables = (self.immutable, self.memtable)
        # Every listed table is held until the scan ends, even one with
        # no key in range: its last unref may delete a doomed file.
        for table in tables:
            self._ref(table)
        try:
            for table in tables:
                keys = table.keys
                first = bisect_left(keys, lo)
                last = bisect_right(keys, hi, first)
                if first < last:
                    yield from self._read_verified(
                        table.read_span, first, last, span="sst.range", tag=tag,
                    )
                    merged.update(zip(keys[first:last], table.sizes[first:last]))
        finally:
            for table in tables:
                self._unref(table)
        for source in memtables:
            if source is not None:
                source.merge_range(merged, lo, hi)
        results = sorted(merged.items())
        if TOMBSTONE in merged.values():
            results = [row for row in results if row[1] != TOMBSTONE]
        if limit is not None:
            del results[limit:]
        self.stats.scanned_entries += len(results)
        return results

    # -- read verification ---------------------------------------------------------

    def _read_verified(self, read, *args, span: str, tag: IoTag, failed=None):
        """DES sub-generator: a block read with checksum verification.

        Every SSTable block carries a checksum (as LevelDB's per-block
        CRC32 does); a read that fails verification surfaces as
        :class:`CorruptionError`, which a bounded number of re-reads can
        clear when the corruption was transient (ECC/transport).
        ``read(*args, tag)`` returns a fresh read event per attempt, or
        None when the source holds nothing to read; ``failed``, the
        error of a first attempt the caller made.  With a tracer
        installed, ``span`` names the recorded interval (retries included).
        """
        tr = self.tracer
        t0 = self.sim.now if tr is not None else 0.0
        attempts = 0
        while True:
            if failed is None:
                event = read(*args, tag)
                if event is None:
                    return
                try:
                    yield event
                    if tr is not None:
                        tr.span(
                            span, "engine", f"engine.{self.tenant}", tag.request.value,
                            t0, self.sim.now, trace=tag.trace,
                        )
                    return
                except CorruptionError as exc:
                    failed = exc
            self.stats.checksum_failures += 1
            if attempts >= self.config.read_retries:
                raise failed
            attempts += 1
            self.stats.read_retries += 1
            failed = None

    # -- introspection -----------------------------------------------------------

    @property
    def wal(self) -> Wal:
        """The live write-ahead log (chaos scripts probe ``wal.busy``)."""
        return self._wal

    def subscribe_wal(self, listener) -> None:
        """Register ``listener(records)`` on durable WAL commit batches.

        Survives WAL rotation: the engine re-subscribes the listener on
        every fresh log, so the replication layer observes the durable
        record stream continuously.
        """
        self._wal_listeners.append(listener)
        self._wal.subscribe(listener)

    def eligible_count(self, key: int) -> int:
        """Files a GET for ``key`` would probe right now (diagnostics)."""
        return self.version.eligible_count(key)

    @property
    def live_bytes(self) -> int:
        """Approximate live data across memtables and all levels."""
        total = self.memtable.bytes + (self.immutable.bytes if self.immutable else 0)
        return total + sum(
            self.version.level_bytes(level) for level in range(self.version.max_levels)
        )

    # -- write path ---------------------------------------------------------------

    def _write(self, key: int, size: int, tag: IoTag):
        # LevelDB-style backpressure: stall when the memtable is full
        # with the previous one still flushing, or when L0 is so deep
        # that compaction must catch up first (kL0_StopWritesTrigger).
        while (self.memtable.full and self.immutable is not None) or (
            len(self.version.levels[0]) >= L0_STOP
        ):
            self.stats.put_stalls += 1
            if len(self.version.levels[0]) >= L0_STOP:
                self._maybe_compact()
                yield self._compact_done
            else:
                yield self._flush_done
        record = max(size, 0) + RECORD_OVERHEAD
        yield self._wal.append(record, tag, record=(key, size))
        self._sequence += 1
        self.memtable.put(key, size, self._sequence)
        if self.memtable.full and self.immutable is None:
            self._rotate(tag)

    def _rotate(self, trigger_tag: IoTag) -> None:
        """Swap in a fresh memtable+WAL and start the background FLUSH.

        ``trigger_tag`` is the request whose write filled the memtable;
        the flush it spawns is traced as that request's child span.
        """
        self.immutable = self.memtable
        immutable_wal = self._wal
        self.memtable = Memtable(self.config.memtable_bytes)
        self._wal_seq += 1
        self._wal = Wal(
            self.sim, self.fs, f"{self.tenant}-wal-{self._wal_seq}", tracer=self.tracer
        )
        for listener in self._wal_listeners:
            self._wal.subscribe(listener)
        if self.tracker is not None:
            self.tracker.note_trigger(self.tenant, RequestClass.PUT, InternalOp.FLUSH)
        self.sim.process(
            self._flush(self.immutable, immutable_wal, trigger_trace=trigger_tag.trace),
            name=f"{self.tenant}.flush",
        )

    def _flush(self, memtable: Memtable, old_wal: Wal, trigger_trace=None):
        tag = IoTag(self.tenant, RequestClass.PUT, InternalOp.FLUSH, trigger_trace)
        t0 = self.sim.now
        delay = FAULT_RETRY_BACKOFF
        while True:
            # A faulted build cleans up its partial file; the retry
            # rebuilds from the memtable's entries again.
            try:
                table = yield from self._builder.build(
                    memtable.items(), tag, name=self._next_file_name(),
                )
                break
            except StorageFault:
                # The memtable (and its WAL) stay live until the table
                # lands, so a flush must outlast transient device
                # faults — back off and rebuild.
                self.stats.flush_retries += 1
                yield self.sim.timeout(delay)
                delay = min(delay * 2, 1.0)
        self.version.add_l0(table)
        # Wait out any group commit still landing in the old log before
        # deleting it (a concurrent PUT may have appended there moments
        # before the rotation).
        yield old_wal.quiesced()
        old_wal.retire()
        self.immutable = None
        self.stats.flushes += 1
        if self.tracker is not None:
            self.tracker.note_internal_op(self.tenant, InternalOp.FLUSH)
        tr = self.tracer
        if tr is not None:
            tr.span(
                "flush", "engine", f"engine.{self.tenant}", "flush",
                t0, self.sim.now, trace=trigger_trace,
                args={"bytes": memtable.bytes, "entries": len(memtable)},
            )
        done, self._flush_done = self._flush_done, self.sim.event()
        done.succeed()
        self._maybe_compact()

    # -- crash recovery ------------------------------------------------------------

    def crash(self) -> int:
        """Simulate a process crash, instantly (no IO).

        Volatile state is gone: the live memtable is dropped and the
        live WAL's tail is torn — queued and in-flight group commits
        are discarded, failing their (never-acknowledged) waiters with
        :class:`~repro.faults.CrashError` so callers re-issue.  Durable
        state (acknowledged WAL records, SSTables) is untouched.
        Returns the number of torn (unacknowledged) records.
        """
        torn = self._wal.crash()
        self.stats.torn_records += torn
        self.memtable = Memtable(self.config.memtable_bytes)
        return torn

    def recover(self, tag: Optional[IoTag] = None):
        """DES generator: rebuild volatile state from the WAL after a crash.

        The engine quiesces an in-flight FLUSH first: its memtable is
        already durable in the immutable WAL and the flush completes it
        to an SSTable, which recovery keeps (LevelDB recovers any log
        whose table did not land; completing the flush is equivalent
        and avoids tearing a half-written table out of the DES).  Then
        the live WAL is scanned sequentially (real read IO, tagged as
        PUT recovery work) and its durable records — exactly the
        acknowledged writes; the torn tail has no committed checksums —
        are replayed into a fresh memtable.

        Returns the number of replayed records.  Device faults during
        the scan propagate; the storage node retries recovery.
        """
        tag = tag or IoTag(self.tenant, RequestClass.PUT)
        while self.immutable is not None:
            yield self._flush_done
        self.memtable = Memtable(self.config.memtable_bytes)
        records = yield from self._wal.scan(
            tag, read_retries=self.config.read_retries + 2
        )
        for key, size in records:
            self._sequence += 1
            self.memtable.put(key, size, self._sequence)
        self.stats.recoveries += 1
        self.stats.recovered_records += len(records)
        if self.memtable.full and self.immutable is None:
            self._rotate(tag)
        return len(records)

    def crash_and_recover(self, tag: Optional[IoTag] = None):
        """DES generator: :meth:`crash` then :meth:`recover` back-to-back."""
        self.crash()
        replayed = yield from self.recover(tag)
        return replayed

    # -- compaction -----------------------------------------------------------------

    def _maybe_compact(self) -> None:
        if self._compacting:
            return
        job = pick_compaction(
            self.version,
            l0_trigger=self.config.l0_trigger,
            level1_bytes=self.config.level1_bytes,
            level_ratio=self.config.level_ratio,
        )
        if job is None:
            return
        self._compacting = True
        if self.tracker is not None:
            self.tracker.note_trigger(self.tenant, RequestClass.PUT, InternalOp.COMPACT)
        self.sim.process(self._compact(job), name=f"{self.tenant}.compact")

    def _compact(self, job):
        tag = IoTag(self.tenant, RequestClass.PUT, InternalOp.COMPACT)
        t0 = self.sim.now
        aborted = False
        outputs: List[SsTable] = []
        try:
            try:
                # Sequentially read every input file.
                for table in job.inputs:
                    pos = 0
                    while pos < table.file.size:
                        chunk = min(self.config.io_chunk, table.file.size - pos)
                        yield table.file.read(pos, chunk, tag=tag)
                        pos += chunk
                    self.stats.compaction_input_bytes += table.file.size
                drop_tombstones = job.target_level >= self.version.max_levels - 1
                merged = merge_entries(job.inputs, drop_tombstones=drop_tombstones)
                for batch in split_outputs(merged, self.config.max_output_file_bytes):
                    table = yield from self._builder.build(
                        iter(batch), tag, name=self._next_file_name()
                    )
                    outputs.append(table)
                self.version.remove(job.inputs)
                self.version.install(job.target_level, outputs)
                for table in job.inputs:
                    self._doom(table)
                self.stats.compactions += 1
                if self.tracker is not None:
                    self.tracker.note_internal_op(self.tenant, InternalOp.COMPACT)
            except StorageFault:
                # Abort cleanly: inputs stay installed, finished outputs
                # are deleted, and the job is retried after a backoff
                # (compaction is idempotent — nothing was published).
                aborted = True
                self.stats.compaction_aborts += 1
                for table in outputs:
                    self.fs.delete(table.file)
        finally:
            self._compacting = False
            tr = self.tracer
            if tr is not None:
                tr.span(
                    "compact", "engine", f"engine.{self.tenant}", "compact",
                    t0, self.sim.now,
                    args={
                        "inputs": len(job.inputs),
                        "outputs": len(outputs),
                        "level": job.target_level,
                        "ok": not aborted,
                    },
                )
            done, self._compact_done = self._compact_done, self.sim.event()
            done.succeed()
        if aborted:
            self.sim.process(
                self._compact_retry_later(), name=f"{self.tenant}.compact-retry"
            )
        else:
            self._maybe_compact()

    def _compact_retry_later(self):
        """Re-attempt compaction after a faulted job backed off."""
        yield self.sim.timeout(FAULT_RETRY_BACKOFF)
        self._maybe_compact()

    def _next_file_name(self) -> str:
        self._file_seq += 1
        return f"{self.tenant}-sst-{self._file_seq}"

    # -- table lifetime (readers vs compaction) -----------------------------------------

    def _ref(self, table: SsTable) -> None:
        self._refs[table.table_id] = self._refs.get(table.table_id, 0) + 1

    def _unref(self, table: SsTable) -> None:
        remaining = self._refs.get(table.table_id, 0) - 1
        if remaining <= 0:
            self._refs.pop(table.table_id, None)
            doomed = self._doomed.pop(table.table_id, None)
            if doomed is not None:
                self.fs.delete(doomed.file)
        else:
            self._refs[table.table_id] = remaining

    def _doom(self, table: SsTable) -> None:
        """Delete a compacted-away table once no GET is reading it."""
        self._index_cache.pop(table.table_id, None)
        if self._refs.get(table.table_id, 0) > 0:
            self._doomed[table.table_id] = table
        else:
            self.fs.delete(table.file)

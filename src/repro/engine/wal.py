"""Write-ahead log with group commit, checksummed records, and torn tails.

Every PUT first lands in the append-only WAL (§3.1) as a synchronous
write — the paper's prototype issues these with O_SYNC/O_DIRECT and
parallel client writers.  Concurrent appends are *group committed*:
while one WAL write is in flight, arriving records accumulate and are
flushed together in a single larger write, which is what keeps small
PUTs from paying a full device round-trip each.

WAL appends are the "PUT write IO" component of Fig 2: small records
make sub-page tail writes whose cost-per-byte is high.

Group commit runs as a continuation, not a process: the append that
finds the log idle arms :meth:`Wal._commit_next` in the heap slot a
commit process's start would take (so same-instant appends join its
batch), and each group write's completion runs :meth:`Wal._step` in the
slot its dispatch takes: it settles the batch and issues the next one
at once, as the process's loop body did.

Failure handling: records carry checksums (modeled, like SSTable
blocks, as the mechanism that converts torn or corrupt bytes into
detectable invalidity rather than as payload math).  A group commit
whose device write fails drops the whole batch — each waiter's append
event fails with the device error, and the half-written bytes are a
dead region the recovery scan skips because no checksummed record
header commits them.  :meth:`crash` tears the tail: in-flight and
queued records are discarded and their (never-acknowledged) waiters
fail with :class:`~repro.faults.CrashError`, so callers re-issue —
acknowledged records are exactly the ``entries`` list and survive.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.tags import IoTag
from ..faults import CorruptionError, CrashError, DeviceError, StorageFault
from ..sim import Event, Simulator
from ..ssd import OutOfSpace, SimFile, SimFilesystem

__all__ = ["Wal"]


class Wal:
    """One tenant memtable's write-ahead log file."""

    def __init__(self, sim: Simulator, fs: SimFilesystem, name: str, tracer=None):
        self.sim = sim
        self.fs = fs
        #: optional repro.obs Tracer recording one span per group commit
        self.tracer = tracer
        self.file: SimFile = fs.create(name)
        self._pending: List[Tuple[int, Event, Optional[Tuple[int, int]]]] = []
        self._pending_bytes = 0
        self._inflight: List[Tuple[int, Event, Optional[Tuple[int, int]]]] = []
        #: True from the append that arms a commit until the log is idle
        self._committing = False
        #: the running commit's group write, its bytes and span start
        self._write: Optional[Event] = None
        self._write_bytes = 0
        self._t0 = 0.0
        #: tag of the append that armed the running commit; every batch
        #: it issues carries it
        self._tag: Optional[IoTag] = None
        #: bumped by :meth:`crash`, so a commit armed before it is stale
        self._generation = 0
        self.records = 0
        self.batches = 0
        self.failed_batches = 0
        self.torn_records = 0
        #: bytes appended for batches that failed or were torn — dead
        #: regions whose record checksums never commit them
        self.torn_bytes = 0
        #: *durable* (key, size) records in commit order — exactly what
        #: a crash-recovery scan of this log reconstructs; records whose
        #: group commit has not completed are not yet in here
        self.entries: List[Tuple[int, int]] = []
        self._drain_waiters: List[Event] = []
        #: commit listeners: called with the batch's durable (key, size)
        #: records the moment their group commit lands — the shipping
        #: point primary-backup replication hangs off (a record is
        #: eligible for acknowledgement and for replication bookkeeping
        #: exactly when it is durable here, never earlier)
        self._commit_listeners: List = []

    def subscribe(self, listener) -> None:
        """Register ``listener(records)`` for durable commit batches.

        ``records`` is the list of logical (key, size) payloads whose
        group commit just landed (opaque appends excluded).  Listeners
        run synchronously at the commit point, before the waiters'
        acknowledgement events fire.
        """
        self._commit_listeners.append(listener)

    @property
    def size(self) -> int:
        """Bytes durably appended so far."""
        return self.file.size

    @property
    def busy(self) -> bool:
        """True while a group commit is queued or in flight."""
        return self._committing or bool(self._pending)

    def append(
        self, nbytes: int, tag: IoTag, record: Optional[Tuple[int, int]] = None
    ) -> Event:
        """Durably append a record; the event fires once it is on disk.

        ``record`` is the logical (key, size) payload retained for crash
        recovery; pass None for opaque appends.  The event *fails* (with
        a device error or :class:`CrashError`) when the record's group
        commit does not land — the caller was never acknowledged and
        must re-issue.
        """
        if type(nbytes) is not int or nbytes <= 0:
            raise ValueError(f"record size must be a positive int, got {nbytes!r}")
        sim = self.sim
        done = Event(sim)
        self._pending.append((nbytes, done, record))
        self._pending_bytes += nbytes
        self.records += 1
        if not self._committing:
            self._committing = True
            self._tag = tag
            sim.call_at(sim.now, self._commit_next, self._generation)
        return done

    def _commit_next(self, generation: int) -> None:
        """The armed commit starts: issue the first batch."""
        if generation == self._generation:  # else armed before a crash
            self._step(None)

    def _step(self, write: Optional[Event]) -> None:
        """One turn of the commit loop: settle the group write that just
        landed (None when the commit starts), then issue everything
        queued meanwhile as the next one, or go idle.

        A device fault fails the batch's waiters (they re-issue) and the
        log goes on; any other error stops the log and propagates.
        """
        if write is not None:
            self._write = None
            ok = write._ok
            if not ok and not isinstance(write._value, StorageFault):
                self._idle()
                raise write._value
            batch, self._inflight = self._inflight, []
            tr = self.tracer
            if tr is not None:
                # Group-commit attribution is approximate: the batch
                # serves every waiter but carries the tag (and trace id)
                # of the append that armed the commit.
                tag = self._tag
                tr.span(
                    "wal.commit", "engine", f"engine.{tag.tenant}", "wal",
                    self._t0, self.sim.now, trace=tag.trace,
                    args={"records": len(batch), "bytes": self._write_bytes, "ok": ok},
                )
            if ok:
                if self._commit_listeners:
                    committed = [rec for _nbytes, _ev, rec in batch if rec is not None]
                    if committed:
                        for listener in self._commit_listeners:
                            listener(committed)
                entries = self.entries
                for _nbytes, ev, record in batch:
                    if record is not None:
                        entries.append(record)
                    ev.succeed()
            else:
                # The group write failed: the batch's bytes are a torn
                # region; fail every waiter so they re-issue.
                exc = write._value
                self.failed_batches += 1
                self.torn_bytes += self._write_bytes
                for _nbytes, ev, _record in batch:
                    if not ev._triggered:
                        ev.fail(exc)
        if not self._pending:
            self._idle()
            return
        batch, self._pending = self._pending, []
        total, self._pending_bytes = self._pending_bytes, 0
        self._inflight = batch
        self._write_bytes = total
        self.batches += 1
        tr = self.tracer
        self._t0 = self.sim.now if tr is not None else 0.0
        try:
            write = self.file.append(total, tag=self._tag)
        except OutOfSpace as exc:
            # Refused before anything was allocated: the batch's appends
            # fail (nothing was written) and the log goes on.
            self._inflight = []
            for _nbytes, ev, _record in batch:
                ev.fail(exc)
            self._idle()
            return
        except BaseException:
            self._idle()
            raise
        if write.callbacks is None:  # already dispatched: its outcome is final
            self._step(write)
        else:
            self._write = write
            write.callbacks.append(self._step)

    def _idle(self) -> None:
        """The commit has nothing left to issue: release quiesce waiters."""
        self._committing = False
        if not self._pending:
            waiters, self._drain_waiters = self._drain_waiters, []
            for waiter in waiters:
                waiter.succeed()

    def crash(self) -> int:
        """Tear the log tail as a process crash would; return records lost.

        The in-flight group commit (if any) and every queued record are
        discarded: their bytes either never reached the device or form a
        torn region with no committed checksum, and their waiters —
        none of whom were acknowledged — fail with :class:`CrashError`.
        Durable ``entries`` are untouched.  A commit armed but not yet
        issued goes stale and the in-flight write no longer resumes the
        log, so an append right after the crash starts a commit of its
        own.
        """
        torn = self._inflight + self._pending
        self._inflight, self._pending = [], []
        self._pending_bytes = 0
        self._generation += 1
        if self._write is not None:
            self._write.callbacks.remove(self._step)
            self._write = None
        self._committing = False
        exc = CrashError(f"wal {self.file.name}: crash tore {len(torn)} records")
        for nbytes, ev, _record in torn:
            self.torn_bytes += nbytes
            if not ev.triggered:
                ev.fail(exc)
        self.torn_records += len(torn)
        waiters, self._drain_waiters = self._drain_waiters, []
        for waiter in waiters:
            waiter.succeed()
        return len(torn)

    def quiesced(self) -> Event:
        """Event that fires once no group commit is pending or running.

        A memtable's WAL can still have a concurrent writer's record in
        flight when the FLUSH finishes building the SSTable; retiring
        must wait for that commit to land (the record is durable in
        *this* log even though its memtable entry went to the
        successor).
        """
        done = self.sim.event()
        if not self._pending and not self._committing:
            done.succeed()
        else:
            self._drain_waiters.append(done)
        return done

    def retire(self) -> None:
        """Delete the log file (its memtable has been flushed)."""
        if self._pending or self._committing:
            raise RuntimeError(f"retiring WAL {self.file.name} with writes in flight")
        self.fs.delete(self.file)
        self.entries = []

    def scan(self, tag: IoTag, chunk: int = 256 * 1024, read_retries: int = 4):
        """DES generator: sequentially read the whole log (recovery IO).

        Corrupt and transiently-failed reads are retried up to
        ``read_retries`` times *per chunk* (checksummed records make
        corruption detectable; a re-read clears transient ECC/transport
        faults) — chunk-level retry, not scan-level, so a long log
        recovering through a fault window does not restart from byte
        zero on every hiccup.  A chunk that stays unreadable propagates
        to the caller, which owns recovery-level retries.  Returns the
        durable (key, size) records — the torn tail, having no
        committed checksums, contributes read IO but no records.
        """
        pos = 0
        while pos < self.file.size:
            length = min(chunk, self.file.size - pos)
            attempts = 0
            while True:
                try:
                    yield self.file.read(pos, length, tag=tag)
                    break
                except (CorruptionError, DeviceError):
                    attempts += 1
                    if attempts > read_retries:
                        raise
            pos += length
        return list(self.entries)

"""Posix-style IO interface with task marking (§5).

The paper's Libra is used by replacing an engine's IO system calls with
wrappers and marking each thread of execution with its current request
context.  ``LibraIo`` mirrors that surface for code that prefers an
ambient tag over explicit threading: mark the current task, then issue
``pread``/``pwrite`` without passing the tag each time.

Inside the DES, code between two yields runs atomically, so the ambient
tag is safe as long as a marked section does not yield while expecting
the mark to survive — the same discipline the paper's coroutine-local
marking imposes.  The persistence engine threads tags explicitly
instead; this wrapper exists for applications and examples.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from ..sim import Event
from .scheduler import LibraScheduler
from .tags import InternalOp, IoTag, RequestClass

__all__ = ["LibraIo"]


class LibraIo:
    """System-call-shaped wrappers around the Libra scheduler."""

    def __init__(self, scheduler: LibraScheduler):
        self.scheduler = scheduler
        self._current: Optional[IoTag] = None

    # -- task marking ------------------------------------------------------------

    @contextmanager
    def task(
        self,
        tenant: str,
        request: RequestClass = RequestClass.RAW,
        internal: Optional[InternalOp] = None,
    ) -> Iterator[IoTag]:
        """Mark the current task; IO inside the block carries the tag."""
        tag = IoTag(tenant, request, internal)
        previous, self._current = self._current, tag
        try:
            yield tag
        finally:
            self._current = previous

    @property
    def current_tag(self) -> Optional[IoTag]:
        """The ambient tag, if any."""
        return self._current

    # -- IO wrappers --------------------------------------------------------------

    def pread(self, offset: int, size: int, tag: Optional[IoTag] = None) -> Event:
        """Tagged positional read through the scheduler."""
        return self.scheduler.read(offset, size, tag=self._resolve(tag))

    def pwrite(self, offset: int, size: int, tag: Optional[IoTag] = None) -> Event:
        """Tagged positional write through the scheduler."""
        return self.scheduler.write(offset, size, tag=self._resolve(tag))

    def trim(self, offset: int, size: int) -> None:
        """Discard a logical range (deallocation hint)."""
        self.scheduler.trim_extents([(offset, size)])

    def _resolve(self, tag: Optional[IoTag]) -> IoTag:
        resolved = tag or self._current
        if resolved is None:
            raise ValueError(
                "no IoTag: pass one explicitly or mark the task with LibraIo.task()"
            )
        return resolved

"""Span tracing in simulated time, with Chrome trace-event export.

A :class:`Tracer` collects **spans** — named intervals of simulated
time on a (process, thread) track, optionally keyed by a per-request
trace id — from every layer of the stack: the cluster client, RPC
endpoints, the storage node's request path, the DDRR scheduler's
queue-wait/service split, the engine's WAL/FLUSH/COMPACT work, and the
SSD's controller/channel stages.

Design contract (the reason reproduced numbers cannot move):

- **Zero cost when absent.**  Every instrumentation point is guarded
  by ``tr = self.tracer`` / ``if tr is not None``; with
  no tracer installed (the default everywhere) the hot paths pay one
  attribute load and a ``None`` test.
- **Observation only.**  A tracer never schedules simulator events,
  never touches the RNG, and never mutates simulation state: recording
  a span is a list append.  Same-seed runs with tracing enabled are
  therefore byte-identical to untraced runs (tested in
  ``tests/test_obs.py``), and two traced runs produce byte-identical
  span logs.
- **Deterministic export.**  Chrome-trace pid/tid integers are
  assigned in first-appearance order, so the exported JSON is a pure
  function of the simulation trajectory.

Trace ids are plain monotonically increasing ints handed out by
:meth:`Tracer.new_trace` at the request's entry point (client or node)
and propagated by value — through RPC payloads, :class:`IoTag` fields,
and scheduler chunks — so a GET's WAL-append, queue-wait, and channel
spans all carry the same id and chrome://tracing can follow one
request across every track.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Tracer", "SPAN_FIELDS"]

#: positional layout of one recorded span tuple
SPAN_FIELDS = ("name", "cat", "pid", "tid", "start", "end", "trace", "args")


class Tracer:
    """An append-only span log over simulated time.

    ``pid`` and ``tid`` are human-readable track names (e.g.
    ``"node0"`` / ``"alice"``, ``"node0.ssd"`` / ``"chan3"``); the
    Chrome exporter maps them to stable integers.  ``start``/``end``
    are simulated seconds.  ``trace`` is the per-request trace id (or
    None for background/unattributed work); ``args`` is an optional
    dict of extra attributes shown in the trace viewer.
    """

    __slots__ = ("spans", "_next_trace")

    def __init__(self):
        self.spans: List[Tuple] = []
        self._next_trace = 0

    # -- recording ---------------------------------------------------------

    def new_trace(self) -> int:
        """Allocate the next per-request trace id (1, 2, 3, ...)."""
        self._next_trace += 1
        return self._next_trace

    def span(
        self,
        name: str,
        cat: str,
        pid: str,
        tid: str,
        start: float,
        end: float,
        trace: Optional[int] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record one completed interval."""
        self.spans.append((name, cat, pid, tid, start, end, trace, args))

    def clear(self) -> None:
        self.spans = []

    @property
    def span_count(self) -> int:
        return len(self.spans)

    # -- queries -----------------------------------------------------------

    def select(self, cat: Optional[str] = None, name: Optional[str] = None) -> List[Tuple]:
        """Spans filtered by category and/or name (analysis helper)."""
        return [
            s
            for s in self.spans
            if (cat is None or s[1] == cat) and (name is None or s[0] == name)
        ]

    # -- Chrome trace-event export ----------------------------------------

    def chrome_events(self) -> List[Dict[str, Any]]:
        """The span log as Chrome trace-event dicts (``chrome://tracing``).

        Emits one ``"X"`` (complete) event per span with microsecond
        timestamps, preceded by ``"M"`` metadata events naming each
        process and thread track.  pid/tid integers are assigned in
        first-appearance order, so the output is deterministic.
        """
        pids: Dict[str, int] = {}
        tids: Dict[Tuple[str, str], int] = {}
        events: List[Dict[str, Any]] = []
        body: List[Dict[str, Any]] = []
        for name, cat, pid, tid, start, end, trace, args in self.spans:
            pnum = pids.get(pid)
            if pnum is None:
                pnum = pids[pid] = len(pids) + 1
                events.append(
                    {
                        "ph": "M", "name": "process_name", "pid": pnum, "tid": 0,
                        "args": {"name": pid},
                    }
                )
            tkey = (pid, tid)
            tnum = tids.get(tkey)
            if tnum is None:
                tnum = tids[tkey] = len(tids) + 1
                events.append(
                    {
                        "ph": "M", "name": "thread_name", "pid": pnum, "tid": tnum,
                        "args": {"name": tid},
                    }
                )
            event: Dict[str, Any] = {
                "ph": "X",
                "name": name,
                "cat": cat,
                "pid": pnum,
                "tid": tnum,
                "ts": round(start * 1e6, 3),
                "dur": round(max(end - start, 0.0) * 1e6, 3),
            }
            extra = dict(args) if args else {}
            if trace is not None:
                extra["trace"] = trace
            if extra:
                event["args"] = extra
            body.append(event)
        return events + body

    def export_chrome(self, path: str) -> str:
        """Write the Chrome trace JSON to ``path``; returns the path."""
        payload = {"traceEvents": self.chrome_events(), "displayTimeUnit": "ms"}
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            fh.write("\n")
        return path

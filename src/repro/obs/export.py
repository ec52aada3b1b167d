"""Reports over traces and audits: waterfalls and latency breakdowns.

Two views, both plain text (the repo's figures are tables):

- :func:`waterfall_report` — per-tenant *request → IO → VOP* waterfall
  from a :class:`~repro.obs.audit.VopAudit` ledger plus node request
  stats: how many requests the tenant issued, how many device IOs
  (direct vs WAL/flush/compaction amplification) they decomposed
  into, and how many VOPs those IOs were charged.
- :func:`latency_breakdown` — queue-wait vs service time per tenant
  from a :class:`~repro.obs.trace.Tracer`'s scheduler spans, the
  Fig 5/6-style decomposition of where a request's time actually went.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.report import format_table
from .audit import VopAudit
from .trace import Tracer

__all__ = ["waterfall_report", "latency_breakdown"]


def waterfall_report(
    audit: VopAudit,
    requests: Optional[Dict[str, int]] = None,
    title: str = "request -> IO -> VOP waterfall",
) -> str:
    """Per-tenant decomposition of requests into device IOs and VOPs.

    ``requests`` maps tenant -> application request count (from node
    ``RequestStats``); without it the request column is omitted and the
    table shows the IO/VOP decomposition alone.
    """
    per_tenant: Dict[str, Dict[str, Tuple[int, int, float]]] = {}
    for tenant, request, internal, entry in audit.ledger_rows():
        path = f"{request}/{internal}" if internal != "direct" else request
        per_tenant.setdefault(tenant, {})[path] = (entry.ops, entry.bytes, entry.vops)
    rows: List[List[object]] = []
    for tenant in sorted(per_tenant):
        paths = per_tenant[tenant]
        total_ios = sum(ops for ops, _, _ in paths.values())
        total_vops = sum(vops for _, _, vops in paths.values())
        first = True
        for path in sorted(paths):
            ops, nbytes, vops = paths[path]
            row: List[object] = [tenant if first else "", path]
            if requests is not None:
                row.append(requests.get(tenant, 0) if first else "")
            row += [ops, f"{nbytes / 1024:.0f}", f"{vops:.1f}",
                    f"{100.0 * vops / total_vops:.1f}%" if total_vops else "-"]
            rows.append(row)
            first = False
        summary: List[object] = [tenant, "= total"]
        if requests is not None:
            summary.append("")
        summary += [total_ios, "", f"{total_vops:.1f}", "100.0%"]
        rows.append(summary)
    headers = ["tenant", "path"]
    if requests is not None:
        headers.append("requests")
    headers += ["ios", "KiB", "vops", "share"]
    return format_table(headers, rows, title=title)


def latency_breakdown(
    tracer: Tracer,
    title: str = "scheduler queue-wait vs service (per tenant)",
) -> str:
    """Queue-wait vs service means per tenant, from scheduler spans.

    Consumes ``cat="sched"`` spans named ``"queue"`` and ``"service"``
    (one of each per dispatched chunk; ``tid`` is the tenant).  Means
    are exact; the wait share column shows how much of a chunk's
    scheduler-resident time was spent waiting for its deficit grant
    rather than being serviced by the device.
    """
    waits: Dict[str, Tuple[int, float]] = {}
    services: Dict[str, Tuple[int, float]] = {}
    for name, _cat, _pid, tid, start, end, _trace, _args in tracer.select(cat="sched"):
        bucket = waits if name == "queue" else services if name == "service" else None
        if bucket is None:
            continue
        count, total = bucket.get(tid, (0, 0.0))
        bucket[tid] = (count + 1, total + (end - start))
    rows = []
    for tenant in sorted(set(waits) | set(services)):
        n_wait, wait_total = waits.get(tenant, (0, 0.0))
        n_svc, svc_total = services.get(tenant, (0, 0.0))
        wait_mean = wait_total / n_wait * 1e3 if n_wait else 0.0
        svc_mean = svc_total / n_svc * 1e3 if n_svc else 0.0
        resident = wait_total + svc_total
        share = 100.0 * wait_total / resident if resident else 0.0
        rows.append(
            [tenant, n_svc, f"{wait_mean:.3f}", f"{svc_mean:.3f}", f"{share:.1f}%"]
        )
    return format_table(
        ["tenant", "chunks", "wait ms", "service ms", "wait share"],
        rows,
        title=title,
    )

"""Request/response RPC over the fabric.

An :class:`RpcEndpoint` pairs a fabric NIC with a method dispatch
table.  Calls carry correlation ids; each attempt waits for its
response under a per-attempt deadline (one armed deadline per endpoint,
see :class:`~repro.sim.DeadlineQueue`) and retries with exponential
backoff — the same budget shape
:class:`~repro.node.server.StorageNode` uses for
device faults, because the failure modes rhyme: a dropped message, a
dead peer, and a congested NIC all look like silence to the caller.

Handlers are DES generators and must be **idempotent**: a duplicated
request (MSG_DUP window, or a retry whose original attempt actually
landed) runs the handler again.  Replica applies are sequence-
idempotent and KV writes are last-writer-wins per key, so the storage
handlers satisfy this by construction.  Duplicate responses are ignored
(the correlation id is consumed by the first).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..faults import NetworkFault, NodeUnreachable, RetriesExhausted, RpcTimeout
from ..sim import DeadlineQueue, Event, Simulator
from .fabric import NetConfig, NetworkFabric

__all__ = ["RpcError", "RpcStats", "RpcMessage", "RpcEndpoint"]

#: bytes a bare acknowledgement response occupies on the wire
ACK_BYTES = 16


class RpcError(NetworkFault):
    """A handler raised; the exception text travels back to the caller."""


@dataclass
class RpcStats:
    """Per-endpoint RPC counters."""

    calls: int = 0
    #: completed request/response exchanges, as seen by this caller
    round_trips: int = 0
    retries: int = 0
    timeouts: int = 0
    failures: int = 0
    #: requests this endpoint served as the callee
    served: int = 0
    casts: int = 0


class RpcMessage:
    """One message on the wire (request, response, or one-way cast).

    ``trace`` is the originating request's trace id (see
    :mod:`repro.obs.trace`), carried by value so a request's spans on
    the serving node join the caller's trace; None when tracing is off.
    Treated as immutable: nothing mutates a message once sent.
    """

    __slots__ = ("kind", "src", "corr_id", "method", "payload", "ok", "trace")

    def __init__(self, kind: str, src: str, corr_id: int, method: str = "",
                 payload: Any = None, ok: bool = True, trace: Optional[int] = None):
        self.kind = kind  # "req" | "resp" | "cast"
        self.src = src
        self.corr_id = corr_id
        self.method = method
        self.payload = payload
        self.ok = ok
        self.trace = trace

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"RpcMessage({fields})"


class RpcEndpoint:
    """One named party on the fabric: caller and callee in one."""

    def __init__(
        self,
        sim: Simulator,
        fabric: NetworkFabric,
        name: str,
        config: Optional[NetConfig] = None,
        tracer=None,
    ):
        self.sim = sim
        self.fabric = fabric
        self.name = name
        self.config = config or fabric.config
        #: optional repro.obs Tracer recording call round-trip and
        #: server-side handler spans
        self.tracer = tracer
        self.nic = fabric.attach(name, self._on_message)
        self.stats = RpcStats()
        #: per-endpoint RNG for retry-backoff jitter, seeded from the
        #: endpoint *name* (stable across runs — never Python's salted
        #: hash) so same-seed runs draw identical jitter while distinct
        #: endpoints decorrelate.  Drawn only on retries: fault-free
        #: runs consume no randomness (the repo-wide determinism rule).
        self._jitter_rng = random.Random(zlib.crc32(name.encode()) ^ 0x1277E4)
        #: method -> generator function(payload) -> (result, reply_bytes)
        self._methods: Dict[str, Callable] = {}
        #: one-way method -> plain function(payload) -> None
        self._cast_methods: Dict[str, Callable[[Any], None]] = {}
        self._waiting: Dict[int, Event] = {}  # corr_id -> response Event
        self._next_id = 0
        #: per-attempt deadlines: FIFO, as rpc_timeout is one constant here
        self._deadlines = DeadlineQueue(sim, self._waiting.__contains__, self._expire)

    # -- registration ------------------------------------------------------

    def register(self, method: str, handler: Callable) -> None:
        """Register a request handler: a DES generator returning
        ``(result, reply_bytes)``."""
        self._methods[method] = handler

    def register_cast(self, method: str, handler: Callable[[Any], None]) -> None:
        """Register a one-way handler (no response, plain callable)."""
        self._cast_methods[method] = handler

    # -- client side -------------------------------------------------------

    def cast(self, target: str, method: str, payload: Any, nbytes: int) -> None:
        """Fire-and-forget message (heartbeats, notifications)."""
        self.stats.casts += 1
        self.fabric.send(
            self.name,
            target,
            nbytes,
            RpcMessage(kind="cast", src=self.name, corr_id=0, method=method,
                       payload=payload),
        )

    def call(self, target: str, method: str, payload: Any, nbytes: int,
             trace: Optional[int] = None,
             give_up: Optional[Callable[[], bool]] = None):
        """DES generator: request/response with retries and backoff.

        Raises :class:`RetriesExhausted` (cause: the final
        :class:`~repro.faults.RpcTimeout` or :class:`RpcError`) once the
        budget is spent.  A target the membership layer already marked
        dead fails fast with :class:`~repro.faults.NodeUnreachable`
        wrapped the same way — re-resolution is the caller's job.

        ``give_up()`` is consulted after each failed attempt: returning
        True abandons the remaining retry budget immediately (wrapped in
        :class:`RetriesExhausted` with :class:`NodeUnreachable` as the
        cause).  Callers use it to stop hammering a target the failure
        detector has since declared dead instead of burning the full
        budget on an endpoint that will never answer.

        Retry backoff doubles per attempt and carries deterministic
        per-endpoint jitter (``config.rpc_jitter``), so the retry storm
        after a partition heal spreads out instead of re-synchronizing
        into timeout waves.
        """
        cfg = self.config
        attempt = 0
        while True:
            try:
                result = yield from self.call_once(
                    target, method, payload, nbytes, trace=trace
                )
                return result
            except NetworkFault as exc:
                attempt += 1
                self.stats.retries += 1
                if give_up is not None and give_up():
                    self.stats.failures += 1
                    raise RetriesExhausted(
                        f"{self.name}: rpc {method} to {target} abandoned "
                        f"after {attempt} attempts (target declared dead)"
                    ) from NodeUnreachable(
                        f"{self.name}: target node {target} is marked down"
                    )
                if attempt > cfg.rpc_retries:
                    self.stats.failures += 1
                    raise RetriesExhausted(
                        f"{self.name}: rpc {method} to {target} failed after "
                        f"{cfg.rpc_retries} retries"
                    ) from exc
                backoff = cfg.rpc_backoff * (2 ** (attempt - 1))
                if cfg.rpc_jitter > 0.0:
                    backoff *= 1.0 + cfg.rpc_jitter * self._jitter_rng.random()
                yield self.sim.timeout(backoff)

    def call_once(self, target: str, method: str, payload: Any, nbytes: int,
                  trace: Optional[int] = None):
        """DES generator: a single attempt against the response budget."""
        self.stats.calls += 1
        self._next_id += 1
        corr_id = self._next_id
        sim = self.sim
        started = sim.now
        response = Event(sim)
        self._waiting[corr_id] = response
        self.fabric.send(
            self.name,
            target,
            nbytes,
            RpcMessage(kind="req", src=self.name, corr_id=corr_id, method=method,
                       payload=payload, trace=trace),
        )
        self._deadlines.add(started + self.config.rpc_timeout, corr_id)
        # The response message, or None once the deadline passed.
        reply = yield response
        if reply is None:
            self.stats.timeouts += 1
            raise RpcTimeout(
                f"{self.name}: rpc {method} to {target} got no response in "
                f"{self.config.rpc_timeout:.3f}s"
            )
        self.stats.round_trips += 1
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.span(
                f"rpc.{method}", "net", self.name, target,
                started, sim.now, trace=trace,
                args={"bytes": nbytes, "ok": reply.ok},
            )
        if not reply.ok:
            raise reply.payload
        return reply.payload

    def _expire(self, corr_id: int) -> None:
        """The attempt's deadline passed unanswered: wake it empty-handed
        (a response that still arrives finds no waiter and is ignored)."""
        self._waiting.pop(corr_id).succeed(None)

    # -- server side -------------------------------------------------------

    def _on_message(self, message: RpcMessage) -> None:
        if message.kind == "resp":
            waiter = self._waiting.pop(message.corr_id, None)
            if waiter is not None:  # else: duplicate or post-timeout response
                waiter.succeed(message)
            return
        if message.kind == "cast":
            handler = self._cast_methods.get(message.method)
            if handler is not None:
                handler(message.payload)
            return
        self.stats.served += 1
        self.sim.process(self._serve(message), name="rpc.serve")

    def _serve(self, message: RpcMessage):
        handler = self._methods.get(message.method)
        if handler is None:
            self._respond(
                message, ok=False,
                payload=RpcError(f"{self.name}: no method {message.method!r}"),
                nbytes=ACK_BYTES,
            )
            return
        started = self.sim.now
        try:
            result, reply_bytes = yield from handler(message.payload)
        except Exception as exc:  # noqa: BLE001 - travels back to the caller
            self._respond(
                message, ok=False,
                payload=RpcError(f"{message.method} on {self.name}: {exc}"),
                nbytes=ACK_BYTES,
            )
            return
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.span(
                f"serve.{message.method}", "net", self.name, message.src,
                started, self.sim.now, trace=message.trace,
            )
        self._respond(message, ok=True, payload=result, nbytes=reply_bytes)

    def _respond(
        self, request: RpcMessage, ok: bool, payload: Any, nbytes: int
    ) -> None:
        self.fabric.send(
            self.name,
            request.src,
            nbytes,
            RpcMessage(kind="resp", src=self.name, corr_id=request.corr_id,
                       payload=payload, ok=ok, trace=request.trace),
        )


# A call site sometimes needs the unreachable-fast-fail without a real
# message: shared here so the client and replication layers agree on it.
def unreachable(name: str, target: str) -> NodeUnreachable:
    return NodeUnreachable(f"{name}: target node {target} is marked down")

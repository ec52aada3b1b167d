"""Request/response RPC over the fabric.

An :class:`RpcEndpoint` pairs a fabric NIC with a method dispatch
table.  Calls carry correlation ids; each attempt waits for its
response under a per-attempt deadline (one armed deadline per endpoint,
see :class:`~repro.sim.DeadlineQueue`) and retries with exponential
backoff — the same budget shape
:class:`~repro.node.server.StorageNode` uses for
device faults, because the failure modes rhyme: a dropped message, a
dead peer, and a congested NIC all look like silence to the caller.

One retry/give-up/backoff policy has two drivers.  :meth:`RpcEndpoint.call`
is a DES generator for callers that park on the reply;
:meth:`RpcEndpoint.call_async` reports to a ``done(ok, value)`` callback
for callers that only relay it (replica shipping).  Each continuation of
``call_async`` is queued where the generator's resume would have been,
so the two produce the same trajectory.  A response's delivery
queues its waiter's wake-up, and a request's its handler's start, like
any other action due now.

Handlers are DES generators and must be **idempotent**: a duplicated
request (MSG_DUP window, or a retry whose original attempt actually
landed) runs the handler again.  Replica applies are sequence-
idempotent and KV writes are last-writer-wins per key, so the storage
handlers satisfy this by construction.  Duplicate responses are ignored
(the correlation id is consumed by the first).  A handler registered
with :meth:`RpcEndpoint.register_async` is a plain function that answers
later through :meth:`RpcEndpoint.reply` / :meth:`RpcEndpoint.reply_error`
instead of a generator parked in a serve process.
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


class _AsyncCall:
    """One :meth:`RpcEndpoint.call_async` in flight.

    It is its own waiter in the endpoint's ``_waiting`` table: where an
    :class:`Event` would queue its dispatch, :meth:`succeed` queues
    :meth:`finish`, so the response and expiry paths cannot tell the two
    drivers apart.
    """

    __slots__ = ("endpoint", "target", "method", "payload", "nbytes", "done",
                 "trace", "give_up", "attempt", "started", "reply")

    def succeed(self, reply) -> None:
        self.reply = reply
        sim = self.endpoint.sim
        # Scheduled as a plain function of the call: no bound method.
        sim.call_at(sim.now, _AsyncCall.finish, self)

    def finish(self) -> None:
        """Classify the attempt's reply; answer ``done`` or retry."""
        endpoint = self.endpoint
        reply = self.reply
        self.reply = None
        failure = endpoint._reply_failure(
            reply, self.target, self.method, self.nbytes, self.trace, self.started
        )
        if failure is None:
            self.done(True, reply.payload)
            return
        self.attempt += 1
        try:
            backoff = endpoint._retry_after(
                self.attempt, failure, self.target, self.method, self.give_up
            )
        except RetriesExhausted as exc:
            self.done(False, exc)
            return
        sim = endpoint.sim
        sim.call_at(sim.now + backoff, _AsyncCall.retry, self)

    def retry(self) -> None:
        self.started = self.endpoint._send_request(
            self.target, self.method, self.payload, self.nbytes, self.trace, self
        )


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
        #: method -> plain function(request message), answering later
        #: through reply/reply_error
        self._async_methods: Dict[str, Callable[[RpcMessage], None]] = {}
        #: one-way method -> plain function(payload) -> None
        self._cast_methods: Dict[str, Callable[[Any], None]] = {}
        #: corr_id -> the attempt's waiter (an Event, or an _AsyncCall)
        self._waiting: Dict[int, Any] = {}
        self._next_id = 0
        #: per-attempt deadlines: FIFO, as rpc_timeout is one constant here
        self._deadlines = DeadlineQueue(sim, self._waiting.__contains__, self._expire)

    # -- registration ------------------------------------------------------

    def register(self, method: str, handler: Callable) -> None:
        """Register a request handler: a DES generator returning
        ``(result, reply_bytes)``."""
        self._methods[method] = handler

    def register_async(self, method: str, handler: Callable[[RpcMessage], None]) -> None:
        """Register a handler that answers later: a plain function of
        the request message, queued where a :meth:`register` handler's
        serve process would start, which must eventually answer through
        :meth:`reply` or :meth:`reply_error` and must not raise."""
        self._async_methods[method] = handler

    def register_cast(self, method: str, handler: Callable[[Any], None]) -> None:
        """Register a one-way handler (no response, plain callable)."""
        self._cast_methods[method] = handler

    # -- client side -------------------------------------------------------

    def cast(self, target: str, method: str, payload: Any, nbytes: int) -> None:
        """Fire-and-forget message (heartbeats, notifications)."""
        self.stats.casts += 1
        self.fabric.send(
            self.name, target, nbytes, RpcMessage("cast", self.name, 0, method, payload)
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
        attempt = 0
        while True:
            response = Event(self.sim)
            started = self._send_request(target, method, payload, nbytes, trace, response)
            reply = yield response
            failure = self._reply_failure(reply, target, method, nbytes, trace, started)
            if failure is None:
                return reply.payload
            attempt += 1
            yield self.sim.timeout(self._retry_after(attempt, failure, target, method, give_up))

    def call_async(self, target: str, method: str, payload: Any, nbytes: int,
                   done: Callable[[bool, Any], None], trace: Optional[int] = None,
                   give_up: Optional[Callable[[], bool]] = None) -> None:
        """:meth:`call` for a caller that is a callback, not a process.

        Sends the first attempt now.  ``done(True, result)`` or
        ``done(False, RetriesExhausted)`` runs exactly where :meth:`call`
        would return or raise into its caller, and every retry waits on
        a scheduled call where :meth:`call` would wait on a ``Timeout``
        — the same policy, budget and trajectory, with no generator.
        """
        pending = _AsyncCall()
        pending.endpoint = self
        pending.target = target
        pending.method = method
        pending.payload = payload
        pending.nbytes = nbytes
        pending.done = done
        pending.trace = trace
        pending.give_up = give_up
        pending.attempt = 0
        pending.started = self._send_request(target, method, payload, nbytes, trace, pending)

    # -- one attempt, shared by both drivers ---------------------------------

    def _send_request(self, target: str, method: str, payload: Any, nbytes: int,
                      trace: Optional[int], waiter) -> float:
        """Register ``waiter`` under a fresh correlation id, send the
        request and arm its deadline; returns the send time."""
        self.stats.calls += 1
        self._next_id += 1
        corr_id = self._next_id
        started = self.sim.now
        self._waiting[corr_id] = waiter
        self.fabric.send(
            self.name, target, nbytes,
            RpcMessage("req", self.name, corr_id, method, payload, True, trace),
        )
        self._deadlines.add(started + self.config.rpc_timeout, corr_id)
        return started

    def _reply_failure(self, reply: Optional[RpcMessage], target: str, method: str,
                       nbytes: int, trace: Optional[int],
                       started: float) -> Optional[NetworkFault]:
        """Classify an attempt's outcome: None when it succeeded, else the
        :class:`~repro.faults.RpcTimeout` (no reply: the deadline passed)
        or :class:`RpcError` (the handler raised) that failed it."""
        if reply is None:
            self.stats.timeouts += 1
            return RpcTimeout(
                f"{self.name}: rpc {method} to {target} got no response in "
                f"{self.config.rpc_timeout:.3f}s"
            )
        self.stats.round_trips += 1
        tr = self.tracer
        if tr is not None:
            tr.span(
                f"rpc.{method}", "net", self.name, target,
                started, self.sim.now, trace=trace,
                args={"bytes": nbytes, "ok": reply.ok},
            )
        return None if reply.ok else reply.payload

    def _retry_after(self, attempt: int, failure: NetworkFault, target: str,
                     method: str, give_up: Optional[Callable[[], bool]]) -> float:
        """Count failed attempt ``attempt`` and return the backoff before
        the next one, or raise :class:`RetriesExhausted` when the caller
        gives up or the budget is spent."""
        cfg = self.config
        self.stats.retries += 1
        if give_up is not None and give_up():
            self.stats.failures += 1
            raise RetriesExhausted(
                f"{self.name}: rpc {method} to {target} abandoned "
                f"after {attempt} attempts (target declared dead)"
            ) from NodeUnreachable(f"{self.name}: target node {target} is marked down")
        if attempt > cfg.rpc_retries:
            self.stats.failures += 1
            raise RetriesExhausted(
                f"{self.name}: rpc {method} to {target} failed after "
                f"{cfg.rpc_retries} retries"
            ) from failure
        backoff = cfg.rpc_backoff * (2 ** (attempt - 1))
        if cfg.rpc_jitter > 0.0:
            backoff *= 1.0 + cfg.rpc_jitter * self._jitter_rng.random()
        return backoff

    def _expire(self, corr_id: int) -> None:
        """The attempt's deadline passed unanswered: wake it empty-handed
        (a response that still arrives finds no waiter and is ignored)."""
        self._waiting.pop(corr_id).succeed(None)

    # -- server side -------------------------------------------------------

    def _on_message(self, message: RpcMessage) -> None:
        """The fabric's delivery of ``message``."""
        kind = message.kind
        if kind == "resp":
            waiter = self._waiting.pop(message.corr_id, None)
            if waiter is not None:  # else: duplicate or post-timeout response
                waiter.succeed(message)
            return
        if kind == "cast":
            handler = self._cast_methods.get(message.method)
            if handler is not None:
                handler(message.payload)
            return
        self.stats.served += 1
        handler = self._async_methods.get(message.method)
        if handler is not None:
            self.sim.call_at(self.sim.now, handler, message)
        else:
            self.sim.process(self._serve(message), name="rpc.serve")

    def _serve(self, message: RpcMessage):
        handler = self._methods.get(message.method)
        if handler is None:
            self._reply_failed(message, RpcError(f"{self.name}: no method {message.method!r}"))
            return
        started = self.sim.now
        try:
            result, reply_bytes = yield from handler(message.payload)
        except Exception as exc:  # noqa: BLE001 - travels back to the caller
            self.reply_error(message, exc)
            return
        self.reply(message, result, reply_bytes, started)

    def reply(self, request: RpcMessage, result: Any, nbytes: int, started: float) -> None:
        """Answer ``request`` with ``result`` (``nbytes`` on the wire),
        recording the ``serve.<method>`` span from ``started`` when
        tracing — what a serve process does after its handler returns."""
        tr = self.tracer
        if tr is not None:
            tr.span(
                f"serve.{request.method}", "net", self.name, request.src,
                started, self.sim.now, trace=request.trace,
            )
        self.fabric.send(
            self.name, request.src, nbytes,
            RpcMessage("resp", self.name, request.corr_id, "", result, True, request.trace),
        )

    def reply_error(self, request: RpcMessage, exc: BaseException) -> None:
        """Answer ``request`` with the handler's failure: its text
        travels back as an :class:`RpcError`."""
        self._reply_failed(request, RpcError(f"{request.method} on {self.name}: {exc}"))

    def _reply_failed(self, request: RpcMessage, error: RpcError) -> None:
        self.fabric.send(
            self.name, request.src, ACK_BYTES,
            RpcMessage("resp", self.name, request.corr_id, "", error, False, request.trace),
        )

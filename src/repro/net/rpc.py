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
so the two produce the same trajectory.  Each message an endpoint sends
over its link to a peer names the receiving endpoint's handler for its
kind (request, response or cast), which its arrival runs directly.

A :meth:`RpcEndpoint.register` handler is a DES generator returning
``(result, reply_bytes)``, run in a serve process that sends the reply
(or the :class:`RpcError` its exception becomes); a
:meth:`RpcEndpoint.register_async` one answers for itself.  Handlers
must be **idempotent**: a duplicated request (MSG_DUP window, or a retry
whose original attempt actually landed) runs the handler again.  Replica
applies are sequence-idempotent and KV writes are last-writer-wins per
key, so the storage handlers satisfy this by construction.  Duplicate
responses are ignored (the correlation id is consumed by the first).
"""

from __future__ import annotations

import random
import zlib
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from inspect import isgeneratorfunction
from types import SimpleNamespace
from typing import Any, Callable, Dict, Optional, Tuple

from ..faults import NetworkFault, NodeUnreachable, RetriesExhausted, RpcTimeout
from ..sim import DeadlineQueue, Event, Process, Simulator
from .fabric import NetConfig, NetworkFabric, _drop

__all__ = ["RpcError", "RpcStats", "RpcMessage", "RpcReply", "RpcEndpoint"]

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


class RpcMessage(namedtuple("RpcMessage", "kind src corr_id method payload trace")):
    """One request (``kind`` "req") or one-way cast ("cast") on the wire.

    ``trace`` is the originating request's trace id (see
    :mod:`repro.obs.trace`), carried by value so a request's spans on
    the serving node join the caller's trace; None when tracing is off.
    Endpoints build messages with ``_new``: no constructor frame.
    """

    __slots__ = ()


class RpcReply(namedtuple("RpcReply", "src corr_id payload ok")):
    """One response on the wire: the answer from ``src`` to the attempt
    ``corr_id``, carrying the result (``ok``) or an :class:`RpcError`."""

    __slots__ = ()


#: builds a message tuple without an interpreted constructor
_new = tuple.__new__
#: the receiver of a message to a name no endpoint is attached as
_UNATTACHED = SimpleNamespace(_on_request=_drop, _on_response=_drop, _on_cast=_drop)


class _AsyncCall:
    """One :meth:`RpcEndpoint.call_async` in flight.

    It is its own waiter in the endpoint's ``_waiting`` table: where an
    :class:`Event` would queue its dispatch, :meth:`succeed` queues
    :meth:`finish`, so the response and expiry paths cannot tell the two
    drivers apart.
    """

    __slots__ = ("endpoint", "target", "method", "payload", "nbytes", "done",
                 "trace", "give_up", "attempt", "started")

    def __init__(self, endpoint, target, method, payload, nbytes, done, trace, give_up):
        self.endpoint = endpoint
        self.target = target
        self.method = method
        self.payload = payload
        self.nbytes = nbytes
        self.done = done
        self.trace = trace
        self.give_up = give_up
        self.attempt = 0

    def send(self) -> None:
        """Send the next attempt."""
        self.started = self.endpoint._send_request(
            self.target, self.method, self.payload, self.nbytes, self.trace, self
        )

    def succeed(self, reply) -> None:
        sim = self.endpoint.sim
        sim.call_at(sim.now, self.finish, reply)

    def finish(self, reply: Optional["RpcReply"]) -> None:
        """Classify the attempt's reply; answer ``done`` or retry."""
        if reply is not None and reply.ok and self.endpoint.tracer is None:
            self.endpoint.stats.round_trips += 1
            self.done(True, reply.payload)
            return
        endpoint = self.endpoint
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
        sim.call_at(sim.now + backoff, _AsyncCall.send, self)


class _Peer:
    """A peer as an endpoint sends to it: the send of the fabric link to
    it, and the receiving endpoint's handler for each kind of message."""

    __slots__ = ("send", "request", "response", "cast")

    def __init__(self, send: Callable, receiver: Any):
        self.send = send
        self.request = receiver._on_request
        self.response = receiver._on_response
        self.cast = receiver._on_cast


class _Peers(dict):
    """An endpoint's peers by name, resolved on the first message and
    kept once attached (a message to a name nothing is attached as is
    dropped)."""

    __slots__ = ("fabric", "name")

    def __init__(self, fabric: NetworkFabric, name: str):
        super().__init__()
        self.fabric = fabric
        self.name = name

    def __missing__(self, target: str) -> _Peer:
        receiver = self.fabric._handlers.get(target)
        peer = _Peer(self.fabric.link(self.name, target).send, receiver or _UNATTACHED)
        if receiver is not None:
            self[target] = peer
        return peer


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
        self.nic = fabric.attach(name, self)
        self.stats = RpcStats()
        #: per-endpoint RNG for retry-backoff jitter, seeded from the
        #: endpoint *name* (stable across runs — never Python's salted
        #: hash) so same-seed runs draw identical jitter while distinct
        #: endpoints decorrelate.  Drawn only on retries: fault-free
        #: runs consume no randomness (the repo-wide determinism rule).
        self._jitter_rng = random.Random(zlib.crc32(name.encode()) ^ 0x1277E4)
        #: method -> (handler of the request message, True when it
        #: returns a generator to run as the request's process)
        self._methods: Dict[str, Tuple[Callable, bool]] = {}
        #: one-way method -> plain function(payload) -> None
        self._cast_methods: Dict[str, Callable[[Any], None]] = {}
        self._peers = _Peers(fabric, name)
        #: corr_id -> the attempt's waiter (an Event, or an _AsyncCall)
        self._waiting: Dict[int, Any] = {}
        self._next_id = 0
        self._timeout = self.config.rpc_timeout
        #: per-attempt deadlines: FIFO, as rpc_timeout is one constant here
        self._deadlines = DeadlineQueue(sim, self._waiting.__contains__, self._expire)

    # -- registration ------------------------------------------------------

    def register(self, method: str, handler: Callable) -> None:
        """Register a request handler: a DES generator function of the
        request message returning ``(result, reply_bytes)``, run in a
        serve process; an exception it raises travels back to the caller
        as an :class:`RpcError`."""
        self._methods[method] = (partial(self._serve, handler), True)

    def register_async(self, method: str, handler: Callable[[RpcMessage], Any]) -> None:
        """Register a handler of the request message that answers through
        :meth:`reply` or :meth:`reply_error` itself and must not raise: a
        plain function, queued where a serve process would start, or a
        generator function, started as that process."""
        self._methods[method] = (handler, isgeneratorfunction(handler))

    def register_cast(self, method: str, handler: Callable[[Any], None]) -> None:
        """Register a one-way handler (no response, plain callable)."""
        self._cast_methods[method] = handler

    # -- sending -----------------------------------------------------------

    def cast(self, target: str, method: str, payload: Any, nbytes: int) -> None:
        """Fire-and-forget message (heartbeats, notifications)."""
        self.stats.casts += 1
        peer = self._peers[target]
        peer.send(
            nbytes, _new(RpcMessage, ("cast", self.name, 0, method, payload, None)), peer.cast
        )

    # -- client side -------------------------------------------------------

    def call(self, target: str, method: str, payload: Any, nbytes: int,
             trace: Optional[int] = None,
             give_up: Optional[Callable[[], bool]] = None):
        """DES generator: request/response with retries and backoff.

        Raises :class:`RetriesExhausted` (cause: the final
        :class:`~repro.faults.RpcTimeout` or :class:`RpcError`) once the
        budget is spent.  The endpoint reads no membership: a dead
        target is silence, each attempt timing out.  ``give_up()`` is
        consulted after each failed attempt: True abandons the rest of
        the budget (wrapped in :class:`RetriesExhausted` with
        :class:`NodeUnreachable` as the cause), so a call to a target
        the failure detector declared dead ends one timeout after its
        first attempt.  Failing fast without any attempt is the caller's
        job (as :class:`~repro.net.client.ClusterClient` does).

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
            if reply is not None and reply.ok and self.tracer is None:
                self.stats.round_trips += 1
                return reply.payload
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
        _AsyncCall(self, target, method, payload, nbytes, done, trace, give_up).send()

    def fan_out(self, targets, method: str, payload: Any, nbytes: int,
                done: Callable[[bool, Any], None], trace: Optional[int] = None) -> None:
        """:meth:`call_async` to each of ``targets``, every first attempt
        queued for now, where a process per target would start."""
        sim = self.sim
        for target in targets:
            sim.call_at(
                sim.now, _AsyncCall.send,
                _AsyncCall(self, target, method, payload, nbytes, done, trace, None),
            )

    # -- one attempt, shared by both drivers ---------------------------------

    def _send_request(self, target: str, method: str, payload: Any, nbytes: int,
                      trace: Optional[int], waiter) -> float:
        """Register ``waiter`` under a fresh correlation id, send the
        request and arm its deadline; returns the send time."""
        self.stats.calls += 1
        corr_id = self._next_id + 1
        self._next_id = corr_id
        self._waiting[corr_id] = waiter
        peer = self._peers[target]
        peer.send(
            nbytes, _new(RpcMessage, ("req", self.name, corr_id, method, payload, trace)),
            peer.request,
        )
        started = self.sim.now
        self._deadlines.add(started + self._timeout, corr_id)
        return started

    def _reply_failure(self, reply: Optional[RpcReply], target: str, method: str,
                       nbytes: int, trace: Optional[int],
                       started: float) -> Optional[NetworkFault]:
        """Classify an attempt's outcome: None when it succeeded, else the
        :class:`~repro.faults.RpcTimeout` (no reply: the deadline passed)
        or :class:`RpcError` (the handler raised) that failed it.  Both
        drivers count an ok reply themselves when no tracer records it."""
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

    # -- delivery: one typed handler per kind of message --------------------

    def _dead_letter(self, message) -> None:
        """Count a message that arrived after this endpoint was killed."""
        self.fabric.link_stats[(message.src, self.name)].dead_letters += 1

    def _on_response(self, response: RpcReply) -> None:
        if self.nic.down:
            return self._dead_letter(response)
        try:
            waiter = self._waiting.pop(response.corr_id)
        except KeyError:  # a duplicate or post-timeout response
            return
        waiter.succeed(response)

    def _on_request(self, request: RpcMessage) -> None:
        if self.nic.down:
            return self._dead_letter(request)
        self.stats.served += 1
        try:
            handler, spawn = self._methods[request.method]
        except KeyError:
            handler, spawn = self._no_method, False
        if spawn:
            Process(self.sim, handler(request), "rpc.serve")
        else:
            self.sim.call_at(self.sim.now, handler, request)

    def _on_cast(self, message: RpcMessage) -> None:
        if self.nic.down:
            return self._dead_letter(message)
        handler = self._cast_methods.get(message.method)
        if handler is not None:
            handler(message.payload)

    # -- server side -------------------------------------------------------

    def _serve(self, handler: Callable, request: RpcMessage):
        """The serve process of a :meth:`register` handler."""
        started = self.sim.now
        try:
            result, reply_bytes = yield from handler(request)
        except Exception as exc:  # noqa: BLE001 - travels back to the caller
            self.reply_error(request, exc)
            return
        self.reply(request, result, reply_bytes, started)

    def _no_method(self, request: RpcMessage) -> None:
        self._reply_failed(request, RpcError(f"{self.name}: no method {request.method!r}"))

    def reply(self, request: RpcMessage, result: Any, nbytes: int, started: float) -> None:
        """Answer ``request`` with ``result`` (``nbytes`` on the wire),
        recording the ``serve.<method>`` span from ``started`` when
        tracing."""
        if self.tracer is not None:
            self.tracer.span(
                f"serve.{request.method}", "net", self.name, request.src,
                started, self.sim.now, trace=request.trace,
            )
        peer = self._peers[request.src]
        peer.send(nbytes, _new(RpcReply, (self.name, request.corr_id, result, True)), peer.response)

    def reply_error(self, request: RpcMessage, exc: BaseException) -> None:
        """Answer ``request`` with the handler's failure: its text
        travels back as an :class:`RpcError`."""
        self._reply_failed(request, RpcError(f"{request.method} on {self.name}: {exc}"))

    def _reply_failed(self, request: RpcMessage, error: RpcError) -> None:
        peer = self._peers[request.src]
        peer.send(
            ACK_BYTES, _new(RpcReply, (self.name, request.corr_id, error, False)), peer.response
        )

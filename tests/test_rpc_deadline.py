"""The event-lean RPC path, checked by counting and against the old race.

Three kinds of test:

- *growth tests*: the kernel queue an endpoint leaves behind must track
  the calls in flight, not the calls answered inside the last
  ``rpc_timeout``, and a fault-free round trip must cost a fixed number
  of kernel heap entries.  Counts, not wall-clock, so they are exact
  and belong in tier-1;
- *oracle and driver tests*: the ``Timeout`` + ``AnyOf`` race the RPC
  path used to run per attempt (``RaceEndpoint.call_once``), with the
  retry loop that drove it (``LegacyEndpoint``), stays here as the
  reference; under a seeded
  message-fault plan it, the coroutine callers of ``call`` and the
  ``fan_out`` callers that relay each reply through a callback must
  produce the same log and ``RpcStats`` and complete every call at the
  same simulated instant;
- *primitive tests*: :class:`~repro.sim.DeadlineQueue` on its own.
"""

import pytest

from .helpers import queue_counter
from repro.faults import (
    FaultKind,
    FaultPlan,
    FaultWindow,
    NetworkFault,
    RetriesExhausted,
    RpcTimeout,
)
from repro.net import NetConfig, NetworkFabric, RpcEndpoint
from repro.net.rpc import RpcMessage
from repro.sim import DeadlineQueue, SimulationError, Simulator


def instant(request):
    """A handler that returns without waiting."""
    return {"echo": request.payload}, 64
    yield  # pragma: no cover - makes this a generator


def closed_loop(client, calls, target="srv", log=None):
    """One caller: the next call goes out when the previous one ends."""
    sim = client.sim
    for i in range(calls):
        try:
            yield from client.call(target, "echo", i, 128)
            outcome = "ok"
        except RetriesExhausted as exc:
            outcome = type(exc.__cause__).__name__
        if log is not None:
            log.append((client.name, i, outcome, sim.now))


class CallbackLoop:
    """``closed_loop`` with a one-target ``fan_out``: the next call is
    queued from the previous call's ``done`` callback, with no process."""

    def __init__(self, client, calls, target="srv", log=None):
        self.client, self.calls, self.target, self.log = client, calls, target, log
        self.i = 0

    def start(self, _arg=None):
        self.client.fan_out((self.target,), "echo", self.i, 128, self.done)

    def done(self, ok, value):
        if self.log is not None:
            outcome = "ok" if ok else type(value.__cause__).__name__
            self.log.append((self.client.name, self.i, outcome, self.client.sim.now))
        self.i += 1
        if self.i < self.calls:
            self.start()


def start_caller(sim, client, calls, target="srv", log=None, callbacks=False):
    """A closed-loop caller of either kind; the callback one starts in
    the heap slot the process start takes."""
    if callbacks:
        sim.call_at(sim.now, CallbackLoop(client, calls, target, log).start, None)
    else:
        sim.process(closed_loop(client, calls, target, log))


def echo_pair(config=None, handler=instant):
    sim = Simulator()
    fabric = NetworkFabric(sim, config or NetConfig())
    server = RpcEndpoint(sim, fabric, "srv")
    server.register("echo", handler)
    return sim, server, RpcEndpoint(sim, fabric, "cli")


# ---------------------------------------------------------------------------
# growth: queue size and heap entries per round trip
# ---------------------------------------------------------------------------


def test_queue_tracks_calls_in_flight_not_calls_answered():
    callers, calls = 8, 625  # 5 000 answered calls on one endpoint
    sim, _server, client = echo_pair()
    for _ in range(callers):
        sim.process(closed_loop(client, calls))
    peak = 0
    while client.stats.round_trips < callers * calls and sim.step():
        peak = max(peak, sim.queue_size)
    assert client.stats.round_trips == callers * calls
    assert client.stats.timeouts == 0
    # Per caller at most one delivery, serve start or dispatch is queued
    # at a time; the endpoint adds its one armed deadline.  (With a
    # timer per attempt the queue also held every call answered in the
    # last 0.25 s: all 5 000 here.)
    assert peak <= 2 * callers + 1
    # Idle: only the armed deadline is left, and it disarms itself.
    assert sim.queue_size <= 1
    sim.run(until=sim.now + client.config.rpc_timeout)
    assert sim.queue_size == 0


def queued_actions(calls: int, callbacks: bool = False):
    """Kernel actions queued by ``calls`` sequential round trips, as
    ``(heap pushes, same-instant enqueues)``."""
    sim, _server, client = echo_pair()
    queued = queue_counter(sim)
    if callbacks:
        start_caller(sim, client, calls, callbacks=True)
    else:
        sim.process(closed_loop(client, calls))
    sim.run(until=0.2)  # inside the first deadline: no re-arm in between
    assert client.stats.round_trips == calls
    return queued()


@pytest.mark.parametrize("callbacks, enqueues", [(False, 2), (True, 3)],
                         ids=["generator", "callback"])
def test_fault_free_round_trip_queues_a_fixed_number_of_actions(callbacks, enqueues):
    # Two heap pushes, the request's delivery and the reply's, and two
    # same-instant enqueues: the serve start and the caller's wake-up
    # (for a callback caller, the response's continuation, which
    # follows the caller's resume's rule).  A ``fan_out`` caller's call
    # also queues its first attempt, where a process started per call
    # would queue its start: a third enqueue.  Differencing two run
    # lengths cancels the caller's own start and the endpoint's single
    # armed deadline.
    more, fewer = queued_actions(200, callbacks), queued_actions(100, callbacks)
    assert (more[0] - fewer[0], more[1] - fewer[1]) == (2 * 100, enqueues * 100)


# ---------------------------------------------------------------------------
# timeout semantics
# ---------------------------------------------------------------------------


def test_unanswered_call_times_out_exactly_at_its_deadline():
    def slow(request):
        yield sim.timeout(0.4)  # answers well after the caller gave up
        return request.payload, 64

    config = NetConfig(rpc_timeout=0.25, rpc_retries=0)
    sim, server, client = echo_pair(config, handler=slow)
    seen = []

    def caller(t0):
        yield sim.timeout(t0)
        try:
            yield from client.call("srv", "echo", t0, 64)
        except RetriesExhausted as exc:
            seen.append((t0, sim.now, type(exc.__cause__)))

    starts = [0.0137, 0.0291, 0.2604]
    for t0 in starts:
        sim.process(caller(t0))
    sim.run(until=2.0)
    assert seen == [(t0, t0 + 0.25, RpcTimeout) for t0 in starts]
    # The late responses all arrived (served 3) and were ignored.
    assert server.stats.served == 3
    assert client.stats.round_trips == 0
    assert client.stats.timeouts == 3
    assert (client.stats.retries, client.stats.failures) == (3, 3)
    assert client._waiting == {}
    assert sim.queue_size == 0


def test_late_duplicate_response_after_expiry_is_ignored():
    plan = FaultPlan(seed=5).add(
        FaultWindow(FaultKind.MSG_DUP, 0.0, 10.0, probability=1.0)
    )

    def slow(request):
        yield sim.timeout(0.03)
        return request.payload, 64

    config = NetConfig(fault_plan=plan, rpc_timeout=0.02, rpc_retries=0)
    sim, server, client = echo_pair(config, handler=slow)
    log = []
    sim.process(closed_loop(client, 1, log=log))
    sim.run(until=1.0)
    assert log == [("cli", 0, "RpcTimeout", 0.02)]
    assert server.stats.served == 2  # the request was duplicated too
    assert (client.stats.round_trips, client.stats.timeouts) == (0, 1)
    assert (client.stats.retries, client.stats.failures) == (1, 1)


# ---------------------------------------------------------------------------
# oracle: the per-attempt Timeout + AnyOf race
# ---------------------------------------------------------------------------


class RaceEndpoint(RpcEndpoint):
    """One attempt as it ran before the armed deadline: it races its
    response against its own ``Timeout`` through an ``AnyOf`` and never
    cancels the timer.  :class:`LegacyEndpoint` drives it."""

    def call_once(self, target, method, payload, nbytes, trace=None):
        self.stats.calls += 1
        self._next_id += 1
        corr_id = self._next_id
        response = self.sim.event()
        self._waiting[corr_id] = response
        peer = self._peers[target]
        peer.send(
            nbytes,
            RpcMessage(kind="req", src=self.name, corr_id=corr_id, method=method,
                       payload=payload, trace=trace),
            peer.request,
        )
        timer = self.sim.timeout(self.config.rpc_timeout)
        yield self.sim.any_of([response, timer])
        if response.triggered:
            self.stats.round_trips += 1
            reply = response.value
            if not reply.ok:
                raise reply.payload
            return reply.payload
        del self._waiting[corr_id]
        self.stats.timeouts += 1
        raise RpcTimeout(f"{self.name}: rpc {method} to {target} got no response")


def chaos_run(endpoint, seed, callbacks=False):
    """Three closed-loop callers against two servers through drops,
    delays longer than the timeout, duplicates and a partition."""
    plan = (
        FaultPlan(seed=seed)
        .add(FaultWindow(FaultKind.MSG_DROP, 0.0, 3.0, probability=0.15))
        .add(FaultWindow(FaultKind.MSG_DUP, 0.2, 3.0, probability=0.2))
        # 30 ms each way against a 50 ms budget: responses land late.
        .add(FaultWindow(FaultKind.MSG_DELAY, 0.6, 0.9, extra_latency=0.03))
        .add(FaultWindow(FaultKind.NET_PARTITION, 1.4, 1.9, groups=(("cli0", "srv1"),)))
    )
    config = NetConfig(
        fault_plan=plan, rpc_timeout=0.05, rpc_retries=2, rpc_backoff=0.004
    )
    sim = Simulator()
    fabric = NetworkFabric(sim, config)

    def work(request):
        yield sim.timeout(0.0007)
        return request.payload, 256

    endpoints = []
    for name in ("srv0", "srv1"):
        server = endpoint(sim, fabric, name)
        server.register("echo", work)
        endpoints.append(server)
    log = []
    for k in range(3):
        client = endpoint(sim, fabric, f"cli{k}")
        endpoints.append(client)
        start_caller(sim, client, 400, f"srv{k % 2}", log, callbacks)
    sim.run(until=60.0)
    return log, {ep.name: vars(ep.stats) for ep in endpoints}, fabric


class LegacyEndpoint(RaceEndpoint):
    """The whole RPC path before the armed deadline: the retry loop that
    drove each attempt with ``yield from call_once``, over the race."""

    def call(self, target, method, payload, nbytes, trace=None, give_up=None):
        attempt = 0
        while True:
            try:
                return (yield from self.call_once(target, method, payload, nbytes, trace))
            except NetworkFault as exc:
                attempt += 1
                self.stats.retries += 1
                if attempt > self.config.rpc_retries:
                    self.stats.failures += 1
                    raise RetriesExhausted(f"{self.name}: rpc {method} failed") from exc
                backoff = self.config.rpc_backoff * (2 ** (attempt - 1))
                if self.config.rpc_jitter > 0.0:
                    backoff *= 1.0 + self.config.rpc_jitter * self._jitter_rng.random()
                yield self.sim.timeout(backoff)


@pytest.mark.parametrize("seed", [3, 17])
def test_callback_and_coroutine_callers_match_each_other_and_the_legacy_loop(seed):
    log, stats, fabric = chaos_run(RpcEndpoint, seed)
    callback_log, callback_stats, _ = chaos_run(RpcEndpoint, seed, callbacks=True)
    legacy_log, legacy_stats, _ = chaos_run(LegacyEndpoint, seed)
    assert len(log) == 3 * 400
    # The plan bites: every fault kind fired and every outcome occurred.
    injector = fabric.injector
    assert injector.dropped_messages and injector.duplicated_messages
    assert injector.delayed_messages and injector.partitioned_messages
    assert {outcome for _c, _i, outcome, _t in log} == {"ok", "RpcTimeout"}
    assert sum(s["timeouts"] for s in stats.values()) > 50
    assert sum(s["failures"] for s in stats.values()) > 0
    assert callback_stats == stats == legacy_stats
    assert callback_log == log == legacy_log


def test_give_up_abandons_the_budget_alike_in_both_drivers():
    config = NetConfig(rpc_timeout=0.02, rpc_retries=4, rpc_backoff=0.002)
    outcomes = []
    for callbacks in (False, True):
        sim, _server, client = echo_pair(config)
        client.fabric.set_down("srv")
        checks = []

        def give_up(target):
            checks.append((target, sim.now))
            return len(checks) == 2  # the second failed attempt gives up

        def record(ok, value):
            outcomes.append((ok, type(value.__cause__).__name__, sim.now, checks[:],
                             dict(vars(client.stats))))

        if callbacks:
            client.fan_out(("srv",), "echo", 0, 64, record, give_up=give_up)
        else:
            def caller():
                try:
                    yield from client.call("srv", "echo", 0, 64, give_up=give_up)
                except RetriesExhausted as exc:
                    record(False, exc)

            sim.process(caller())
        sim.run(until=1.0)
    assert outcomes[0] == outcomes[1]
    ok, cause, _at, checks, stats = outcomes[0]
    assert (ok, cause, len(checks)) == (False, "NodeUnreachable", 2)
    assert (stats["calls"], stats["retries"], stats["failures"]) == (2, 2, 1)


# ---------------------------------------------------------------------------
# the primitive
# ---------------------------------------------------------------------------


def test_deadline_queue_expires_live_tokens_exactly_and_skips_answered():
    sim = Simulator()
    waiting = {"a", "b", "c", "d"}
    expired = []

    def expire(token):
        waiting.discard(token)
        expired.append((token, sim.now))

    queue = DeadlineQueue(sim, waiting.__contains__, expire)
    for token, deadline in (("a", 1.0), ("b", 1.5), ("c", 1.5), ("d", 4.0)):
        queue.add(deadline, token)
        assert sim.queue_size == 1  # one armed action however many waiters
    waiting.discard("b")  # answered in time
    sim.run(until=2.0)
    assert expired == [("a", 1.0), ("c", 1.5)]
    assert sim.queue_size == 1  # still armed, for "d"
    waiting.discard("d")
    sim.run()
    assert expired == [("a", 1.0), ("c", 1.5)]
    assert sim.queue_size == 0
    # Disarmed queues re-arm on the next add.
    waiting.add("e")
    queue.add(9.0, "e")
    sim.run()
    assert expired[-1] == ("e", 9.0)


def test_deadline_queue_stays_single_armed_when_expiry_adds_a_deadline():
    sim = Simulator()
    expired = []

    def expire(token):
        expired.append((token, sim.now))
        if token < 3:  # a retry: the next attempt gets its own deadline
            queue.add(sim.now + 1.0, token + 1)

    queue = DeadlineQueue(sim, lambda token: True, expire)
    queue.add(1.0, 1)
    while sim.step():
        assert sim.queue_size <= 1
    assert expired == [(1, 1.0), (2, 2.0), (3, 3.0)]


def test_deadline_queue_rejects_a_decreasing_deadline():
    sim = Simulator()
    queue = DeadlineQueue(sim, lambda token: True, lambda token: None)
    queue.add(2.0, "a")
    queue.add(2.0, "b")  # equal is fine: FIFO among ties
    with pytest.raises(SimulationError):
        queue.add(1.9, "c")

"""The request and IO entry points' contract table.

Each row is (entry, edge value, call, outcome).  The outcome is either a
named exception, raised before any state changes — the node's state
digest (WAL size and extents, free filesystem bytes, the engine's tables
and memtable, the tenant's scheduler usage, the object cache, the
scheduler backlog, the ops holding NCQ slots, the device counters, the
FTL page map and its host-stream cursors) is the same before and after,
and the tenant's next PUT still lands — or a specified result.  Every
row runs on a freshly loaded one-tenant node.  The configuration rows
(device profile, node config, net config, scheduler config, policy
interval, ranged-tenant partition count, reservation, allocation, fault
window) pin what the constructors refuse: a value that would hang the
scheduler or the simulation, or silently poison every later op.
"""

import math
from dataclasses import replace

import pytest

from repro.core import IoTag, Reservation, ResourcePolicy, SchedulerConfig
from repro.engine import EngineConfig
from repro.engine.db import RECORD_OVERHEAD
from repro.faults import FaultKind, FaultWindow
from repro.net import NetConfig
from repro.node import NodeConfig, StorageCluster, StorageNode
from repro.sim import Event, Simulator
from repro.ssd import OutOfSpace, get_profile

KIB = 1024
MIB = 1024 * KIB
SMALL = get_profile("intel320").with_capacity(64 * MIB)
#: 40 one-KiB objects: two flushed tables, the rest in the memtable
ENGINE = EngineConfig(memtable_bytes=16 * KIB)
KEYS = 40
PAST_CAPACITY = 10 * SMALL.logical_capacity
NAN, INF = math.nan, math.inf
ALL_ROWS = [(key, KIB) for key in range(KEYS)]
TAG = IoTag("t1")
CAPACITY = SMALL.logical_capacity
PAGE = SMALL.page_size


def drive(sim, gen):
    """Run one process to its end; returns its value or raises its error."""
    proc = sim.process(gen)
    sim.step_while(lambda: proc.is_alive)
    if not proc.ok:
        raise proc.value
    return proc.value


def loaded_node():
    sim = Simulator()
    config = NodeConfig(engine=ENGINE, cache_bytes=1 * MIB)
    node = StorageNode(sim, profile=SMALL, config=config, seed=3)
    node.add_tenant("t1", Reservation(gets=2000.0, puts=2000.0))

    def load():
        for key in range(KEYS):
            yield from node.put("t1", key, KIB)
        yield sim.timeout(0.5)  # the FLUSHes land

    drive(sim, load())
    assert node.engines["t1"].version.file_count == 2
    return sim, node


def state(node):
    engine = node.engines["t1"]
    wal = engine.wal.file
    return (
        wal.size, list(wal.extents), wal.allocated, node.fs.free_bytes,
        [[table.table_id for table in level] for level in engine.version.levels],
        engine.memtable.items(),
        sorted(vars(node.scheduler.usage("t1")).items()),
        list(node.cache._entries.items()),
        node.scheduler.backlog, node.device.in_flight,
        sorted(vars(node.device.stats).items()),
        node.device.ftl.page_to_block.tobytes(), node.device.ftl.block_valid.tobytes(),
        list(node.device.ftl._host_cursor),
    )


def on_node(method, *args, **kwargs):
    return lambda node: getattr(node, method)(*args, **kwargs)


def on_engine(method, *args, **kwargs):
    return lambda node: getattr(node.engines["t1"], method)(*args, **kwargs)


def on_ftl(method, *args):
    return lambda node: getattr(node.device.ftl, method)(*args)


def ftl_returns(method, *args):
    """An FTL call that returns at once, as a process for ``drive``."""
    def call(node):
        return getattr(node.device.ftl, method)(*args)
        yield  # pragma: no cover - makes this a generator

    return call


def waits(target, method, *args):
    """Call an IO entry on ``target(node)`` and wait for its event."""
    def call(node):
        return (yield getattr(target(node), method)(*args))

    return call


def scheduler(node):
    return node.scheduler


def device(node):
    return node.device


def wal_file(node):
    """The live WAL: eight one-KiB records over three one-page extents."""
    return node.engines["t1"].wal.file


def wal(node):
    """The tenant's write-ahead log, whose group commit appends to
    :func:`wal_file`."""
    return node.engines["t1"].wal


def append_past_the_slack(node):
    """A new file's second append: 3096 bytes of slack and a new extent."""
    f = node.fs.create()
    yield f.append(1000, TAG)
    return (yield f.append(8 * KIB, TAG))


def returns(make, result):
    """Build a configuration value at once, as a process for ``drive``
    returning ``result`` of it."""
    def call(node):
        return result(make())
        yield  # pragma: no cover - makes this a generator

    return call


def profile(**fields):
    """The table's device profile with ``fields`` changed."""
    return lambda node: replace(SMALL, **fields)


def net(**fields):
    return lambda node: NetConfig(**fields)


def window(kind=FaultKind.LATENCY, start=0.0, end=1.0, **fields):
    return lambda node: FaultWindow(kind, start, end, **fields)


def policy(interval):
    """A second policy over the node's scheduler, with ``interval``."""
    return lambda node: ResourcePolicy(
        node.sim, node.scheduler, node.tracker, node.capacity_vops, interval=interval
    )


def ranged_tenant(n_partitions):
    """Place a range-partitioned tenant on a fresh one-node cluster."""
    def call(node):
        cluster = StorageCluster(
            Simulator(), n_nodes=1, profile=SMALL,
            config=NodeConfig(capacity_vops=node.capacity_vops),
        )
        cluster.enable_control()
        cluster.add_ranged_tenant("r1", Reservation(), n_partitions=n_partitions)

    return call


def put_then_get(key):
    def call(node):
        yield from node.put("t1", key, 2 * KIB)
        return (yield from node.get("t1", key))

    return call


ROWS = [
    # -- StorageNode ------------------------------------------------------------
    ("StorageNode.get", "unknown tenant", on_node("get", "nobody", 1), KeyError),
    ("StorageNode.get", "key 0", on_node("get", "t1", 0), KIB),
    ("StorageNode.get", "negative key", on_node("get", "t1", -1), None),
    ("StorageNode.get", "NaN key", on_node("get", "t1", NAN), None),
    ("StorageNode.get", "+inf key", on_node("get", "t1", INF), None),
    ("StorageNode.get", "-inf key", on_node("get", "t1", -INF), None),
    ("StorageNode.put", "unknown tenant", on_node("put", "nobody", 1, KIB), KeyError),
    ("StorageNode.put", "size 0", on_node("put", "t1", 1, 0), ValueError),
    ("StorageNode.put", "negative size", on_node("put", "t1", 1, -KIB), ValueError),
    ("StorageNode.put", "NaN size", on_node("put", "t1", 1, NAN), ValueError),
    ("StorageNode.put", "+inf size", on_node("put", "t1", 1, INF), ValueError),
    ("StorageNode.put", "-inf size", on_node("put", "t1", 1, -INF), ValueError),
    ("StorageNode.put", "fractional size", on_node("put", "t1", 1, 2.5), ValueError),
    ("StorageNode.put", "integral float size", on_node("put", "t1", 1, 4096.0), ValueError),
    ("StorageNode.put", "past capacity", on_node("put", "t1", 1, PAST_CAPACITY), OutOfSpace),
    ("StorageNode.put", "NaN key", on_node("put", "t1", NAN, KIB), ValueError),
    ("StorageNode.put", "+inf key", put_then_get(INF), 2 * KIB),
    ("StorageNode.put", "negative key", put_then_get(-1), 2 * KIB),
    ("StorageNode.delete", "unknown tenant", on_node("delete", "nobody", 1), KeyError),
    ("StorageNode.delete", "NaN key", on_node("delete", "t1", NAN), ValueError),
    ("StorageNode.delete", "absent key", on_node("delete", "t1", -1), None),
    ("StorageNode.delete", "+inf key", on_node("delete", "t1", INF), None),
    ("StorageNode.scan", "unknown tenant", on_node("scan", "nobody", 0, 9), KeyError),
    ("StorageNode.scan", "lo > hi", on_node("scan", "t1", 9, 0), ValueError),
    ("StorageNode.scan", "NaN lo", on_node("scan", "t1", NAN, 9), ValueError),
    ("StorageNode.scan", "NaN hi", on_node("scan", "t1", 0, NAN), ValueError),
    ("StorageNode.scan", "limit -1", on_node("scan", "t1", 0, 9, limit=-1), ValueError),
    ("StorageNode.scan", "NaN limit", on_node("scan", "t1", 0, 9, limit=NAN), TypeError),
    ("StorageNode.scan", "+inf limit", on_node("scan", "t1", 0, 9, limit=INF), TypeError),
    ("StorageNode.scan", "limit 0", on_node("scan", "t1", 0, 9, limit=0), []),
    ("StorageNode.scan", "lo == hi", on_node("scan", "t1", 5, 5), [(5, KIB)]),
    ("StorageNode.scan", "infinite bounds", on_node("scan", "t1", -INF, INF), ALL_ROWS),
    ("StorageNode.apply_replica", "unknown tenant",
     on_node("apply_replica", "nobody", 1, KIB), KeyError),
    ("StorageNode.apply_replica", "size 0", on_node("apply_replica", "t1", 1, 0), ValueError),
    ("StorageNode.apply_replica", "NaN size",
     on_node("apply_replica", "t1", 1, NAN), ValueError),
    ("StorageNode.apply_replica", "+inf size",
     on_node("apply_replica", "t1", 1, INF), ValueError),
    ("StorageNode.apply_replica", "negative size",
     on_node("apply_replica", "t1", 1, -KIB), ValueError),
    ("StorageNode.apply_replica", "fractional size",
     on_node("apply_replica", "t1", 1, 2.5), ValueError),
    ("StorageNode.apply_replica", "integral float size",
     on_node("apply_replica", "t1", 1, 4096.0), ValueError),
    ("StorageNode.apply_replica", "NaN key on a put",
     on_node("apply_replica", "t1", NAN, KIB), ValueError),
    ("StorageNode.apply_replica", "past capacity",
     on_node("apply_replica", "t1", 1, PAST_CAPACITY), OutOfSpace),
    ("StorageNode.apply_replica", "NaN key",
     on_node("apply_replica", "t1", NAN, KIB, op="delete"), ValueError),
    ("StorageNode.apply_replica", "delete ignores size",
     on_node("apply_replica", "t1", 1, NAN, op="delete"), None),
    ("StorageNode.read_replica", "unknown tenant",
     on_node("read_replica", "nobody", 1), KeyError),
    ("StorageNode.read_replica", "key 0", on_node("read_replica", "t1", 0), KIB),
    ("StorageNode.read_replica", "NaN key", on_node("read_replica", "t1", NAN), None),
    ("StorageNode.read_replica", "negative key", on_node("read_replica", "t1", -1), None),
    # -- LsmEngine ----------------------------------------------------------------
    ("LsmEngine.get", "key 0", on_engine("get", 0), KIB),
    ("LsmEngine.get", "negative key", on_engine("get", -1), None),
    ("LsmEngine.get", "NaN key", on_engine("get", NAN), None),
    ("LsmEngine.get", "+inf key", on_engine("get", INF), None),
    ("LsmEngine.put", "size 0", on_engine("put", 1, 0), ValueError),
    ("LsmEngine.put", "negative size", on_engine("put", 1, -1), ValueError),
    ("LsmEngine.put", "NaN size", on_engine("put", 1, NAN), ValueError),
    ("LsmEngine.put", "+inf size", on_engine("put", 1, INF), ValueError),
    ("LsmEngine.put", "integral float size", on_engine("put", 1, 4096.0), ValueError),
    ("LsmEngine.put", "fractional size", on_engine("put", 1, 2.5), ValueError),
    ("LsmEngine.put", "-inf size", on_engine("put", 1, -INF), ValueError),
    ("LsmEngine.put", "past capacity", on_engine("put", 1, PAST_CAPACITY), OutOfSpace),
    ("LsmEngine.put", "NaN key", on_engine("put", NAN, KIB), ValueError),
    ("LsmEngine.delete", "NaN key", on_engine("delete", NAN), ValueError),
    ("LsmEngine.delete", "absent key", on_engine("delete", -1), None),
    ("LsmEngine.scan", "lo > hi", on_engine("scan", 1, 0), ValueError),
    ("LsmEngine.scan", "NaN lo", on_engine("scan", NAN, 0), ValueError),
    ("LsmEngine.scan", "NaN hi", on_engine("scan", 0, NAN), ValueError),
    ("LsmEngine.scan", "limit -1", on_engine("scan", 0, 9, limit=-1), ValueError),
    ("LsmEngine.scan", "NaN limit", on_engine("scan", 0, 9, limit=NAN), TypeError),
    ("LsmEngine.scan", "+inf limit", on_engine("scan", 0, 9, limit=INF), TypeError),
    ("LsmEngine.scan", "limit 0", on_engine("scan", 0, 9, limit=0), []),
    ("LsmEngine.scan", "lo == hi", on_engine("scan", 5, 5), [(5, KIB)]),
    ("LsmEngine.scan", "infinite bounds", on_engine("scan", -INF, INF), ALL_ROWS),
    # -- LibraScheduler: rejected before any VOP is charged ------------------------
    ("LibraScheduler.read", "no tag", waits(scheduler, "read", 0, 4 * KIB), ValueError),
    ("LibraScheduler.read", "unknown tenant",
     waits(scheduler, "read", 0, 4 * KIB, IoTag("nobody")), KeyError),
    ("LibraScheduler.read", "fractional offset",
     waits(scheduler, "read", 0.5, 4 * KIB, TAG), ValueError),
    ("LibraScheduler.read", "NaN offset", waits(scheduler, "read", NAN, 4 * KIB, TAG), ValueError),
    ("LibraScheduler.read", "NaN size", waits(scheduler, "read", 0, NAN, TAG), ValueError),
    ("LibraScheduler.read", "+inf size", waits(scheduler, "read", 0, INF, TAG), ValueError),
    ("LibraScheduler.read", "past capacity",
     waits(scheduler, "read", CAPACITY, 4 * KIB, TAG), ValueError),
    ("LibraScheduler.read", "integral float offset",
     waits(scheduler, "read", 4096.0, 4 * KIB, TAG), ValueError),
    ("LibraScheduler.read", "size 0", waits(scheduler, "read", 0, 0, TAG), ValueError),
    ("LibraScheduler.read", "negative offset",
     waits(scheduler, "read", -4 * KIB, 4 * KIB, TAG), ValueError),
    ("LibraScheduler.read", "fractional size",
     waits(scheduler, "read", 0, 2.5, TAG), ValueError),
    ("LibraScheduler.read", "4 KiB at 0", waits(scheduler, "read", 0, 4 * KIB, TAG), None),
    ("LibraScheduler.write", "unknown tenant",
     waits(scheduler, "write", 0, 4 * KIB, IoTag("nobody")), KeyError),
    ("LibraScheduler.write", "size 0", waits(scheduler, "write", 0, 0, TAG), ValueError),
    ("LibraScheduler.write", "fractional size",
     waits(scheduler, "write", 0, 2.5, TAG), ValueError),
    ("LibraScheduler.write", "negative offset",
     waits(scheduler, "write", -4 * KIB, 4 * KIB, TAG), ValueError),
    ("LibraScheduler.write", "NaN offset",
     waits(scheduler, "write", NAN, 4 * KIB, TAG), ValueError),
    ("LibraScheduler.write", "integral float offset",
     waits(scheduler, "write", 4096.0, 4 * KIB, TAG), ValueError),
    ("LibraScheduler.write", "integral float size",
     waits(scheduler, "write", 0, 8192.0, TAG), ValueError),
    ("LibraScheduler.write", "no tag", waits(scheduler, "write", 0, 4 * KIB), ValueError),
    ("LibraScheduler.write", "NaN size",
     waits(scheduler, "write", 0, NAN, TAG), ValueError),
    ("LibraScheduler.write", "+inf size",
     waits(scheduler, "write", 0, INF, TAG), ValueError),
    ("LibraScheduler.write", "past capacity",
     waits(scheduler, "write", CAPACITY, 4 * KIB, TAG), ValueError),
    ("LibraScheduler.write", "two chunks", waits(scheduler, "write", 0, 256 * KIB, TAG), None),
    # -- SsdDevice: rejected before the op takes an NCQ slot -----------------------
    ("SsdDevice.submit", "fractional offset",
     lambda node: node.device.submit(True, 0.5, 4 * KIB, None, None, Event(node.sim)),
     ValueError),
    ("SsdDevice.submit", "NaN size",
     lambda node: node.device.submit(False, 0, NAN, None, None, Event(node.sim)), ValueError),
    ("SsdDevice.submit", "integral float size",
     lambda node: node.device.submit(False, 0, 8192.0, None, None, Event(node.sim)),
     ValueError),
    ("SsdDevice.read", "NaN offset", waits(device, "read", NAN, 4 * KIB), ValueError),
    ("SsdDevice.read", "fractional size", waits(device, "read", 0, 0.5), ValueError),
    ("SsdDevice.read", "past capacity", waits(device, "read", CAPACITY - 1, 2), ValueError),
    ("SsdDevice.read", "size 0", waits(device, "read", 0, 0), ValueError),
    ("SsdDevice.read", "negative offset", waits(device, "read", -PAGE, PAGE), ValueError),
    ("SsdDevice.read", "integral float offset",
     waits(device, "read", 4096.0, 4 * KIB), ValueError),
    ("SsdDevice.read", "4 KiB at 0", waits(device, "read", 0, 4 * KIB), None),
    ("SsdDevice.write", "size 0", waits(device, "write", 0, 0), ValueError),
    ("SsdDevice.write", "negative offset", waits(device, "write", -1, 4 * KIB), ValueError),
    ("SsdDevice.write", "+inf size", waits(device, "write", 0, INF), ValueError),
    ("SsdDevice.write", "past capacity",
     waits(device, "write", CAPACITY, 4 * KIB), ValueError),
    ("SsdDevice.write", "integral float offset",
     waits(device, "write", 4096.0, 4 * KIB), ValueError),
    ("SsdDevice.write", "integral float size", waits(device, "write", 0, 8192.0), ValueError),
    ("SsdDevice.trim", "NaN size", lambda node: node.device.trim(0, NAN), ValueError),
    ("SsdDevice.trim", "negative offset", lambda node: node.device.trim(-1, 4 * KIB), ValueError),
    ("SsdDevice.trim", "past capacity",
     lambda node: node.device.trim(CAPACITY, 4 * KIB), ValueError),
    ("SsdDevice.trim", "fractional size", lambda node: node.device.trim(0, 2.5), ValueError),
    ("SsdDevice.trim", "integral float offset",
     lambda node: node.device.trim(4096.0, 4 * KIB), ValueError),
    # -- Ftl: rejected before the host cursor moves --------------------------------
    ("Ftl.host_write", "NaN offset", on_ftl("host_write", NAN, 4 * KIB), ValueError),
    ("Ftl.host_write", "NaN size", on_ftl("host_write", 0, NAN), ValueError),
    ("Ftl.host_write", "+inf offset", on_ftl("host_write", INF, 4 * KIB), ValueError),
    ("Ftl.host_write", "-inf offset", on_ftl("host_write", -INF, 4 * KIB), ValueError),
    ("Ftl.host_write", "+inf size", on_ftl("host_write", 0, INF), ValueError),
    ("Ftl.host_write", "-inf size", on_ftl("host_write", 0, -INF), ValueError),
    ("Ftl.host_write", "size 0", on_ftl("host_write", 0, 0), ValueError),
    ("Ftl.host_write", "fractional offset", on_ftl("host_write", 0.5, 4 * KIB), ValueError),
    ("Ftl.host_write", "fractional offset, two pages",
     on_ftl("host_write", 12288.25, 8 * KIB), ValueError),
    ("Ftl.host_write", "fractional size", on_ftl("host_write", 4 * KIB, 2.5), ValueError),
    ("Ftl.host_write", "fractional size, two pages",
     on_ftl("host_write", 4 * KIB, 4 * KIB + 0.5), ValueError),
    ("Ftl.host_write", "integral float offset",
     on_ftl("host_write", 4096.0, 4 * KIB), ValueError),
    ("Ftl.host_write", "integral float size", on_ftl("host_write", 0, 8192.0), ValueError),
    ("Ftl.host_write", "negative offset", on_ftl("host_write", -4 * KIB, 4 * KIB), ValueError),
    ("Ftl.host_write", "negative size", on_ftl("host_write", 0, -4 * KIB), ValueError),
    ("Ftl.host_write", "past capacity", on_ftl("host_write", CAPACITY, 4 * KIB), ValueError),
    ("Ftl.host_write", "straddles capacity", on_ftl("host_write", CAPACITY - 1, 2), ValueError),
    ("Ftl.trim", "NaN offset", on_ftl("trim", NAN, 4 * KIB), ValueError),
    ("Ftl.trim", "NaN size", on_ftl("trim", 0, NAN), ValueError),
    ("Ftl.trim", "+inf offset", on_ftl("trim", INF, 4 * KIB), ValueError),
    ("Ftl.trim", "-inf offset", on_ftl("trim", -INF, 4 * KIB), ValueError),
    ("Ftl.trim", "+inf size", on_ftl("trim", 0, INF), ValueError),
    ("Ftl.trim", "-inf size", on_ftl("trim", 0, -INF), ValueError),
    ("Ftl.trim", "negative offset", on_ftl("trim", -4 * KIB, 4 * KIB), ValueError),
    ("Ftl.trim", "size 0", on_ftl("trim", 0, 0), ValueError),
    ("Ftl.trim", "fractional offset", on_ftl("trim", 0.5, 4 * KIB), ValueError),
    ("Ftl.trim", "fractional size", on_ftl("trim", 4 * KIB, 2.5), ValueError),
    ("Ftl.trim", "integral float offset", on_ftl("trim", 4096.0, 4 * KIB), ValueError),
    ("Ftl.trim", "past capacity", on_ftl("trim", CAPACITY, 4 * KIB), ValueError),
    ("Ftl.trim", "straddles capacity", on_ftl("trim", CAPACITY - 1, 2), ValueError),
    ("Ftl.trim", "last page", ftl_returns("trim", CAPACITY - PAGE, PAGE), 1),
    ("Ftl.trim_extents", "NaN after a good extent",
     on_ftl("trim_extents", [(0, 4 * KIB), (NAN, 4 * KIB)]), ValueError),
    ("Ftl.trim_extents", "past capacity after a good extent",
     on_ftl("trim_extents", [(0, 4 * KIB), (CAPACITY, 4 * KIB)]), ValueError),
    ("Ftl.trim_extents", "fractional after a good extent",
     on_ftl("trim_extents", [(0, 4 * KIB), (4 * KIB, 0.5)]), ValueError),
    ("Ftl.trim_extents", "no extents", ftl_returns("trim_extents", []), 0),
    # pages n-4..n-2 and n-3..n-1, all mapped: four freed, once each
    ("Ftl.trim_extents", "overlapping extents",
     ftl_returns("trim_extents", [(CAPACITY - 4 * PAGE, 3 * PAGE),
                                  (CAPACITY - 3 * PAGE, 3 * PAGE)]), 4),
    ("Ftl.read_channels", "integral float offset",
     on_ftl("read_channels", 4096.0, 8 * KIB), ValueError),
    ("Ftl.read_channels", "fractional size", on_ftl("read_channels", 0, 2.5), ValueError),
    ("Ftl.read_channels", "NaN offset", on_ftl("read_channels", NAN, 4 * KIB), ValueError),
    ("Ftl.read_channels", "NaN size", on_ftl("read_channels", 0, NAN), ValueError),
    ("Ftl.read_channels", "size 0", on_ftl("read_channels", 0, 0), ValueError),
    ("Ftl.read_channels", "negative offset",
     on_ftl("read_channels", -4 * KIB, 4 * KIB), ValueError),
    ("Ftl.read_channels", "past capacity",
     on_ftl("read_channels", CAPACITY, 4 * KIB), ValueError),
    ("Ftl.read_channels", "straddles capacity",
     on_ftl("read_channels", CAPACITY - 1, 2), ValueError),
    ("Ftl.precondition", "NaN age_factor", on_ftl("precondition", NAN), ValueError),
    ("Ftl.precondition", "+inf age_factor", on_ftl("precondition", INF), ValueError),
    ("Ftl.precondition", "-inf age_factor", on_ftl("precondition", -INF), ValueError),
    ("Ftl.precondition", "age_factor -1", on_ftl("precondition", -1.0), ValueError),
    # -- SimFile ------------------------------------------------------------------
    ("SimFile.read", "NaN size", waits(wal_file, "read", 0, NAN, TAG), ValueError),
    ("SimFile.read", "NaN offset", waits(wal_file, "read", NAN, 1, TAG), ValueError),
    ("SimFile.read", "size 0", waits(wal_file, "read", 0, 0, TAG), ValueError),
    ("SimFile.read", "past its end", waits(wal_file, "read", 0, 64 * KIB, TAG), ValueError),
    ("SimFile.read", "integral float offset",
     waits(wal_file, "read", 1024.0, 1, TAG), ValueError),
    ("SimFile.read", "integral float size, across two extents",
     waits(wal_file, "read", 0, 8192.0, TAG), ValueError),
    ("SimFile.read", "across two extents", waits(wal_file, "read", 0, 8 * KIB, TAG), None),
    ("SimFile.append", "2.5 bytes", waits(wal_file, "append", 2.5, TAG), ValueError),
    ("SimFile.append", "4096.0 bytes", waits(wal_file, "append", 4096.0, TAG), ValueError),
    ("SimFile.append", "NaN bytes", waits(wal_file, "append", NAN, TAG), ValueError),
    ("SimFile.append", "0 bytes", waits(wal_file, "append", 0, TAG), ValueError),
    ("SimFile.append", "past capacity",
     waits(wal_file, "append", PAST_CAPACITY, TAG), OutOfSpace),
    ("SimFile.append", "two extents", append_past_the_slack, None),
    # -- Wal ------------------------------------------------------------------------
    ("Wal.append", "2.5 bytes", waits(wal, "append", 2.5, TAG), ValueError),
    ("Wal.append", "4096.0 bytes", waits(wal, "append", 4096.0, TAG), ValueError),
    ("Wal.append", "True bytes", waits(wal, "append", True, TAG), ValueError),
    ("Wal.append", "NaN bytes", waits(wal, "append", NAN, TAG), ValueError),
    ("Wal.append", "0 bytes", waits(wal, "append", 0, TAG), ValueError),
    ("Wal.append", "-1 bytes", waits(wal, "append", -1, TAG), ValueError),
    ("Wal.append", "+inf bytes", waits(wal, "append", INF, TAG), ValueError),
    # -- SsdProfile -------------------------------------------------------------------
    ("SsdProfile", "channels 0", profile(channels=0), ValueError),
    ("SsdProfile", "queue_depth -1", profile(queue_depth=-1), ValueError),
    ("SsdProfile", "queue_depth 2.5", profile(queue_depth=2.5), ValueError),
    ("SsdProfile", "num_queues 0", profile(num_queues=0), ValueError),
    ("SsdProfile", "page_size NaN", profile(page_size=NAN), ValueError),
    ("SsdProfile", "pages_per_block True", profile(pages_per_block=True), ValueError),
    ("SsdProfile", "logical_capacity 0", profile(logical_capacity=0), ValueError),
    ("SsdProfile", "stripe_pages -8", profile(stripe_pages=-8), ValueError),
    ("SsdProfile", "core_tags -1", profile(core_tags=-1), ValueError),
    ("SsdProfile", "gc_reserve_blocks -1", profile(gc_reserve_blocks=-1), ValueError),
    ("SsdProfile", "read_access NaN", profile(read_access=NAN), ValueError),
    ("SsdProfile", "prog_latency -1", profile(prog_latency=-1.0), ValueError),
    ("SsdProfile", "erase_latency +inf", profile(erase_latency=INF), ValueError),
    ("SsdProfile", "ctrl_overhead_write NaN", profile(ctrl_overhead_write=NAN), ValueError),
    ("SsdProfile", "write_byte_cost -inf", profile(write_byte_cost=-INF), ValueError),
    ("SsdProfile", "overprovision 0", profile(overprovision=0.0), ValueError),
    ("SsdProfile", "overprovision NaN", profile(overprovision=NAN), ValueError),
    ("SsdProfile", "gc_low_watermark -1", profile(gc_low_watermark=-1.0), ValueError),
    ("SsdProfile", "gc_low_watermark 0", profile(gc_low_watermark=0.0), ValueError),
    ("SsdProfile", "gc_low_watermark NaN", profile(gc_low_watermark=NAN), ValueError),
    ("SsdProfile", "low == high watermark", profile(gc_low_watermark=0.1), ValueError),
    ("SsdProfile", "gc_high_watermark 1", profile(gc_high_watermark=1.0), ValueError),
    ("SsdProfile", "unknown arbitration", profile(arbitration="priority"), ValueError),
    ("SsdProfile", "wrr_weights of the wrong length",
     profile(num_queues=2, arbitration="wrr", wrr_weights=(1,)), ValueError),
    ("SsdProfile", "wrr_weight 0",
     profile(num_queues=2, arbitration="wrr", wrr_weights=(1, 0)), ValueError),
    ("SsdProfile", "zero times, no reserve, default tags",
     returns(lambda: replace(SMALL, read_access=0.0, erase_latency=0.0, core_tags=0,
                             gc_reserve_blocks=0), lambda p: p.read_access), 0.0),
    # -- NodeConfig ------------------------------------------------------------------
    ("NodeConfig", "cache_bytes -1", lambda node: NodeConfig(cache_bytes=-1), ValueError),
    ("NodeConfig", "cache_bytes 1.5", lambda node: NodeConfig(cache_bytes=1.5), ValueError),
    ("NodeConfig", "max_retries NaN", lambda node: NodeConfig(max_retries=NAN), ValueError),
    ("NodeConfig", "max_retries -1", lambda node: NodeConfig(max_retries=-1), ValueError),
    ("NodeConfig", "retry_backoff -1", lambda node: NodeConfig(retry_backoff=-1.0), ValueError),
    ("NodeConfig", "retry_backoff NaN",
     lambda node: NodeConfig(retry_backoff=NAN), ValueError),
    ("NodeConfig", "request_timeout 0",
     lambda node: NodeConfig(request_timeout=0.0), ValueError),
    ("NodeConfig", "capacity_vops +inf",
     lambda node: NodeConfig(capacity_vops=INF), ValueError),
    ("NodeConfig", "no cache, no retries, no backoff",
     returns(lambda: NodeConfig(cache_bytes=0, max_retries=0, retry_backoff=0.0),
             lambda c: c.max_retries), 0),
    # -- NetConfig: a zero, NaN or inf period or timeout hangs sim.run ----------------
    ("NetConfig", "rf 2.5", net(rf=2.5), ValueError),
    ("NetConfig", "rf True", net(rf=True), ValueError),
    ("NetConfig", "write_quorum 1.5", net(rf=3, write_quorum=1.5), ValueError),
    ("NetConfig", "read_quorum True", net(rf=3, read_quorum=True), ValueError),
    ("NetConfig", "rpc_retries -1", net(rpc_retries=-1), ValueError),
    ("NetConfig", "rpc_retries 2.5", net(rpc_retries=2.5), ValueError),
    ("NetConfig", "rpc_timeout 0", net(rpc_timeout=0.0), ValueError),
    ("NetConfig", "rpc_timeout -1", net(rpc_timeout=-1.0), ValueError),
    ("NetConfig", "rpc_timeout NaN", net(rpc_timeout=NAN), ValueError),
    ("NetConfig", "rpc_timeout +inf", net(rpc_timeout=INF), ValueError),
    ("NetConfig", "suspicion_timeout 0", net(suspicion_timeout=0.0), ValueError),
    ("NetConfig", "suspicion_timeout -1", net(suspicion_timeout=-1.0), ValueError),
    ("NetConfig", "suspicion_timeout NaN", net(suspicion_timeout=NAN), ValueError),
    ("NetConfig", "heartbeat_interval 0", net(heartbeat_interval=0.0), ValueError),
    ("NetConfig", "anti_entropy_interval 0", net(anti_entropy_interval=0.0), ValueError),
    ("NetConfig", "rpc_backoff -1", net(rpc_backoff=-1.0), ValueError),
    ("NetConfig", "rpc_backoff NaN", net(rpc_backoff=NAN), ValueError),
    ("NetConfig", "nic_bandwidth NaN", net(nic_bandwidth=NAN), ValueError),
    ("NetConfig", "nic_bandwidth +inf", net(nic_bandwidth=INF), ValueError),
    ("NetConfig", "link_latency NaN", net(link_latency=NAN), ValueError),
    ("NetConfig", "link_latency +inf", net(link_latency=INF), ValueError),
    ("NetConfig", "hint_interval NaN", net(hint_interval=NAN), ValueError),
    ("NetConfig", "hint_interval +inf", net(hint_interval=INF), ValueError),
    # quorum reads follow read_quorum; there is no switch of their own
    ("NetConfig", "quorum_reads", net(quorum_reads=True), TypeError),
    # -- SchedulerConfig and ResourcePolicy: a zero or NaN period hangs sim.run ---------
    ("SchedulerConfig", "round_seconds 0",
     lambda node: SchedulerConfig(round_seconds=0.0), ValueError),
    ("SchedulerConfig", "round_seconds NaN",
     lambda node: SchedulerConfig(round_seconds=NAN), ValueError),
    ("SchedulerConfig", "round_seconds +inf",
     lambda node: SchedulerConfig(round_seconds=INF), ValueError),
    ("SchedulerConfig", "timeout_rounds 0",
     lambda node: SchedulerConfig(timeout_rounds=0.0), ValueError),
    ("SchedulerConfig", "timeout_rounds -1",
     lambda node: SchedulerConfig(timeout_rounds=-1.0), ValueError),
    # a chunk size below one byte never finishes splitting a read
    ("SchedulerConfig", "chunk_size -4096",
     lambda node: SchedulerConfig(chunk_size=-4096), ValueError),
    ("SchedulerConfig", "chunk_size 0", lambda node: SchedulerConfig(chunk_size=0), ValueError),
    ("SchedulerConfig", "chunk_size 1.5",
     lambda node: SchedulerConfig(chunk_size=1.5), ValueError),
    ("SchedulerConfig", "chunk_size True",
     lambda node: SchedulerConfig(chunk_size=True), ValueError),
    ("ResourcePolicy", "interval 0", policy(0.0), ValueError),
    ("ResourcePolicy", "interval -1", policy(-1.0), ValueError),
    ("ResourcePolicy", "interval NaN", policy(NAN), ValueError),
    ("ResourcePolicy", "interval +inf", policy(INF), ValueError),
    # -- StorageCluster: zero partitions is not the default partition count -----------
    ("StorageCluster.add_ranged_tenant", "n_partitions 0", ranged_tenant(0), ValueError),
    ("StorageCluster.add_ranged_tenant", "n_partitions -1", ranged_tenant(-1), ValueError),
    # -- Reservation and allocations: a non-finite rate hangs the pump --------------
    ("Reservation", "NaN gets", lambda node: Reservation(gets=NAN), ValueError),
    ("Reservation", "+inf gets", lambda node: Reservation(gets=INF), ValueError),
    ("Reservation", "-inf puts", lambda node: Reservation(puts=-INF), ValueError),
    ("Reservation", "negative puts", lambda node: Reservation(puts=-1.0), ValueError),
    ("Reservation", "zero rates", returns(Reservation, lambda r: (r.gets, r.puts)), (0.0, 0.0)),
    ("LibraScheduler.set_allocation", "unknown tenant",
     lambda node: node.scheduler.set_allocation("nobody", 1.0), KeyError),
    ("LibraScheduler.set_allocation", "NaN",
     lambda node: node.scheduler.set_allocation("t1", NAN), ValueError),
    ("LibraScheduler.set_allocation", "+inf",
     lambda node: node.scheduler.set_allocation("t1", INF), ValueError),
    ("LibraScheduler.set_allocation", "-1",
     lambda node: node.scheduler.set_allocation("t1", -1.0), ValueError),
    # -- FaultWindow -------------------------------------------------------------------
    ("FaultWindow", "NaN start", window(start=NAN), ValueError),
    ("FaultWindow", "NaN end", window(end=NAN), ValueError),
    ("FaultWindow", "-inf start", window(start=-INF), ValueError),
    ("FaultWindow", "+inf end", window(end=INF), ValueError),
    ("FaultWindow", "NaN extra_latency", window(extra_latency=NAN), ValueError),
    ("FaultWindow", "+inf extra_latency", window(extra_latency=INF), ValueError),
    ("FaultWindow", "extra_latency -1", window(extra_latency=-1.0), ValueError),
    ("FaultWindow", "NaN slowdown", window(FaultKind.DEGRADED_BW, slowdown=NAN), ValueError),
    ("FaultWindow", "+inf slowdown", window(FaultKind.DEGRADED_BW, slowdown=INF), ValueError),
    ("FaultWindow", "slowdown 0.5", window(FaultKind.DEGRADED_BW, slowdown=0.5), ValueError),
    ("FaultWindow", "slowdown 1", returns(
        lambda: FaultWindow(FaultKind.DEGRADED_BW, 0.0, 1.0, slowdown=1.0),
        lambda w: w.active(0.5)), True),
]

ENTRIES = {
    f"StorageNode.{name}"
    for name in ("get", "put", "delete", "scan", "apply_replica", "read_replica")
} | {f"LsmEngine.{name}" for name in ("get", "put", "delete", "scan")} | {
    "LibraScheduler.read", "LibraScheduler.write", "SimFile.read", "SimFile.append",
    "Wal.append",
} | {f"SsdDevice.{name}" for name in ("submit", "read", "write", "trim")} | {
    "Ftl.host_write", "Ftl.precondition", "Ftl.read_channels", "Ftl.trim",
    "Ftl.trim_extents", "SsdProfile", "NodeConfig", "NetConfig", "Reservation",
    "LibraScheduler.set_allocation", "FaultWindow", "SchedulerConfig", "ResourcePolicy",
    "StorageCluster.add_ranged_tenant",
}


def _is_error(outcome):
    return isinstance(outcome, type) and issubclass(outcome, Exception)


@pytest.mark.parametrize(
    "entry, edge, call, outcome", ROWS, ids=[f"{row[0]}-{row[1]}" for row in ROWS],
)
def test_contract_row(entry, edge, call, outcome):
    sim, node = loaded_node()
    before = state(node)
    if not _is_error(outcome):
        assert drive(sim, call(node)) == outcome
        return
    with pytest.raises(outcome):
        drive(sim, call(node))
    assert state(node) == before
    assert node.stats("t1").errors == 0
    # the tenant is not bricked: an ordinary PUT lands and reads back
    drive(sim, node.put("t1", 3, 3 * KIB))
    assert drive(sim, node.get("t1", 3)) == 3 * KIB
    assert node.engines["t1"].wal.file.size == before[0] + 3 * KIB + RECORD_OVERHEAD


def test_every_entry_has_rows_and_every_tenant_entry_names_the_unknown_tenant():
    assert {row[0] for row in ROWS} == ENTRIES
    unknown = {row[0] for row in ROWS if row[1] == "unknown tenant"}
    assert unknown == {
        entry for entry in ENTRIES if entry.startswith(("StorageNode.", "LibraScheduler."))
    }


@pytest.mark.parametrize("nbytes", [2.5, 4096.0, True, NAN, 0, -1, INF])
def test_a_bad_wal_record_size_raises_before_anything_is_queued(nbytes):
    """The contract rows see the error either way: the parent queued
    such a record and its group commit raised out of the kernel loop
    (a bool was written as one byte).  The call itself must raise, with
    no record counted and nothing scheduled."""
    sim, node = loaded_node()
    log = node.engines["t1"].wal
    records, queued = log.records, sim.queue_size
    with pytest.raises(ValueError):
        log.append(nbytes, TAG)
    assert (log.records, sim.queue_size) == (records, queued)


def test_an_oversize_put_leaves_the_wal_and_free_space_as_they_were():
    """It used to allocate extent by extent until the filesystem ran
    out: the WAL's extents ran ahead of its size, every free byte was
    gone, and the tenant's next PUT failed."""
    sim, node = loaded_node()
    wal = node.engines["t1"].wal.file
    before = (node.fs.free_bytes, list(wal.extents), wal.allocated, wal.size)
    for size in (PAST_CAPACITY, node.fs.free_bytes + 8 * KIB):
        with pytest.raises(OutOfSpace):
            drive(sim, node.put("t1", 1, size))
        assert (node.fs.free_bytes, list(wal.extents), wal.allocated, wal.size) == before
    drive(sim, node.put("t1", 1, 2 * KIB))
    assert drive(sim, node.get("t1", 1)) == 2 * KIB
    assert wal.size == before[3] + 2 * KIB + RECORD_OVERHEAD

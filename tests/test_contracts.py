"""The request and IO entry points' contract table.

Each row is (entry, edge value, call, outcome).  The outcome is either a
named exception, raised before any state changes — the node's state
digest (WAL size and extents, free filesystem bytes, the engine's tables
and memtable, the tenant's scheduler usage, the object cache, the
scheduler backlog, the free NCQ slots, the device counters, the FTL
page map and its host-stream cursors) is the same before and after,
and the tenant's next PUT still lands — or a specified result.  Every
row runs on a freshly loaded one-tenant node.
"""

import math

import pytest

from repro.core import IoTag, Reservation
from repro.engine import EngineConfig
from repro.engine.db import RECORD_OVERHEAD
from repro.node import NodeConfig, StorageNode
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
        node.scheduler.backlog, node.device._ncq.value,
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
]

ENTRIES = {
    f"StorageNode.{name}"
    for name in ("get", "put", "delete", "scan", "apply_replica", "read_replica")
} | {f"LsmEngine.{name}" for name in ("get", "put", "delete", "scan")} | {
    "LibraScheduler.read", "LibraScheduler.write", "SimFile.read", "SimFile.append",
    "Wal.append",
} | {f"SsdDevice.{name}" for name in ("submit", "read", "write", "trim")} | {
    "Ftl.host_write", "Ftl.precondition", "Ftl.read_channels", "Ftl.trim",
    "Ftl.trim_extents",
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

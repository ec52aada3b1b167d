"""Architecture rules the code base keeps, checked on its source.

- Only ``repro.sim`` knows the kernel's queue: no module outside
  ``src/repro/sim/`` touches ``Simulator._heap``, ``_seq`` or ``_ready``
  (the FIFO of actions due now) or imports ``heapq.heappush``.  Every
  other layer queues an action through the kernel's public calls
  (``call_at``, ``Event.succeed``/``fail``, ``timeout``, ``process``).
- Only ``net/primary_backup.py`` knows the live-migration protocol's
  insides: no other module names ``_Migration``, the service's
  ``_migrations`` table or a ``migration_*`` step.  The control plane
  reaches it through ``PrimaryBackupService.transfer`` and
  ``reset_stream`` alone.  (``GrowCell.migrations`` in ``scalefig``
  is a count of moves, not the service's table, so the rule names the
  table by its private spelling.)
- Messages in ``repro.net`` are tuples or bare values: no dict
  display in ``src/repro/net/`` is an argument of ``.call``, ``.cast``,
  ``.fan_out`` or ``.reply``, or the first element of a returned tuple
  (a handler's ``(result, reply_bytes)``).  The hot payloads and the
  cold ones have one shape, and a :class:`~repro.net.Version` travels as
  itself.
- Every name in every ``repro.*`` ``__all__`` resolves.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
KERNEL = SRC / "sim"
#: the kernel's queue: its heap, the heap's tie-break counter, its FIFO
QUEUE_ATTRS = {"_heap", "_seq", "_ready"}
#: the one module that knows the live-migration protocol
PRIMARY_BACKUP = SRC / "net" / "primary_backup.py"
NET = SRC / "net"
#: the endpoint calls whose arguments travel as a message or reply
MESSAGE_CALLS = {"call", "cast", "fan_out", "reply"}


def queue_touches(source: str):
    """``(line, what)`` for each reach into a kernel's queue in
    ``source``: one of ``QUEUE_ATTRS`` read or written on anything but
    ``self`` (a class's own counter of that name is its business), and
    ``heappush`` imported or called through ``heapq``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            if node.attr in QUEUE_ATTRS and not (
                isinstance(node.value, ast.Name) and node.value.id == "self"
            ):
                found.append((node.lineno, f".{node.attr}"))
            elif node.attr == "heappush" and isinstance(node.value, ast.Name) \
                    and node.value.id == "heapq":
                found.append((node.lineno, "heapq.heappush"))
        elif isinstance(node, ast.ImportFrom) and node.module == "heapq":
            if any(alias.name in ("heappush", "*") for alias in node.names):
                found.append((node.lineno, "from heapq import heappush"))
    return sorted(found)


def test_the_checker_finds_a_push_onto_the_kernels_heap():
    # How device and fabric code once queued its completions.
    source = (
        "from heapq import heappush\n"
        "import heapq\n"
        "def submit(self, sim, at, fn, arg):\n"
        "    sim._seq += 1\n"
        "    heappush(sim._heap, (at, sim._seq, fn, arg))\n"
        "    heapq.heappush(self.sim._heap, (at, 0, fn, arg))\n"
        "    self.sim._ready.append((fn, arg))\n"
        "    self._seq += 1  # a class's own counter\n"
    )
    assert queue_touches(source) == [
        (1, "from heapq import heappush"),
        (4, "._seq"), (5, "._heap"), (5, "._seq"),
        (6, "._heap"), (6, "heapq.heappush"),
        (7, "._ready"),
    ]


def test_only_the_kernel_touches_its_queue():
    outside = [path for path in sorted(SRC.rglob("*.py")) if KERNEL not in path.parents]
    assert len(outside) > 50
    touches = {str(path.relative_to(SRC)): queue_touches(path.read_text()) for path in outside}
    assert {path: hits for path, hits in touches.items() if hits} == {}


def migration_touches(source: str):
    """``(line, what)`` for each reach into the live-migration protocol
    in ``source``: the ``_Migration`` class named or imported, the
    ``_migrations`` table, or a ``migration_*`` attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and (
            node.attr == "_migrations" or node.attr.startswith("migration_")
        ):
            found.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, ast.Name) and node.id == "_Migration":
            found.append((node.lineno, "_Migration"))
        elif isinstance(node, ast.ImportFrom):
            if any(alias.name == "_Migration" for alias in node.names):
                found.append((node.lineno, "import _Migration"))
    return sorted(found)


def test_the_checker_finds_a_reach_into_the_migration_protocol():
    # How the reshard coordinator once drove the transfer step by step.
    source = (
        "from repro.net.primary_backup import _Migration\n"
        "def move(source, cell):\n"
        "    source.migration_begin('t', 0, 0, 10)\n"
        "    tail = source.migration_take_tail('t', 0)\n"
        "    state = source._migrations[('t', 0)]\n"
        "    assert isinstance(state, _Migration)\n"
        "    cell.migrations += 1  # a count of moves, not the table\n"
    )
    assert migration_touches(source) == [
        (1, "import _Migration"), (3, ".migration_begin"),
        (4, ".migration_take_tail"), (5, "._migrations"), (6, "_Migration"),
    ]


def test_only_primary_backup_knows_the_migration_protocol():
    outside = [path for path in sorted(SRC.rglob("*.py")) if path != PRIMARY_BACKUP]
    assert len(outside) > 50
    touches = {str(path.relative_to(SRC)): migration_touches(path.read_text()) for path in outside}
    assert {path: hits for path, hits in touches.items() if hits} == {}
    # ...and the rule has something to guard: the protocol is in there.
    assert migration_touches(PRIMARY_BACKUP.read_text())


def dict_messages(source: str):
    """``(line, what)`` for each dict display in ``source`` that would
    travel as a message: an argument of one of ``MESSAGE_CALLS``, or
    the first element of a returned tuple."""
    dicts = (ast.Dict, ast.DictComp)
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in MESSAGE_CALLS:
            for arg in node.args + [keyword.value for keyword in node.keywords]:
                if isinstance(arg, dicts):
                    found.append((arg.lineno, f".{node.func.attr}"))
        elif isinstance(node, ast.Return) and isinstance(node.value, ast.Tuple) \
                and node.value.elts and isinstance(node.value.elts[0], dicts):
            found.append((node.lineno, "return"))
    return sorted(found)


def test_the_checker_finds_a_dict_message():
    # The heartbeat cast, ``repl.seq`` call and handler as they once were.
    source = (
        "def beat(self):\n"
        "    self.endpoint.cast(\n"
        "        self.controller,\n"
        "        'ctrl.heartbeat',\n"
        "        {'node': self.endpoint.name, 'at': self.sim.now},\n"
        "        HEARTBEAT_BYTES,\n"
        "    )\n"
        "def seq(self, name, tenant, pid):\n"
        "    reply = yield from self.endpoint.call(name, 'repl.seq', {'tenant': tenant}, 16)\n"
        "    return reply['seq']\n"
        "def handle_seq(self, request):\n"
        "    return {'seq': self.applied_seq(*request.payload)}, ACK_BYTES\n"
        "def fine(self, request, counts):\n"
        "    self.rpc.reply(request, dict(counts), 16, 0.0)  # not a display\n"
        "    self.rpc.fan_out(t, 'm', (1, 2), 16, done=lambda ok, r: {ok: r})\n"
        "    return (request.payload, {'n': 1}), 16\n"
    )
    assert dict_messages(source) == [(5, ".cast"), (9, ".call"), (12, "return")]


def test_every_message_in_net_is_a_tuple_or_a_bare_value():
    modules = sorted(NET.glob("*.py"))
    assert len(modules) > 5
    found = {str(path.relative_to(SRC)): dict_messages(path.read_text()) for path in modules}
    assert {path: hits for path, hits in found.items() if hits} == {}


def test_every_name_in_every_all_resolves():
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith(".__main__")  # that one runs the CLI
    ]
    exported = [module for module in modules if hasattr(module, "__all__")]
    assert len(exported) > 50
    missing = [
        f"{module.__name__}.{name}"
        for module in exported
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert missing == []

"""Bucket a cProfile table into the ``src/repro`` layers.

The input is ``cProfile.Profile.stats`` after ``create_stats()``:
``{(file, line, name): (prim_calls, calls, self_s, cum_s, callers)}``
with ``callers = {caller_key: (calls, prim_calls, self_s, cum_s)}``.
A function belongs to the layer its source path names.  Built-in,
standard-library and installed third-party (numpy) functions do no work
of their own accord, so their self time is charged to the layers of
their immediate callers, split by the self time the profiler recorded
per caller.  Everything else — the benchmark's own driver, any path
that is not ``repro`` — is ``other``.
"""

from __future__ import annotations

import re
import sysconfig
from typing import Dict, Optional, Tuple

#: the ``src/repro`` packages on the request path, plus the driver
LAYERS = ("sim", "net", "node", "engine", "core", "ssd", "obs", "faults", "other")

#: where the interpreter keeps code that is not this repository's
_LIBRARY_DIRS = tuple(
    {sysconfig.get_paths()[name] for name in ("stdlib", "platstdlib", "purelib", "platlib")}
)
# greedy prefix: the last ``repro/<package>/`` in the path is the package
_REPRO_PACKAGE = re.compile(r".*[/\\]repro[/\\](\w+)[/\\]")

FuncKey = Tuple[str, int, str]


def layer_of(filename: str) -> Optional[str]:
    """The layer owning ``filename``; None means "charge the caller"."""
    if filename == "~" or filename.startswith("<"):
        return None  # C built-ins and frozen/exec'd code
    match = _REPRO_PACKAGE.match(filename)
    if match:
        return match.group(1) if match.group(1) in LAYERS else "other"
    if filename.startswith(_LIBRARY_DIRS):
        return None
    return "other"


def bucket(stats: Dict[FuncKey, tuple], top: int = 15) -> Dict[str, dict]:
    """Per-layer ``self_s``, ``self_share``, ``calls`` and top functions.

    ``calls`` counts the layer's own Python functions only (generator
    resumes included, as cProfile counts them), so it is an integer that
    repeats exactly for a deterministic program.
    """
    memo: Dict[FuncKey, Dict[str, float]] = {}

    def shares(func: FuncKey) -> Dict[str, float]:
        known = memo.get(func)
        if known is not None:
            return known
        layer = layer_of(func[0])
        if layer is not None:
            memo[func] = {layer: 1.0}
            return memo[func]
        memo[func] = {"other": 1.0}  # cuts caller cycles; replaced below
        callers = stats[func][4] if func in stats else {}
        weights = {caller: row[2] for caller, row in callers.items()}
        if not any(weights.values()):
            weights = {caller: row[0] for caller, row in callers.items()}
        total = sum(weights.values())
        if total > 0:
            split: Dict[str, float] = {}
            for caller, weight in weights.items():
                for name, frac in shares(caller).items():
                    split[name] = split.get(name, 0.0) + frac * weight / total
            memo[func] = split
        return memo[func]

    layers = {name: {"self_s": 0.0, "calls": 0, "top": []} for name in LAYERS}
    for func, (_prim, calls, self_s, _cum, _callers) in stats.items():
        own = layer_of(func[0])
        if own is not None:
            layers[own]["calls"] += calls
        for name, frac in shares(func).items():
            layers[name]["self_s"] += self_s * frac
            layers[name]["top"].append((self_s * frac, calls, func))
    total = sum(layer["self_s"] for layer in layers.values())
    for layer in layers.values():
        layer["self_share"] = layer["self_s"] / total if total else 0.0
        layer["top"] = [
            {"function": f"{file}:{line}({name})", "self_s": self_s, "calls": calls}
            for self_s, calls, (file, line, name) in sorted(layer["top"], reverse=True)[:top]
        ]
    return layers


def frame_cost(stats: Dict[FuncKey, tuple], path_suffix: str, name: str) -> Tuple[int, float]:
    """``(calls, cumulative seconds)`` of the functions called ``name``
    in the file ending with ``path_suffix`` (a public entry point)."""
    calls = 0
    cum_s = 0.0
    for (file, _line, func), row in stats.items():
        if func == name and file.replace("\\", "/").endswith(path_suffix):
            calls += row[1]
            cum_s += row[3]
    return calls, cum_s

"""Fitted device surrogate: a statistical stand-in for the structural SSD.

The structural :class:`~repro.ssd.SsdDevice` earns its fidelity by
simulating controllers, channels, the FTL, and GC — which makes it the
single most expensive component in a sweep.  This module fits a
*surrogate profile* offline from the structural model's own op stream
and replays it as a fourth device profile:

- :func:`fit_surrogate` drives a closed-loop workload grid (op size ×
  queue depth × read mix) against a real :class:`SsdDevice`, collects
  per-kind completion-latency samples, and fits one log-linear model
  per (kind, quantile)::

      log(latency_q) = b0 + b1·log(size_KiB) + b2·log(qd) + b3·read_mix

  solved by least squares over the grid's empirical quantiles.  The
  coefficients — a few hundred floats — are committed as a JSON
  artifact next to this module (``surrogate_<profile>.json``).

- :class:`SurrogateModel` evaluates the fit: a monotone quantile curve
  per operating point, and inverse-CDF sampling by piecewise-linear
  interpolation between fitted quantiles (curves cached per rounded
  operating point, so the hot path is one uniform draw and one
  interpolation).

- :class:`SurrogateDevice` duck-types the slice of the device interface
  the scheduler and the epoch runner consume (``submit``, ``read``,
  ``write``, ``trim``, ``queue_depth``, ``in_flight``, ``stats``,
  ``epoch_op``), tracking queue depth from its own in-flight count and
  the read mix with an EWMA over submitted ops.

The surrogate is for *sweep* workloads — wide grids where per-op
structural fidelity matters less than the latency distribution shape.
Anything studying GC, faults, or FTL dynamics must keep the structural
model (the surrogate has no page map to age).

CLI::

    python -m repro.ssd.surrogate --fit            # refit + rewrite JSON
    python -m repro.ssd.surrogate --report out.json  # accuracy report
    python -m repro.ssd.surrogate --profile all --report out.json
                                                   # every committed fit
    python -m repro.ssd.surrogate --smoke          # tiny grid, stdout
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..sim import OK_RESULT, Event, Simulator
from .device import SsdDevice
from .profiles import SsdProfile, get_profile
from .stats import SsdStats

__all__ = [
    "FIT_QUANTILES",
    "SurrogateDevice",
    "SurrogateModel",
    "default_artifact_path",
    "fit_surrogate",
    "fitted_profiles",
    "surrogate_report",
]

KIB = 1024

#: quantile levels the fit pins down (the sampler interpolates between)
FIT_QUANTILES = (0.05, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99)
#: fitting grid: op sizes × queue depths × read fractions
FIT_SIZES = (4 * KIB, 16 * KIB, 64 * KIB)
FIT_DEPTHS = (1, 4, 16, 32)
FIT_MIXES = (1.0, 0.5, 0.0)
#: a grid cell contributes a (kind, quantile) row only above this count
MIN_SAMPLES = 64

_EWMA_ALPHA = 0.02


def default_artifact_path(profile_name: str) -> str:
    """The committed JSON artifact for ``profile_name`` (next to this file)."""
    return os.path.join(os.path.dirname(__file__), f"surrogate_{profile_name}.json")


def fitted_profiles() -> List[str]:
    """Profile names with a committed surrogate artifact, sorted."""
    here = os.path.dirname(__file__)
    names = []
    for entry in os.listdir(here):
        if entry.startswith("surrogate_") and entry.endswith(".json"):
            names.append(entry[len("surrogate_"):-len(".json")])
    return sorted(names)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


def _features(size: int, qd: int, mix: float) -> List[float]:
    """Design-matrix row for one operating point."""
    return [1.0, math.log(size / KIB), math.log(qd), mix]


def _measure_cell(
    profile: SsdProfile,
    size: int,
    qd: int,
    mix: float,
    seed: int,
    horizon: float,
) -> Dict[str, List[float]]:
    """Closed-loop latencies from a fresh structural device at one point."""
    sim = Simulator()
    device = SsdDevice(sim, profile, seed=seed)
    rng = random.Random(seed ^ 0x5EED)
    page = profile.page_size
    max_slot = (profile.logical_capacity - size) // page
    samples: Dict[str, List[float]] = {"read": [], "write": []}

    def worker():
        while sim.now < horizon:
            offset = rng.randrange(0, max_slot) * page
            t0 = sim.now
            if rng.random() < mix:
                yield device.read(offset, size)
                samples["read"].append(sim.now - t0)
            else:
                yield device.write(offset, size)
                samples["write"].append(sim.now - t0)

    for _ in range(qd):
        sim.process(worker())
    sim.run(until=horizon)
    return samples


def fit_surrogate(
    profile_name: str = "intel320",
    seed: int = 23,
    horizon: float = 0.3,
    sizes: Tuple[int, ...] = FIT_SIZES,
    depths: Tuple[int, ...] = FIT_DEPTHS,
    mixes: Tuple[float, ...] = FIT_MIXES,
) -> dict:
    """Fit the surrogate artifact for one profile (see module docstring).

    Returns the artifact dict; callers serialize it with
    :func:`json.dump`.  The artifact keeps the empirical quantile table
    alongside the coefficients so accuracy reports can be produced
    without re-running the grid.
    """
    profile = get_profile(profile_name)
    cells = []
    index = 0
    for size in sizes:
        for qd in depths:
            for mix in mixes:
                index += 1
                samples = _measure_cell(
                    profile, size, qd, mix, seed=seed + index, horizon=horizon
                )
                cell = {"size": size, "qd": qd, "mix": mix, "quantiles": {}}
                for kind, values in samples.items():
                    if len(values) < MIN_SAMPLES:
                        continue
                    arr = np.sort(np.asarray(values))
                    cell["quantiles"][kind] = [
                        float(np.quantile(arr, q)) for q in FIT_QUANTILES
                    ]
                    cell.setdefault("samples", {})[kind] = len(values)
                cells.append(cell)

    coef: Dict[str, List[List[float]]] = {}
    residuals: Dict[str, List[float]] = {}
    for kind in ("read", "write"):
        rows = [c for c in cells if kind in c["quantiles"]]
        if not rows:
            continue
        design = np.asarray([_features(c["size"], c["qd"], c["mix"]) for c in rows])
        kind_coef = []
        kind_resid = []
        for qi in range(len(FIT_QUANTILES)):
            y = np.log([c["quantiles"][kind][qi] for c in rows])
            beta, *_ = np.linalg.lstsq(design, y, rcond=None)
            kind_coef.append([float(b) for b in beta])
            predicted = design @ beta
            # mean |relative error| in latency space, not log space
            kind_resid.append(float(np.mean(np.abs(np.exp(predicted - y) - 1.0))))
        coef[kind] = kind_coef
        residuals[kind] = kind_resid

    return {
        "profile": profile_name,
        "quantiles": list(FIT_QUANTILES),
        "features": ["1", "log(size_kib)", "log(qd)", "read_mix"],
        "coef": coef,
        "fit_error": residuals,
        "grid": {
            "sizes": list(sizes),
            "depths": list(depths),
            "mixes": list(mixes),
            "horizon": horizon,
            "seed": seed,
        },
        "cells": cells,
    }


# ---------------------------------------------------------------------------
# Evaluation and sampling
# ---------------------------------------------------------------------------


class SurrogateModel:
    """Evaluates a fitted surrogate artifact (see :func:`fit_surrogate`)."""

    def __init__(self, artifact: dict):
        self.artifact = artifact
        self.profile_name = artifact["profile"]
        self.levels = tuple(artifact["quantiles"])
        self._coef = {
            kind: np.asarray(rows) for kind, rows in artifact["coef"].items()
        }
        self._curves: Dict[Tuple[str, int, int, float], Tuple[float, ...]] = {}

    @classmethod
    def load(cls, profile_name: str = "intel320", path: Optional[str] = None) -> "SurrogateModel":
        path = path or default_artifact_path(profile_name)
        with open(path) as fh:
            return cls(json.load(fh))

    def curve(self, kind: str, size: int, qd: int, mix: float) -> Tuple[float, ...]:
        """Fitted latency at each quantile level, forced monotone.

        Independent per-quantile fits can cross where the grid is thin;
        a running max restores a valid distribution.  Curves are cached
        per (kind, size, qd, mix rounded to 1/64) — the sampler's hot
        path is then a dict hit.
        """
        key = (kind, size, qd, round(mix * 64.0) / 64.0)
        cached = self._curves.get(key)
        if cached is not None:
            return cached
        x = np.asarray(_features(size, max(1, qd), key[3]))
        lat = np.exp(self._coef[kind] @ x)
        curve = tuple(np.maximum.accumulate(lat).tolist())
        self._curves[key] = curve
        return curve

    def sample(self, rng: random.Random, kind: str, size: int, qd: int, mix: float) -> float:
        """One latency draw: inverse-CDF over the fitted quantile curve."""
        curve = self.curve(kind, size, qd, mix)
        u = rng.random()
        levels = self.levels
        if u <= levels[0]:
            return curve[0]
        if u >= levels[-1]:
            return curve[-1]
        for i in range(1, len(levels)):
            if u <= levels[i]:
                lo, hi = levels[i - 1], levels[i]
                frac = (u - lo) / (hi - lo)
                return curve[i - 1] + frac * (curve[i] - curve[i - 1])
        return curve[-1]  # pragma: no cover - loop always returns

    def median(self, kind: str, size: int, qd: int, mix: float) -> float:
        curve = self.curve(kind, size, qd, mix)
        return curve[self.levels.index(0.5)] if 0.5 in self.levels else curve[len(curve) // 2]


# ---------------------------------------------------------------------------
# The surrogate device
# ---------------------------------------------------------------------------


class SurrogateDevice:
    """Statistical device: latencies sampled from a fitted surrogate.

    Implements the interface slice the Libra scheduler, the raw-IO
    harness, and the epoch runner consume.  There is no FTL, no GC, and
    no fault machinery — every op succeeds after a sampled latency — so
    the steady-state monitor sees it as permanently quiet (``gc_running``
    is absent → False; ``ftl`` is absent → watermark checks skip).
    """

    def __init__(
        self,
        sim: Simulator,
        profile: SsdProfile,
        model: Optional[SurrogateModel] = None,
        seed: int = 11,
    ):
        self.sim = sim
        self.profile = profile
        self.model = model or SurrogateModel.load(profile.name)
        self.stats = SsdStats()
        self.op_observer = None
        self.tracer = None
        self._rng = random.Random(seed)
        self._inflight = 0
        #: EWMA of the submitted read fraction — the model's mix feature
        self._read_mix = 0.5

    @property
    def queue_depth(self) -> int:
        return self.profile.queue_depth

    @property
    def in_flight(self) -> int:
        return self._inflight

    # -- scheduler dispatch path -------------------------------------------

    def submit(self, is_read: bool, offset: int, size: int, ctx, callback, cb_arg) -> None:
        self._read_mix += _EWMA_ALPHA * ((1.0 if is_read else 0.0) - self._read_mix)
        self._inflight += 1
        kind = "read" if is_read else "write"
        latency = self.model.sample(
            self._rng, kind, size, self._inflight, self._read_mix
        )
        self.sim.call_at(
            self.sim.now + latency, self._finish, (callback, cb_arg, is_read, size)
        )

    def _finish(self, arg) -> None:
        callback, cb_arg, is_read, size = arg
        self._inflight -= 1
        stats = self.stats
        if is_read:
            stats.reads += 1
            stats.read_bytes += size
        else:
            stats.writes += 1
            stats.write_bytes += size
        if self.op_observer is not None:
            self.op_observer("read" if is_read else "write", size)
        callback(cb_arg, OK_RESULT)

    # -- direct Event API (drivers that bypass the scheduler) ---------------

    def read(self, offset: int, size: int, ctx=None) -> Event:
        done = Event(self.sim)
        self.submit(True, offset, size, ctx, _succeed, done)
        return done

    def write(self, offset: int, size: int, ctx=None) -> Event:
        done = Event(self.sim)
        self.submit(False, offset, size, ctx, _succeed, done)
        return done

    def trim_extents(self, extents) -> None:
        self.stats.trims += len(extents)

    # -- epoch fast-forward hooks -------------------------------------------

    def epoch_op(self, is_read: bool, offset: int, size: int) -> float:
        """Quiet-epoch op: one idle-depth sample, counters updated."""
        stats = self.stats
        if is_read:
            stats.reads += 1
            stats.read_bytes += size
        else:
            stats.writes += 1
            stats.write_bytes += size
        kind = "read" if is_read else "write"
        return self.model.sample(self._rng, kind, size, 1, self._read_mix)

    def maybe_collect(self) -> None:
        """No GC to start — the surrogate has no page map to compact."""


def _succeed(done: Event, _result) -> None:
    done.succeed()


# ---------------------------------------------------------------------------
# Accuracy report
# ---------------------------------------------------------------------------


def surrogate_report(
    profile_name: str = "intel320",
    path: Optional[str] = None,
    seed: int = 517,
    horizon: float = 0.15,
) -> dict:
    """Compare the committed fit against a fresh empirical smoke grid.

    Re-measures a small off-seed grid on the structural device and
    reports the mean absolute relative error of the fitted quantiles —
    the artifact CI uploads so drift in the structural model shows up
    as fit error, not silent staleness.
    """
    model = SurrogateModel.load(profile_name, path)
    profile = get_profile(profile_name)
    rows = []
    errors: Dict[str, List[float]] = {"read": [], "write": []}
    index = 0
    for size in (FIT_SIZES[0], FIT_SIZES[-1]):
        for qd in (1, 16):
            for mix in (1.0, 0.5):
                index += 1
                samples = _measure_cell(
                    profile, size, qd, mix, seed=seed + index, horizon=horizon
                )
                for kind, values in samples.items():
                    if len(values) < MIN_SAMPLES:
                        continue
                    arr = np.sort(np.asarray(values))
                    empirical = [float(np.quantile(arr, q)) for q in model.levels]
                    fitted = model.curve(kind, size, qd, mix)
                    rel = [
                        abs(f - e) / e for f, e in zip(fitted, empirical) if e > 0
                    ]
                    err = float(np.mean(rel)) if rel else 0.0
                    errors[kind].append(err)
                    rows.append(
                        {
                            "size": size,
                            "qd": qd,
                            "mix": mix,
                            "kind": kind,
                            "samples": len(values),
                            "mean_abs_rel_error": err,
                        }
                    )
    summary = {
        kind: (float(np.mean(errs)) if errs else None) for kind, errs in errors.items()
    }
    return {
        "profile": profile_name,
        "quantiles": list(model.levels),
        "cells": rows,
        "mean_abs_rel_error": summary,
    }


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", default="intel320")
    parser.add_argument("--fit", action="store_true", help="refit and rewrite the JSON artifact")
    parser.add_argument("--smoke", action="store_true", help="tiny fit grid, print to stdout only")
    parser.add_argument("--report", metavar="OUT", help="write an accuracy report JSON to OUT")
    parser.add_argument("--out", help="artifact path override for --fit")
    args = parser.parse_args(argv)

    if args.smoke:
        artifact = fit_surrogate(
            args.profile,
            horizon=0.1,
            sizes=(4 * KIB,),
            depths=(1, 8),
            mixes=(1.0, 0.0),
        )
        print(json.dumps({k: artifact[k] for k in ("profile", "coef", "fit_error")}, indent=2))
        return 0
    if args.fit:
        artifact = fit_surrogate(args.profile)
        out = args.out or default_artifact_path(args.profile)
        with open(out, "w") as fh:
            json.dump(artifact, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {out}")
        for kind, errs in artifact["fit_error"].items():
            print(f"  {kind}: mean |rel err| per quantile = "
                  + ", ".join(f"{e:.1%}" for e in errs))
        return 0
    if args.report:
        if args.profile == "all":
            names = fitted_profiles()
            report = {
                "profiles": {name: surrogate_report(name) for name in names}
            }
            summary = {
                name: report["profiles"][name]["mean_abs_rel_error"]
                for name in names
            }
        else:
            report = surrogate_report(args.profile)
            summary = report["mean_abs_rel_error"]
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.report}")
        print(json.dumps(summary, indent=2))
        return 0
    parser.error("one of --fit, --smoke, --report is required")
    return 2  # pragma: no cover


if __name__ == "__main__":
    raise SystemExit(main())

"""Experiment CLI: regenerate any of the paper's figures.

Usage::

    python -m repro.experiments fig4            # quick grid
    python -m repro.experiments fig9 --full     # the paper's full grid
    python -m repro.experiments fig4 --jobs 4   # fan grid cells out over
                                                # 4 worker processes
    python -m repro.experiments all             # every figure, quick

``--jobs N`` fans a figure's independent work units (grid cells,
variants, cost models, cluster cells) over ``N`` worker processes,
byte-identically to a serial run: every unit owns its simulator and
derived seed, and the merge is ordered.  One continuous timeline
(fig3, fig12, chaosfig, obsfig) or pure computation (fig6, fig8)
accepts the flag and runs serially.
"""

from __future__ import annotations

import argparse
import importlib
import time
from typing import List

__all__ = ["main", "FIGURES"]

FIGURES = (
    "fig2", "fig3", "fig4", "fig5", "fig6",
    "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
    "chaosfig", "clusterfig", "devicefig", "obsfig",
    "partitionfig", "scalefig",
)


def run_figure(
    name: str, quick: bool, seed: int = None, jobs: int = 1, smoke: bool = False
) -> str:
    """Run one figure module and return its rendered report."""
    if name not in FIGURES:
        raise SystemExit(f"unknown figure {name!r}; choose from {', '.join(FIGURES)} or 'all'")
    module = importlib.import_module(f"repro.experiments.{name}")
    kwargs = {"quick": quick, "jobs": jobs}
    if seed is not None:
        kwargs["seed"] = seed
    if smoke:
        import inspect

        if "smoke" not in inspect.signature(module.run).parameters:
            raise SystemExit(f"figure {name!r} has no --smoke mode")
        kwargs["smoke"] = True
    result = module.run(**kwargs)
    return module.render(result)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the Libra paper's evaluation figures.",
    )
    parser.add_argument("figure", help="fig2..fig12, or 'all'")
    parser.add_argument(
        "--full", action="store_true",
        help="run the paper's full grids (slower) instead of the quick subset",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the experiment seed")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for parallelizable figure grids "
             "(byte-identical to --jobs 1; default 1)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized footprint (figures that support it, e.g. scalefig)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    names = FIGURES if args.figure == "all" else (args.figure,)
    for name in names:
        started = time.time()
        report = run_figure(
            name, quick=not args.full, seed=args.seed, jobs=args.jobs,
            smoke=args.smoke,
        )
        print(report)
        print(f"[{name} completed in {time.time() - started:.0f}s]\n")
    return 0

"""Call counts of the planner's node generation over the shipped suite.

For each mode, plans every task of `configs/bench.json` at each of its
speeds, the ops of one pass of perfbench's plan workload for that mode (a
benchmark seed only shuffles their order, which changes no count), and
counts the calls of

    Stn.probe, Stn.extend, search.tighten, search.relaxed_plan,
    search.make_child, search.expand

each wrapped where its caller looks it up, and the rows that
estimate_completion builds (the h values passed to it, summed over its
calls). Prints one JSON line, {mode: {name: count}}:

    python tools/counts.py
    python tools/counts.py --tasks 2

Standard library only, besides the package under `src/`.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from copeplan import fileio, harness, stn  # noqa: E402
from copeplan.planner import engine, search  # noqa: E402

# (owner, attribute, counted name): one count per call
TARGETS = (
    (stn.Stn, "probe", "Stn.probe"),
    (stn.Stn, "extend", "Stn.extend"),
    (search, "tighten", "search.tighten"),
    (engine, "tighten", "search.tighten"),
    (search, "relaxed_plan", "search.relaxed_plan"),
    (search, "make_child", "search.make_child"),
    (engine, "expand", "search.expand"),
)
ROWS = "search.estimate_completion.rows"
NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS)) + (ROWS,)


def _counted(counts, name, real):
    def counted(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    return counted


def _rows_counted(counts, real):
    """estimate_completion builds one row per h value it is passed."""
    def counted(hs, *args, **kwargs):
        counts[ROWS] += len(hs)
        return real(hs, *args, **kwargs)

    return counted


@contextmanager
def counting(counts):
    """Count into `counts` while inside; every wrapped name is put back."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in TARGETS]
    saved.append((engine, "estimate_completion", engine.estimate_completion))
    try:
        for (owner, attr, name), (_, _, real) in zip(TARGETS, saved):
            setattr(owner, attr, _counted(counts, name, real))
        engine.estimate_completion = _rows_counted(counts, saved[-1][2])
        yield counts
    finally:
        for owner, attr, real in saved:
            setattr(owner, attr, real)


def count(n_tasks=None) -> dict:
    """{mode: {name: count}} over the first n_tasks shipped tasks (all by
    default) at every shipped speed, for every mode."""
    cfg = fileio.load(ROOT / "configs" / "bench.json")
    tasks = harness.benchmark_tasks(cfg)[:n_tasks]
    out = {}
    for mode in engine.MODES:
        with counting(dict.fromkeys(NAMES, 0)) as counts:
            for speed in sorted(cfg.speeds):
                for task in tasks:
                    engine.run_search(task, mode=mode, speed=speed,
                                      dispatch_params=cfg.dispatch_params(),
                                      max_expansions=cfg.max_expansions)
        out[mode] = counts
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--tasks", type=int, default=None,
                   help="count over the first N shipped tasks only")
    args = p.parse_args(argv)
    print(json.dumps(count(args.tasks)))


if __name__ == "__main__":
    main()

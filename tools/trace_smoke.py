"""Run the benchmark once, traced, on each workload and check its result line.

For each workload (all three by default) this copies `src/`, `perfbench/`,
`configs/` (the plan workloads read `configs/bench.json`) and
`BENCHMARK.json` into a temporary directory, runs

    python perfbench/run.py --workload W --trace 1 --seconds 0

there, and checks that the run exits 0 and that its last stdout line is
strict JSON (no NaN or Infinity) with `correct` true, no failed op and no
metric marked `absent`. The copy keeps the run's output files out of the
checkout. Standard library only; not part of the test suite, since the three
traced runs take about 25 s together on a 2-vCPU Xeon host.

    python tools/trace_smoke.py
    python tools/trace_smoke.py plan_disp solve_abstract

The exit status is 1 if any workload fails its check, else 0.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("plan_disp", "plan_nodisp", "solve_abstract")


def _refuse(name):
    raise ValueError(f"non-standard JSON constant {name}")


def check(workload: str) -> list[str]:
    """The problems with one traced run of `workload`; empty when it passes."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "out")
        for name in ("src", "perfbench", "configs"):
            shutil.copytree(ROOT / name, tmp / name, ignore=ignore)
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--trace", "1", "--seconds", "0"],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=600)
        except subprocess.TimeoutExpired:
            return ["no result within 600 s"]
    if done.returncode != 0:
        return [f"exit {done.returncode}: {done.stderr.strip()[-500:]}"]
    lines = done.stdout.splitlines()
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1], parse_constant=_refuse)
    except ValueError as exc:
        return [f"last line is not strict JSON ({exc}): {lines[-1][:200]}"]
    problems = []
    if result.get("correct") is not True:
        problems.append(f"correct is {result.get('correct')!r}")
    if result.get("failed") != 0:
        problems.append(f"failed is {result.get('failed')!r}")
    absent = sorted(name for name, metric in result.get("metrics", {}).items()
                    if "absent" in metric)
    if absent:
        problems.append("absent metrics: " + ", ".join(absent))
    return problems


def main(argv=None) -> int:
    workloads = (argv if argv is not None else sys.argv[1:]) or WORKLOADS
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown:
        print(f"unknown workload: {', '.join(unknown)}", file=sys.stderr)
        return 2
    failed = False
    for workload in workloads:
        problems = check(workload)
        print(f"{workload}: {'ok' if not problems else 'FAIL'}")
        for problem in problems:
            print(f"  {problem}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

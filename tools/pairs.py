"""Alternating benchmark pairs of a git revision against the working tree.

Extracts the revision with `git archive` into one temporary directory and
copies the working tree's `src/`, `perfbench/`, `configs/` and
`BENCHMARK.json` into another, as `tools/trace_smoke.py` copies them, so no
run writes into the checkout. For each `WORKLOAD=N` argument it then runs

    python perfbench/run.py --workload W --seed S --seconds 0 --trace 0

N times on each side, the side that goes first alternating from pair to
pair, and with --traced one `--trace 1` run per side after the pairs. Each
run's last stdout line must be strict JSON (no NaN or Infinity) with
`correct` true and no failed op, or the script stops. It prints each pair's
work_per_s (tree over revision) and each side's medians, and writes
`BENCH_<label>.json` at the root of the working tree: every run's metrics,
and for each end-to-end metric of `BENCHMARK.json` each side's quartiles,
the pairs in which the tree is better, the median of the per-pair ratios,
the ratio of the medians, and whether the medians differ by more than the
revision's interquartile range.

    python tools/pairs.py HEAD siblings plan_nodisp=8 plan_disp=8 \\
        solve_abstract=4 --traced

Standard library only; not part of the test suite, since one plan pair takes
about a minute on a 2-vCPU Xeon host.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("plan_disp", "plan_nodisp", "solve_abstract")
COPIED = ("src", "perfbench", "configs", "BENCHMARK.json")
SIDES = ("base", "tree")


def _refuse(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def extract_revision(rev: str, into: Path) -> str:
    """Unpack `rev` into `into` with git archive; returns its commit hash."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", commit))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)
    return commit


def copy_tree(into: Path):
    ignore = shutil.ignore_patterns("__pycache__", "out")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=ignore)
        else:
            shutil.copy(source, into / name)


def src_sha256(root: Path) -> str:
    """sha256 over src/**/*.py in sorted path order, each file fed as its
    path relative to `root` (UTF-8) immediately followed by its bytes."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_once(where: Path, workload: str, seed: int, trace: int) -> dict:
    """The result object of one benchmark run in `where`; raises when the
    run fails or its result is not a clean one."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=where, env=env, capture_output=True, text=True, timeout=1800)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} in {where.name}: exit {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1], parse_constant=_refuse) if lines else {}
    if result.get("correct") is not True or result.get("failed") != 0:
        raise RuntimeError(f"{workload} in {where.name}: not a clean run: {lines[-1:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) == 1:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarise(runs, metrics):
    """Per end-to-end metric: both sides' quartiles and the pairwise
    comparison, `better` read from BENCHMARK.json."""
    out = {}
    for name, better in metrics.items():
        base = [pair["base"][name] for pair in runs]
        tree = [pair["tree"][name] for pair in runs]
        sign = 1.0 if better == "higher" else -1.0
        bq, tq = quartiles(base), quartiles(tree)
        ratios = [t / b for b, t in zip(base, tree) if b]
        out[name] = {
            "base_q1_median_q3": bq,
            "tree_q1_median_q3": tq,
            "tree_better_pairs": sum(sign * (t - b) > 0 for b, t in zip(base, tree)),
            "pairs": len(runs),
            "median_pair_ratio": statistics.median(ratios) if ratios else None,
            "ratio_of_medians": tq[1] / bq[1] if bq[1] else None,
            "median_gap_exceeds_base_iqr": abs(tq[1] - bq[1]) > bq[2] - bq[0],
        }
    return out


def parse_counts(items):
    counts = {}
    for item in items:
        workload, _, n = item.partition("=")
        if workload not in WORKLOADS or not n.isdigit() or int(n) < 1:
            raise SystemExit(f"expected WORKLOAD=N with WORKLOAD in {WORKLOADS}, got {item!r}")
        counts[workload] = int(n)
    return counts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("rev", help="git revision to compare the working tree against")
    p.add_argument("label", help="writes BENCH_<label>.json")
    p.add_argument("pairs", nargs="+", metavar="WORKLOAD=N")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--traced", action="store_true",
                   help="one --trace 1 run per side and workload after the pairs")
    args = p.parse_args(argv)
    counts = parse_counts(args.pairs)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    record = {"label": args.label,
              "command": "python3 perfbench/run.py --workload <workload> "
                         f"--seed {args.seed} --seconds 0 --trace <0|1>",
              "host": {"machine": platform.machine(), "nproc": os.cpu_count(),
                       "python": platform.python_version()},
              "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {side: Path(tmp) / side for side in SIDES}
        for where in dirs.values():
            where.mkdir()
        commit = extract_revision(args.rev, dirs["base"])
        copy_tree(dirs["tree"])
        record["base"] = {"rev": args.rev, "commit": commit,
                          "src_sha256": src_sha256(dirs["base"])}
        record["tree"] = {"head": _git("rev-parse", "HEAD").decode().strip(),
                          "uncommitted_changes": bool(_git("status", "--porcelain")),
                          "src_sha256": src_sha256(dirs["tree"])}
        for workload, n in counts.items():
            runs = []
            for k in range(n):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_once(dirs[side], workload, args.seed, 0)
                runs.append(pair)
                b, t = pair["base"]["work_per_s"], pair["tree"]["work_per_s"]
                print(f"{workload} pair {k + 1}/{n} ({order[0]} first): work_per_s "
                      f"base {b:.1f} tree {t:.1f} ratio {t / b:.4f}", flush=True)
            entry = {"pairs": runs, "summary": summarise(runs, metrics)}
            work = entry["summary"]["work_per_s"]
            print(f"{workload}: median work_per_s base {work['base_q1_median_q3'][1]:.1f} "
                  f"tree {work['tree_q1_median_q3'][1]:.1f}, median pair ratio "
                  f"{work['median_pair_ratio']:.4f}, tree better in "
                  f"{work['tree_better_pairs']} of {n}", flush=True)
            if args.traced:
                entry["traced"] = {side: run_once(dirs[side], workload, args.seed, 1)
                                   for side in SIDES}
            record["workloads"][workload] = entry
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

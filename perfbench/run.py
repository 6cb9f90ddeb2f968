"""copeplan benchmark: planner throughput by mode, abstract-solver latency, and
an outside-in per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload plan_disp --seed 1 --seconds 20 --trace 0

Workloads (BENCHMARK.json says why each was chosen): plan_disp, plan_nodisp
and solve_abstract. One process and one thread run every op in a closed loop,
each op starting after the previous one returns. A run makes as many full
passes over the workload's ops as fit in --seconds on the reference host
(PASS_S), and at least one; the count does not depend on how fast the host
is at the time. Each op's fastest pass counts. Op outputs are checked after
each op, outside its timing.

The host's speed drifts, so a fixed reference loop is timed before every op
(hostspeed.py), and the end-to-end times are corrected to a host on which
that loop takes hostspeed.NOMINAL_S. The uncorrected wall-clock figures are
printed too, and written to perfbench/out/.

--trace 0 prints the end-to-end metrics. --trace 1 makes one paired pass,
in which each op runs untraced and then with the tracer installed, and
prints per-layer metrics, including the tracing overhead; traced rows must
equal untraced rows.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The environment and details go to perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("plan_disp", "plan_nodisp", "solve_abstract")
# seconds one pass takes on the reference host (hostspeed.NOMINAL_S), with
# its reference loops and checks; sets the number of passes in --seconds
PASS_S = {"plan_disp": 22.0, "plan_nodisp": 12.5, "solve_abstract": 6.5}
# setup_s is the median of this many set-ups: this process and fresh ones
SETUP_SAMPLES = 5
# reference loops timed on either side of each set-up
SETUP_REFS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it as JSON and exit")
    return p.parse_args(argv)


def set_up(workload, seed):
    """Import the program and build the workload's inputs; returns (workload, seconds)."""
    t0 = perf_counter()
    if workload == "solve_abstract":
        import abstract
        wl = abstract.AbstractWorkload(seed)
    else:
        import plan
        wl = plan.PlanWorkload(ROOT, workload.removeprefix("plan_"), seed)
    return wl, perf_counter() - t0


def timed_set_up(workload, seed):
    """set_up between reference loops; returns (workload, wall s, corrected s)."""
    hostspeed.warm()
    refs = [hostspeed.sample() for _ in range(SETUP_REFS)]
    wl, seconds = set_up(workload, seed)
    refs += [hostspeed.sample() for _ in range(SETUP_REFS)]
    return wl, seconds, seconds * hostspeed.NOMINAL_S / statistics.fmean(refs)


def fresh_set_up(args):
    """(wall s, corrected s) of a set-up in a fresh interpreter, so imports
    count again."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    out = json.loads(done.stdout.splitlines()[-1])
    return out["wall_s"], out["setup_s"]


def environment():
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown: not a git checkout (see src_sha256)"


def _src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# -- passes -------------------------------------------------------------------

class Pass:
    """One run over every op: rows, per-op seconds, problems and totals.

    refs[k] is the reference loop's time just before op k; a timed pass
    ends with one more after the last op.
    """

    def __init__(self):
        self.rows = []
        self.times = []
        self.refs = []
        self.works = []
        self.problems = {}  # op index -> why that op failed
        self.solved = 0


def run_op(p, k, op, workload, tracer=None):
    """Run and check op k, recording the result in pass p."""
    elapsed = None
    t0 = perf_counter()
    try:
        if tracer is None:
            out = workload.run(op)
        else:
            tracer.op_id = k
            with tracer.span("op"):
                out = workload.run(op)
        elapsed = perf_counter() - t0
        row, problem, solved, work = workload.check(op, out)
    except Exception as exc:  # a failed op is counted, and the run goes on
        if elapsed is None:
            elapsed = perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        row, problem, solved, work = None, f"op {k}: {type(exc).__name__}: {exc}", False, 0
    p.times.append(elapsed)
    p.rows.append(row)
    p.works.append(work)
    p.solved += solved
    if problem is not None:
        p.problems[k] = problem


def run_pass(workload):
    p = Pass()
    for k, op in enumerate(workload.ops):
        p.refs.append(hostspeed.sample())
        run_op(p, k, op, workload)
    p.refs.append(hostspeed.sample())
    return p


def run_paired(workload, tracer):
    """One pass that runs each op untraced, then traced, back to back.

    Host slowdowns last seconds, so both runs of an op see about the same
    host and the difference of their times is the tracing overhead. The
    pass starts by building the inputs again under the tracer, as set-up
    does. Returns (untraced pass, traced pass, inputs unchanged).
    """
    plain, traced = Pass(), Pass()
    tracer.op_id = -1
    tracer.enable()
    try:
        with tracer.span("setup"):
            same_inputs = workload.regenerate()
    finally:
        tracer.disable()
    for k, op in enumerate(workload.ops):
        run_op(plain, k, op, workload)
        tracer.enable()
        try:
            run_op(traced, k, op, workload, tracer)
        finally:
            tracer.disable()
    return plain, traced, same_inputs


def note_mismatches(first, later, label):
    """Fail every op of `later` whose row differs from the first pass's."""
    for k, (a, b) in enumerate(zip(first.rows, later.rows)):
        if a != b:
            later.problems.setdefault(k, f"{label}: op {k} row {b!r} differs from {a!r}")


def run_timed(workload, passes):
    """`passes` full passes; each must reproduce the first pass's rows."""
    out = []
    for _ in range(passes):
        p = run_pass(workload)
        if out:
            note_mismatches(out[0], p, f"pass {len(out)}")
        out.append(p)
    return out


def run_traced(workload, tracer):
    """One paired pass, checked; returns (untraced pass, traced pass)."""
    plain, traced, same_inputs = run_paired(workload, tracer)
    note_mismatches(plain, traced, "traced pass")
    if not same_inputs:
        traced.problems.setdefault(-1, "traced set-up built different inputs")
    return plain, traced


def timings(per_pass, works, setup_s):
    """Timing metrics from each op's fastest pass."""
    op_s = [min(ts) for ts in zip(*per_pass)]
    return {
        "work_per_s": sum(works) / sum(op_s),
        "op_ms_p50": statistics.median(op_s) * 1e3,
        "op_ms_p90": statistics.quantiles(op_s, n=10)[8] * 1e3,
        "setup_s": statistics.median(setup_s),
    }


def end_to_end(passes, setups):
    """(metrics with host-corrected times, the same times uncorrected)."""
    works = passes[0].works
    values = timings([hostspeed.corrected(p.times, p.refs) for p in passes], works,
                     [c for _, c in setups])
    values.update(
        solved=passes[0].solved,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    wall = timings([p.times for p in passes], works, [w for w, _ in setups])
    return values, wall


# -- tracing --------------------------------------------------------------------

def install(tracer, counts):
    """Prepare wrappers for every traced name where its caller looks it up."""
    lognormal_args = counts.setdefault("lognormal_args", set())

    def keep(args, child):
        counts["kept"] = counts.get("kept", 0) + (child is not None)

    def dp_blocks(args, _):
        # block lengths solve_kds_dp tries: d - time + 1 at each time up to
        # the deadline d, and 1 at each later time
        inst = args[0]
        T = inst.horizon
        counts["dp_block_evals"] = counts.get("dp_block_evals", 0) + sum(
            p.deadline * (p.deadline + 1) // 2 + T + 1 for p in inst.processes)

    targets = [
        ("copeplan.planner.engine", "run_search", "engine.run_search", None),
        ("copeplan.planner.engine", "expand", "search.expand", None),
        ("copeplan.planner.search", "make_child", "search.make_child", keep),
        ("copeplan.planner.search", "relaxed_plan", "search.relaxed_plan", None),
        ("copeplan.planner.search", "tighten", "search.tighten", None),
        ("copeplan.planner.engine", "tighten", "search.tighten", None),
        ("copeplan.stn", "Stn.add_event", "stn.add_event", None),
        ("copeplan.stn", "Stn.add_constraint", "stn.add_constraint", None),
        ("copeplan.planner.engine", "estimate_completion", "search.estimate_completion", None),
        ("copeplan.planner.search", "discretized_lognormal", "search.discretized_lognormal",
         lambda args, _: lognormal_args.add(args)),
        ("copeplan.planner.engine", "q_known", "search.q_known", None),
        ("copeplan.planner.engine", "lpf", "dda.lpf", None),
        ("copeplan.dda", "success_prob", "kds.success_prob", None),
        ("copeplan.planner.validate", "validate_plan", "validate.validate_plan", None),
        ("copeplan.harness", "generate_instance", "harness.generate_instance", None),
        ("copeplan.kds", "solve_kds_dp", "kds.solve_kds_dp", dp_blocks),
        ("copeplan.cope", "solve_kds_dp", "kds.solve_kds_dp", dp_blocks),
        ("copeplan.copem", "solve_kds_dp", "kds.solve_kds_dp", dp_blocks),
        ("copeplan.cope", "reduce_to_kds", "cope.reduce_to_kds", None),
        ("copeplan.copem", "reduce_to_kds", "cope.reduce_to_kds", None),
        ("copeplan.cope", "solve_kidcope", "cope.solve_kidcope", None),
        ("copeplan.copem", "solve11", "copem.solve11", None),
    ]
    for module, attr, span, observe in targets:
        tracer.wrap(module, attr, span, observe)


def per_layer(names, tracer, counts, plain, traced, workload, span_cost):
    """Metric name -> value over the traced pass, or None when a traced name
    it needs is absent.

    A name ending in .calls or .self_s reads that column of the span it
    names; the rest are derived below.
    """
    spans = tracer.summary(span_cost)

    def stat(span, key):
        if span not in tracer.present:
            return None
        return spans.get(span, {}).get(key, 0)

    def ratio(num, den):
        return None if num is None or den is None else num / den if den else 0.0

    def counted(key, span):
        return counts.get(key, 0) if span in tracer.present else None

    outside = None
    if {"stn.add_constraint", "search.expand"} <= tracer.present:
        outside = tracer.count_outside("stn.add_constraint", "search.expand")
    # shares of run_search, net of the tracer's own cost
    run_net = stat("engine.run_search", "net_s")
    meta = [stat(s, "net_s") for s in ("search.estimate_completion", "search.q_known", "dda.lpf")]
    inputs = workload.describe([r for r in traced.rows if r is not None])
    derived = {
        "search.child_keep_ratio": ratio(counted("kept", "search.make_child"),
                                         stat("search.make_child", "calls")),
        "stn.add_constraint.outside_expand": outside,
        "search.discretized_lognormal.distinct_args": (
            len(counts["lognormal_args"]) if "search.discretized_lognormal" in tracer.present
            else None),
        "kds.dp_block_evals": counted("dp_block_evals", "kds.solve_kds_dp"),
        "layers.metareasoning_share": ratio(None if None in meta else sum(meta), run_net),
        "layers.node_generation_share": ratio(stat("search.expand", "net_s"), run_net),
        "engine.expansions": inputs.get("expansions", 0),
        "engine.dispatches": inputs.get("dispatches", 0),
        "trace.overhead_s": sum(traced.times) - sum(plain.times),
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        else:
            span, key = name.rsplit(".", 1)
            out[name] = stat(span, key)
    return out


# -- output -------------------------------------------------------------------

def metric_specs(key):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[key]


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "copeplan" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload, wall_s, setup_s = timed_set_up(args.workload, args.seed)
    import copeplan
    if SRC not in Path(copeplan.__file__).resolve().parents:
        print(f"error: copeplan imported from {copeplan.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"wall_s": wall_s, "setup_s": setup_s}))
        return 0

    setups = [(wall_s, setup_s)]
    if not args.trace:
        setups += [fresh_set_up(args) for _ in range(SETUP_SAMPLES - 1)]
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    print(f"check {args.workload} seed {args.seed}: {workload.note}")

    details = {"env": env, "args": vars(args), "ops_per_pass": len(workload.ops),
               "setup_samples_s": setups, "reference_nominal_s": hostspeed.NOMINAL_S}
    if args.trace:
        from tracer import Tracer
        span_cost = Tracer.span_cost()
        tracer, counts = Tracer(), {}
        install(tracer, counts)
        plain, traced = run_traced(workload, tracer)
        passes = [plain, traced]
        specs = metric_specs("per_layer")
        values = per_layer([s["name"] for s in specs], tracer, counts, plain, traced,
                           workload, span_cost)
        details.update(absent=tracer.absent, span_cost_s=span_cost, spans=len(tracer.end),
                       expected_overhead_s=span_cost * len(tracer.end))
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
    else:
        passes = run_timed(workload, max(1, int(args.seconds // PASS_S[args.workload])))
        specs = metric_specs("end_to_end")
        values, wall = end_to_end(passes, setups)
        refs = [r for p in passes for r in p.refs]
        details.update(wall=wall, reference_s=[p.refs for p in passes])
        print(f"host reference loop median {statistics.median(refs) * 1e3:.4f} ms "
              f"(nominal {hostspeed.NOMINAL_S * 1e3:g} ms); uncorrected wall-clock: "
              + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    problems = [msg for p in passes for msg in p.problems.values()]
    attempted = sum(len(p.times) for p in passes)
    failed = sum(k >= 0 for p in passes for k in p.problems)
    details.update(passes=len(passes), op_ms=[[t * 1e3 for t in p.times] for p in passes],
                   inputs=workload.describe([r for r in passes[0].rows if r is not None]),
                   rows=passes[0].rows)

    metrics = {}
    for spec in specs:
        value = values[spec["name"]]
        metrics[spec["name"]] = ({"value": value, "unit": spec["unit"]} if value is not None
                                 else {"value": 0, "unit": spec["unit"], "absent": True})
    details["problems"] = problems[:50]
    details["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(details, fh, indent=1, sort_keys=True)

    for msg in problems[:20]:
        print("FAIL " + msg)
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}" + (" (absent)" if m.get("absent") else ""))
    print(f"fail_frac {failed / attempted} ({failed} of {attempted} ops)")
    print(f"passes {len(passes)} x {len(workload.ops)} ops; inputs {json.dumps(details['inputs'])}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Cross-check the tracer's layer shares against cProfile on one pass.

Run from the repository root:

    python3 perfbench/profile_check.py --workload plan_disp

Makes passes of the workload under the benchmark's tracer (net of its own
cost, and raw), under a tracer with only the five spans the shares need, and
under cProfile. Prints from each the metareasoning share (estimate_completion,
q_known and lpf as the engine calls them, over run_search) and the
node-generation share (expand over run_search). Every profiler charges each
call it sees, so it inflates the layer with more calls beneath it.
"""

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

import run
from tracer import Tracer

META = (("search.py", "estimate_completion"), ("search.py", "q_known"), ("dda.py", "lpf"))
# only the spans the two shares need: about 10k to 150k spans a pass instead
# of about a million, so instrumentation barely shifts the shares
LIGHT = (
    ("copeplan.planner.engine", "run_search", "engine.run_search"),
    ("copeplan.planner.engine", "expand", "search.expand"),
    ("copeplan.planner.engine", "estimate_completion", "search.estimate_completion"),
    ("copeplan.planner.engine", "q_known", "search.q_known"),
    ("copeplan.planner.engine", "lpf", "dda.lpf"),
)


def traced_shares(workload, key, light=False):
    span_cost = Tracer.span_cost()
    tracer = Tracer()
    if light:
        for module, attr, span in LIGHT:
            tracer.wrap(module, attr, span)
    else:
        run.install(tracer, {})
    tracer.enable()
    try:
        run.run_pass(workload)
    finally:
        tracer.disable()
    spans = tracer.summary(span_cost)
    total = spans["engine.run_search"][key]
    meta = sum(spans.get(s, {}).get(key, 0.0)
               for s in ("search.estimate_completion", "search.q_known", "dda.lpf"))
    return meta / total, spans["search.expand"][key] / total


def profiled_shares(workload):
    prof = cProfile.Profile()
    prof.enable()
    run.run_pass(workload)
    prof.disable()
    cum = {}
    for (filename, _, func), (_, _, _, ct, _) in pstats.Stats(prof).stats.items():
        key = (Path(filename).name, func)
        cum[key] = cum.get(key, 0.0) + ct
    total = cum["engine.py", "run_search"]
    meta = sum(cum.get(k, 0.0) for k in META)
    return meta / total, cum.get(("search.py", "expand"), 0.0) / total


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("plan_disp", "plan_nodisp"))
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    sys.path.insert(0, str(run.SRC))
    workload, _ = run.set_up(args.workload, args.seed)
    for label, shares in (
            ("benchmark tracer, net", traced_shares(workload, "net_s")),
            ("benchmark tracer, raw", traced_shares(workload, "total_s")),
            ("five spans only", traced_shares(workload, "total_s", light=True)),
            ("cProfile", profiled_shares(workload))):
        print(f"{args.workload} seed {args.seed} {label}: metareasoning {shares[0]:.3f}, "
              f"node generation {shares[1]:.3f}", flush=True)


if __name__ == "__main__":
    main()

"""Planner workloads: the shipped suite in configs/bench.json, one task at a time.

An op is one ``run_search`` call plus the checks ``run_benchmark`` makes on
its result: ``validate_plan`` accepts a solved plan, and no start is decided
after the time it is scheduled for. The ops are the config's 50 generated
tasks at its five speeds, for one mode; the benchmark seed shuffles their
order and leaves the tasks as shipped. Tasks generated from other seeds
differ in difficulty so much (expansions per second of `plan_disp` 319 to
429 over seeds 1 to 5) that they would measure the seed, not the program.

Every op's row, as ``rows_to_csv`` formats it, must also equal the matching
row of the shipped-bench CSV (``golden_seed1.csv``, the output of
``copeplan bench configs/bench.json --csv``).
"""

import hashlib
from pathlib import Path

import numpy as np

from copeplan import fileio, harness
from copeplan.planner import engine, validate

GOLDEN = Path(__file__).with_name("golden_seed1.csv")
GOLDEN_SHA256 = "d1e2ab847b4be70c2a6d3503be46bcd4816f9c8c561b3c3291a54da00c7c65fd"


def load_golden():
    """(speed, mode, instance_id) -> CSV line, after checking the file digest."""
    data = GOLDEN.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != GOLDEN_SHA256:
        raise RuntimeError(f"{GOLDEN.name}: sha256 {digest}, expected {GOLDEN_SHA256}")
    rows = {}
    # line 1 echoes the config, line 2 is the header
    for line in data.decode("utf-8").splitlines()[2:]:
        cells = line.split(",")
        rows[cells[0], cells[1], cells[3]] = line
    return rows


class PlanWorkload:
    """plan_disp / plan_nodisp: work is node expansions."""

    def __init__(self, root, mode, seed):
        self.mode = mode
        self.cfg = fileio.load(root / "configs" / "bench.json")
        self.dparams = self.cfg.dispatch_params()
        self.tasks = harness.benchmark_tasks(self.cfg)
        ops = [(speed, idx, task)
               for speed in sorted(self.cfg.speeds)
               for idx, task in enumerate(self.tasks)]
        order = np.random.default_rng([seed, 0x9A7]).permutation(len(ops))
        self.ops = [ops[k] for k in order]
        self.golden = load_golden()
        self.note = (f"shipped tasks in the order of seed {seed}; rows checked by "
                     "validate_plan, decision times and the golden CSV")

    def run(self, op):
        speed, _, task = op
        # module attributes are looked up per call so a tracer can wrap them
        res = engine.run_search(task, mode=self.mode, speed=speed,
                                dispatch_params=self.dparams,
                                max_expansions=self.cfg.max_expansions)
        problem = None
        if res.solved:
            ok, msg = validate.validate_plan(task, res.happenings)
            if not ok:
                problem = f"invalid plan: {msg}"
            elif any(decided > scheduled + 1e-9 for decided, _, scheduled in res.records):
                problem = "decision after start"
        return res, problem

    def check(self, op, out):
        """(row, problem, solved, work) for one op's output."""
        speed, idx, _ = op
        res, problem = out
        row = harness.rows_to_csv([{
            "speed": speed,
            "mode": self.mode,
            "dt": self.dparams.dt,
            "instance_id": idx,
            "solved": res.solved,
            "expansions": res.expansions,
            "dispatches": res.dispatches,
            "first_dispatch_time": res.first_dispatch_time,
            "completion_time": res.completion_time,
        }]).splitlines()[1]
        if problem is None:
            cells = row.split(",")
            want = self.golden.get((cells[0], cells[1], cells[3]))
            if row != want:
                problem = f"row {row!r} differs from golden {want!r}"
        if problem is not None:
            problem = f"{self.mode} speed {speed} instance {idx}: {problem}"
        return row, problem, res.solved and problem is None, res.expansions

    def regenerate(self):
        """Build the tasks again, as set-up does; False if they differ."""
        return harness.benchmark_tasks(self.cfg) == self.tasks

    def describe(self, rows):
        cells = [r.split(",") for r in rows]
        return {"expansions": sum(int(c[5]) for c in cells),
                "dispatches": sum(int(c[6]) for c in cells)}

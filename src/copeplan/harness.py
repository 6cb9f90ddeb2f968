"""Monte Carlo calibration, instance generator, benchmarks.

Everything here is deterministic given its seeds: simulation draws flow from
one generator per call, instance synthesis derives per-instance seeds from
the config seed, and benchmark rows are emitted in sorted key order so two
runs of the same config produce byte-identical tables.
"""

import html
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cope import CopeInstance, InitiationFunction, reduce_to_kds
from .copem import CopemInstance, MetaPolicy, _dispatch_f
from .kds import KdsInstance, KdsSolution, solve_kds_dp
from .planner.engine import MODES, DispatchParams, run_search
from .planner.task import DurativeAction, Task, TimedLiteral
from .planner.validate import validate_plan
from .stn import EPSILON_SEPARATION


# -- Monte Carlo calibration -------------------------------------------------

def _simulate_blocks(instance, blocks, draws, mask, success):
    for b in blocks:
        t = draws[b.process][mask]
        d = instance.processes[b.process].deadline
        success[mask] |= (t <= b.length) & (b.start + t < d)


def simulate_policy(inst, policy, samples: int, seed: int) -> float:
    """Empirical success rate of a solved policy under true completion draws.

    Draws one completion time per process per sample, replays the policy's
    commitments (blocks, dispatch, measurement branch) and counts runs where
    any process finishes strictly before its deadline. The rate converges on
    the solver value; acceptance checks use 3-sigma binomial bounds.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if isinstance(inst, KdsInstance) and isinstance(policy, KdsSolution):
        rng = np.random.default_rng(seed)
        draws = [p.profile.sample(rng, samples) for p in inst.processes]
        success = np.zeros(samples, dtype=bool)
        _simulate_blocks(inst, policy.blocks, draws, np.ones(samples, bool), success)
        return float(success.mean())
    if isinstance(inst, (CopeInstance, CopemInstance)) and isinstance(policy, InitiationFunction):
        reduced = reduce_to_kds(inst, policy)
        sol = solve_kds_dp(reduced)
        return simulate_policy(reduced, sol, samples, seed)
    if isinstance(inst, CopemInstance) and isinstance(policy, MetaPolicy):
        return _simulate_meta(inst, policy, samples, seed)
    raise TypeError(
        f"no simulation for {type(policy).__name__} on {type(inst).__name__}")


def _simulate_meta(inst, policy, samples, seed):
    # the measured process is resolved exactly by its own observation, so
    # each observation value maps to one fixed reduced instance and schedule
    first = policy.first_step
    if first is None:
        return 0.0
    if first[0] == "compute":
        measured, dispatched, disp_time = first[1], None, 1
    else:
        measured, dispatched, disp_time = policy.compute_after_dispatch, first[1], 0
    if measured is None:
        # nothing observed: the dispatch's own reduction and schedule
        return simulate_policy(inst, _dispatch_f(inst, dispatched, 0), samples, seed)
    rng = np.random.default_rng(seed)
    draws = [p.profile.sample(rng, samples) for p in inst.processes]
    obs = draws[measured]
    success = np.zeros(samples, dtype=bool)
    for o, branch in sorted(policy.second_step.items()):
        mask = obs == o
        disp = branch.dispatch if first[0] == "compute" else dispatched
        # the replay reads only deadlines, which the measurement leaves as
        # the dispatch's reduction sets them
        reduced = reduce_to_kds(inst, _dispatch_f(inst, disp, disp_time))
        # measurement pins the measured process's remaining time exactly
        branch_draws = list(draws)
        branch_draws[measured] = np.full(samples, max(o - 1, 0))
        _simulate_blocks(reduced, branch.schedule.blocks, branch_draws, mask, success)
    return float(success.mean())


# -- instance generator ------------------------------------------------------

@dataclass(frozen=True)
class GeneratorParams:
    """Knobs for synthetic time-pressure tasks.

    tau scales the single closing window relative to the witness plan's
    busy time: 1.0 leaves just the separation gaps, larger values add slack.
    width controls how many long one-shot alternatives shadow each goal.
    """

    goals: int = 3
    duration_range: tuple = (1.0, 3.0)
    tau: float = 1.3
    width: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.goals < 1:
            raise ValueError("need at least one goal")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        lo, hi = self.duration_range
        if not 0 < lo <= hi:
            raise ValueError("bad duration range")
        if self.width < 0:
            raise ValueError("width must be nonnegative")


def generate_instance(params: GeneratorParams) -> Task:
    """Solvable-by-construction task: setup, then a prep/do pair per goal.

    All actions compete for one mutex token and must run inside a window
    that a single timed literal closes at tau times the witness busy time.
    Each goal also has `width` long shortcut actions that skip its prep;
    they look cheap to a relaxed estimate but crowd the window.
    """
    rng = np.random.default_rng(params.seed)
    k = params.goals
    lo, hi = params.duration_range
    eps = EPSILON_SEPARATION

    def dur(a, b):
        return round(float(rng.uniform(a, b)), 3)

    setup_d = dur(2 * hi, 3 * hi)
    prep_d = [dur(lo, hi) for _ in range(k)]
    task_d = [dur(lo, hi) for _ in range(k)]
    decoy_d = [[round((prep_d[g] + task_d[g]) * float(rng.uniform(1.3, 1.9)), 3)
                for _ in range(params.width)] for g in range(k)]

    busy = setup_d + sum(prep_d) + sum(task_d)
    window_close = round(params.tau * busy + (2 * k + 2) * eps, 6)

    props = {"free", "window", "ready"}
    actions = [DurativeAction(
        name="setup", duration=setup_d,
        cond_start=frozenset({"free"}), cond_over=frozenset({"window"}),
        del_start=frozenset({"free"}), add_end=frozenset({"ready", "free"}),
    )]
    goal = set()
    for g in range(k):
        prepped, done = f"prepped{g}", f"done{g}"
        props |= {prepped, done}
        goal.add(done)
        actions.append(DurativeAction(
            name=f"prep{g}", duration=prep_d[g],
            cond_start=frozenset({"free", "ready"}), cond_over=frozenset({"window"}),
            del_start=frozenset({"free"}), add_end=frozenset({prepped, "free"}),
        ))
        actions.append(DurativeAction(
            name=f"do{g}", duration=task_d[g],
            cond_start=frozenset({"free", prepped}), cond_over=frozenset({"window"}),
            del_start=frozenset({"free"}), add_end=frozenset({done, "free"}),
        ))
    for g in range(k):
        for w in range(params.width):
            actions.append(DurativeAction(
                name=f"alt{g}_{w}", duration=decoy_d[g][w],
                cond_start=frozenset({"free", "ready"}), cond_over=frozenset({"window"}),
                del_start=frozenset({"free"}), add_end=frozenset({f"done{g}", "free"}),
            ))
    return Task(
        propositions=frozenset(props),
        actions=tuple(actions),
        init=frozenset({"free", "window"}),
        goal=frozenset(goal),
        tils=(TimedLiteral(time=window_close, prop="window", add=False),),
    )


def witness_plan(task: Task) -> list:
    """The construction's own schedule: setup then each prep/do pair in order."""
    order = ["setup"]
    g = 0
    while f"prep{g}" in task.by_name:
        order += [f"prep{g}", f"do{g}"]
        g += 1
    happenings = []
    t = 0.0
    for name in order:
        d = task.by_name[name].duration
        happenings.append((t, "start", name))
        happenings.append((t + d, "end", name))
        t = t + d + EPSILON_SEPARATION
    return happenings


# -- benchmark runner ---------------------------------------------------------

@dataclass
class BenchmarkConfig:
    speeds: tuple
    modes: tuple = MODES
    instances: int = 20
    dt: float = 0.1
    sft: float = None  # None means dt/2
    t_wait: int = 10
    frontier_min_1: bool = False  # ablation: dispatch evidence minimums -> 1
    sft_1: bool = False  # ablation: subtree focus threshold -> 1
    seed: int = 0
    max_expansions: int = 8000
    generator: GeneratorParams = field(default_factory=GeneratorParams)

    def __post_init__(self):
        for name, values in (("speed", self.speeds), ("mode", self.modes)):
            if not values:
                raise ValueError(f"need at least one {name}")
            # a repeat would run and count every row once per repeat
            if len(set(values)) != len(values):
                raise ValueError(f"{name}s repeat a value")
        if self.instances < 1:
            raise ValueError("need at least one instance")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        # a budget below 1 expands nothing, so the run would measure nothing
        if self.max_expansions < 1:
            raise ValueError("max_expansions must be >= 1")
        if not all(0 < s < math.inf for s in self.speeds):
            raise ValueError("speeds must be positive and finite")
        for m in self.modes:
            if m not in MODES:
                raise ValueError(f"unknown mode {m!r}")
        self.dispatch_params()

    def dispatch_params(self) -> DispatchParams:
        """The planner's thresholds, including the two ablations:
        frontier_min_1 drops both evidence minimums to 1 and sft_1 forces the
        focus threshold to 1."""
        minimums = {}
        if self.frontier_min_1:
            minimums = {"min_subtree_expansions": 1, "min_sim_open": 1}
        return DispatchParams(dt=self.dt, sft=1.0 if self.sft_1 else self.sft,
                              t_wait=self.t_wait, **minimums)


def benchmark_tasks(config: BenchmarkConfig) -> list:
    """The instance set a config denotes; per-instance seeds derive from it."""
    tasks = []
    for i in range(config.instances):
        gp = replace(config.generator, seed=config.seed * 100003 + i)
        tasks.append(generate_instance(gp))
    return tasks


CSV_COLUMNS = ("speed", "mode", "dt", "instance_id", "solved", "expansions",
               "dispatches", "first_dispatch_time", "completion_time")


def benchmark_runs(config: BenchmarkConfig):
    """Yield (row, task, PlanResult) per (speed, mode, instance), sorted by
    that key.

    Every solved run is re-checked by the independent validator; an invalid
    plan is a bug, not a data point, so it raises.
    """
    tasks = benchmark_tasks(config)
    dparams = config.dispatch_params()
    for speed in sorted(config.speeds):
        for mode in sorted(config.modes):
            for idx, task in enumerate(tasks):
                res = run_search(
                    task, mode=mode, speed=speed,
                    dispatch_params=dparams,
                    max_expansions=config.max_expansions,
                )
                if res.solved:
                    ok, msg = validate_plan(task, res.happenings)
                    if not ok:
                        raise RuntimeError(
                            f"invalid plan on instance {idx} ({mode}, {speed}): {msg}")
                    for decided, _, scheduled in res.records:
                        if decided > scheduled + 1e-9:
                            raise RuntimeError(
                                f"decision after start on instance {idx} ({mode}, {speed})")
                # the columns past the run's key are PlanResult fields
                row = dict(zip(CSV_COLUMNS, (speed, mode, dparams.dt, idx)))
                row.update((c, getattr(res, c)) for c in CSV_COLUMNS[4:])
                yield row, task, res


def run_benchmark(config: BenchmarkConfig) -> list:
    """One validated row per (speed, mode, instance), sorted by that key."""
    return [row for row, _, _ in benchmark_runs(config)]


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return ""
        return format(value, ".6f")
    return str(value)


def rows_to_csv(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_cell(row[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def rows_to_jsonl(rows) -> str:
    out = []
    for row in rows:
        clean = {k: (None if isinstance(v, float) and math.isinf(v) else v)
                 for k, v in row.items()}
        out.append(json.dumps(clean, sort_keys=True))
    return "\n".join(out) + "\n"


def solved_counts(rows) -> dict:
    """(speed, mode) -> number of solved instances."""
    counts = {}
    for row in rows:
        key = (row["speed"], row["mode"])
        counts[key] = counts.get(key, 0) + (1 if row["solved"] else 0)
    return counts


def plot_svg(rows, width=640, height=400, desc=None) -> str:
    """Self-contained line plot of problems solved against speed, per mode.

    `desc` text (say, the producing config) is embedded as the SVG
    description so the artifact records how it was made.
    """
    counts = solved_counts(rows)
    speeds = sorted({s for s, _ in counts})
    modes = sorted({m for _, m in counts})
    top = max(counts.values(), default=1) or 1
    pad = 48
    colors = dict(zip(MODES, ("#c0392b", "#2c3e50")))

    def x(i):
        if len(speeds) == 1:
            return pad + (width - 2 * pad) / 2
        return pad + (width - 2 * pad) * i / (len(speeds) - 1)

    def y(v):
        return height - pad - (height - 2 * pad) * v / top

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
    ]
    if desc is not None:
        body = html.escape(str(desc), quote=False)
        parts.append(f"<desc>{body}</desc>")
    parts += [
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" font-size="12">speed (expansions per second)</text>',
        f'<text x="14" y="{height / 2:.1f}" font-size="12" transform="rotate(-90 14 {height / 2:.1f})" text-anchor="middle">problems solved</text>',
    ]
    for i, s in enumerate(speeds):
        parts.append(
            f'<text x="{x(i):.1f}" y="{height - pad + 16}" text-anchor="middle" font-size="10">{_cell(s)}</text>')
    for m in modes:
        color = colors.get(m, "#7f8c8d")
        pts = " ".join(f"{x(i):.1f},{y(counts.get((s, m), 0)):.1f}"
                       for i, s in enumerate(speeds))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{width - pad + 4}" y="{y(counts.get((speeds[-1], m), 0)):.1f}" font-size="11" fill="{color}">{m}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

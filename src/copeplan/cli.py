"""Command-line front end for the solvers, planner, generator, and benchmarks.

Settings resolve in priority order: explicit flag, then a COPEPLAN_<FLAG>
environment variable, then the config file named by --config (a benchmark
document), then the built-in default. Exit codes: 0 success, 2 parse or
config error (a file that cannot be read or written included), 3 model
violation (wrong document kind, invalid plan).
"""

import argparse
import json
import math
import os
import sys
from dataclasses import replace

from . import fileio
from .cope import CopeInstance, solve_kidcope
from .copem import CopemInstance, solve00, solve11
from .harness import (
    BenchmarkConfig,
    GeneratorParams,
    plot_svg,
    generate_instance,
    rows_to_csv,
    rows_to_jsonl,
    run_benchmark,
)
from .kds import KdsInstance, solve_kds_dp
from .planner import Task, run_search, validate_plan
from .planner.engine import MODES

ENV_PREFIX = "COPEPLAN_"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_MODEL = 3


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _bool(text) -> bool:
    """A yes/no setting in any case; other text raises ValueError."""
    try:
        return _BOOLS[str(text).strip().lower()]
    except KeyError:
        raise ValueError(f"expected a yes/no setting (1/true/yes/on or 0/false/no/off), "
                         f"got {text!r}") from None


def _setting(args, name, cast, config_value):
    """flag > COPEPLAN_<NAME> > config value; None stays None.

    The config value is the config file's, or the built-in default's when no
    file is named. Only raw strings (env values, list-like flags) are cast;
    values that arrive already typed pass through untouched.
    """
    value = getattr(args, name, None)
    if value is None:
        env = os.environ.get(ENV_PREFIX + name.upper())
        if env is not None:
            value = env
    if value is None:
        value = config_value
    return cast(value) if isinstance(value, str) else value


def _expect(obj, kinds, label):
    if not isinstance(obj, kinds):
        raise TypeError(f"expected a {label} document, found {type(obj).__name__}")
    return obj


def _load_config(args) -> BenchmarkConfig:
    """The config named by --config or COPEPLAN_CONFIG; without one, the
    built-in defaults for a single run of the first mode (disp) at speed 10."""
    path = getattr(args, "config", None) or os.environ.get(ENV_PREFIX + "CONFIG")
    if path is None:
        return BenchmarkConfig(speeds=(10.0,), modes=tuple(MODES)[:1])
    return _expect(fileio.load(path), BenchmarkConfig, "benchmark config")


def _usage(build) -> BenchmarkConfig:
    """build(). A bad setting is a usage problem, not a model violation, so
    ValueError and TypeError become FormatError."""
    try:
        return build()
    except (ValueError, TypeError) as exc:
        raise fileio.FormatError(str(exc)) from exc


# the settings that `plan` and `bench` share, with the cast for raw strings
_RUN_SETTINGS = {"dt": float, "sft": float, "t_wait": int, "frontier_min_1": _bool,
                 "sft_1": _bool, "max_expansions": int}


def _settings(args, cfg, casts) -> dict:
    return {name: _setting(args, name, cast, getattr(cfg, name))
            for name, cast in casts.items()}


def _fmt_time(t: float) -> str:
    return f"{t:.6f}" if math.isfinite(t) else "-"


# -- solve -------------------------------------------------------------------

def _print_blocks(blocks):
    for b in blocks:
        print(f"block process {b.process + 1} start {b.start} length {b.length}")


def cmd_solve(args) -> int:
    obj = fileio.load(args.file)
    if args.kind == "kds":
        sol = solve_kds_dp(_expect(obj, KdsInstance, "kds"))
        print(f"value {sol.value:.7f}")
        _print_blocks(sol.blocks)
    elif args.kind == "kidcope":
        inst = _expect(obj, (CopeInstance, CopemInstance), "cope")
        value, f, sol = solve_kidcope(inst)
        print(f"value {value:.7f}")
        if f.chosen_process is None:
            print("no initiation")
        else:
            prefix = inst.processes[f.chosen_process].prefix
            times = ", ".join(
                f"{a.action_id} at {f.start_times[a.action_id]}" for a in prefix)
            print(f"initiate process {f.chosen_process + 1}: {times}")
        _print_blocks(sol.blocks)
    elif args.kind == "copem00":
        value, decision = solve00(_expect(obj, CopemInstance, "copem"))
        print(f"value {value:.7f}")
        if decision is None:
            print("no dispatch")
        else:
            print(f"dispatch process {decision + 1}")
    else:
        policy = solve11(_expect(obj, CopemInstance, "copem"))
        print(f"value {policy.value:.7f}")
        if policy.first_step is None:
            print("no dispatch")
            return EXIT_OK
        kind, who = policy.first_step
        print(f"first {kind} process {who + 1}")
        if policy.compute_after_dispatch is not None:
            print(f"measure process {policy.compute_after_dispatch + 1}")
        for o, branch in sorted(policy.second_step.items()):
            tail = ("no dispatch" if branch.dispatch is None
                    else f"dispatch process {branch.dispatch + 1}")
            print(f"observe {o}: value {branch.value:.7f}, {tail}")
    return EXIT_OK


# -- plan ----------------------------------------------------------------------

def cmd_plan(args) -> int:
    task = _expect(fileio.load(args.task), Task, "task")
    base = _load_config(args)
    cfg = _usage(lambda: replace(
        base,
        speeds=(_setting(args, "speed", float, sorted(base.speeds)[0]),),
        modes=(_setting(args, "mode", str, base.modes[0]),),
        **_settings(args, base, _RUN_SETTINGS),
    ))
    (mode,), (speed,) = cfg.modes, cfg.speeds
    params = cfg.dispatch_params()
    echo = {"mode": mode, "speed": speed, "dt": params.dt, "sft": params.sft,
            "t_wait": params.t_wait, "max_expansions": cfg.max_expansions}
    print("# config " + json.dumps(echo, sort_keys=True))
    result = run_search(task, mode=mode, speed=speed, dispatch_params=params,
                        max_expansions=cfg.max_expansions)
    for decided, action, scheduled in result.records:
        print(f"decide {decided:.6f} start {action} at {scheduled:.6f}")
    print(f"solved {str(result.solved).lower()}"
          f" expansions {result.expansions}"
          f" dispatches {result.dispatches}"
          f" first_dispatch {_fmt_time(result.first_dispatch_time)}"
          f" completion {_fmt_time(result.completion_time)}"
          f" reason {result.reason}")
    if args.plan_out:
        with open(args.plan_out, "w", encoding="utf-8") as fh:
            fh.write(fileio.happenings_to_text(result.happenings))
    return EXIT_OK


# -- bench ---------------------------------------------------------------------

def _effective_bench_config(args) -> BenchmarkConfig:
    cfg = _expect(fileio.load(args.config), BenchmarkConfig, "benchmark config")
    gen = cfg.generator
    gen = replace(
        gen,
        goals=_setting(args, "goals", int, gen.goals),
        width=_setting(args, "width", int, gen.width),
        tau=_setting(args, "tau", float, gen.tau),
    )
    speeds = _setting(args, "speeds",
                      lambda s: tuple(float(x) for x in str(s).split(",")),
                      cfg.speeds)
    modes = _setting(args, "modes",
                     lambda s: tuple(str(s).split(",")), cfg.modes)
    return replace(
        cfg,
        speeds=tuple(speeds),
        modes=tuple(modes),
        generator=gen,
        **_settings(args, cfg, {"instances": int, "seed": int, **_RUN_SETTINGS}),
    )


def cmd_bench(args) -> int:
    cfg = _usage(lambda: _effective_bench_config(args))
    rows = run_benchmark(cfg)
    doc = fileio.to_dict(cfg)
    echo = json.dumps(doc, sort_keys=True)
    csv_text = "# config " + echo + "\n" + rows_to_csv(rows)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.jsonl:
        with open(args.jsonl, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"config": doc}, sort_keys=True) + "\n")
            fh.write(rows_to_jsonl(rows))
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(plot_svg(rows, desc=echo))
    return EXIT_OK


# -- gen -----------------------------------------------------------------------

def cmd_gen(args) -> int:
    cfg = _load_config(args)
    gen = cfg.generator
    lo = _setting(args, "duration_lo", float, gen.duration_range[0])
    hi = _setting(args, "duration_hi", float, gen.duration_range[1])
    params = GeneratorParams(
        goals=_setting(args, "goals", int, gen.goals),
        duration_range=(lo, hi),
        tau=_setting(args, "tau", float, gen.tau),
        width=_setting(args, "width", int, gen.width),
        seed=_setting(args, "seed", int, cfg.seed),
    )
    text = fileio.dumps(generate_instance(params))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# -- validate --------------------------------------------------------------------

def cmd_validate(args) -> int:
    task = _expect(fileio.load(args.task), Task, "task")
    happenings = fileio.happenings_from_text(fileio.read_text(args.plan))
    ok, msg = validate_plan(task, happenings)
    if ok:
        print("valid")
        return EXIT_OK
    print(f"invalid: {msg}")
    return EXIT_MODEL


# -- parser ----------------------------------------------------------------------

def _add_dispatch_flags(sub):
    sub.add_argument("--dt", type=float, help="dispatch threshold")
    sub.add_argument("--sft", type=float, help="subtree focus threshold (default dt/2)")
    sub.add_argument("--t-wait", dest="t_wait", type=int,
                     help="expansions per decision cycle")
    sub.add_argument("--frontier-min-1", dest="frontier_min_1",
                     action="store_true", default=None,
                     help="ablation: drop dispatch evidence minimums to 1")
    sub.add_argument("--sft-1", dest="sft_1", action="store_true", default=None,
                     help="ablation: force the focus threshold to 1")
    sub.add_argument("--max-expansions", dest="max_expansions", type=int,
                     help="search budget per run")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copeplan",
        description="Deadline-aware metareasoning solvers and a planner "
                    "that can dispatch actions while it searches.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an abstract instance file")
    p.add_argument("kind", choices=("kds", "kidcope", "copem00", "copem11"))
    p.add_argument("file")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("plan", help="run the planner on a task file")
    p.add_argument("task")
    p.add_argument("--mode", choices=tuple(MODES))
    p.add_argument("--speed", type=float, help="expansions per second")
    p.add_argument("--config", help="benchmark document supplying defaults")
    p.add_argument("--plan-out", dest="plan_out",
                   help="write the happenings stream to this file")
    _add_dispatch_flags(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("bench", help="run a benchmark config")
    p.add_argument("config")
    p.add_argument("--csv", help="write the table here instead of stdout")
    p.add_argument("--jsonl", help="also write rows as JSON lines")
    p.add_argument("--svg", help="also write a solved-counts plot")
    p.add_argument("--speeds", help="comma-separated speed overrides")
    p.add_argument("--modes", help="comma-separated mode overrides")
    p.add_argument("--instances", type=int)
    p.add_argument("--goals", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--seed", type=int, help="master seed")
    _add_dispatch_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", help="generate a deadline task file")
    p.add_argument("--goals", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--duration-lo", dest="duration_lo", type=float)
    p.add_argument("--duration-hi", dest="duration_hi", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--config", help="benchmark document supplying defaults")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("validate", help="check a plan file against a task")
    p.add_argument("task")
    p.add_argument("plan")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except fileio.FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, TypeError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())

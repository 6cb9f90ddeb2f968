"""Command-line front end for the solvers, planner, generator, and benchmarks.

A setting is a field of the bench document. Each command starts from the
document named by --config or COPEPLAN_CONFIG (the bench positional for
`bench`), or from the built-in defaults, writes each setting it has, flag or
else COPEPLAN_<FLAG>, at that setting's place in it, and reads the whole
document back with fileio's bench table: a bad setting is refused with its
field named, as the file's own field would be. Exit codes: 0 success, 2
parse or config error (a file that cannot be read or written, a config of
another document kind and a bad setting included), 3 model violation (a
solve or plan input of the wrong document kind, an invalid plan). A failure
prints one `error: ...` line on stderr, a parse error included.
"""

import argparse
import json
import math
import operator
import os
import re
import sys
from dataclasses import replace
from functools import reduce

from . import fileio
from .cope import CopeInstance, solve_kidcope
from .copem import CopemInstance, solve00, solve11
from .harness import (
    BenchmarkConfig,
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


def _value(raw):
    """Text as the JSON value it spells, else as a string."""
    try:
        return json.loads(raw)
    except (ValueError, RecursionError):
        return raw


def _one(raw):
    return [_value(raw)]


def _list(raw):
    return [_value(item) for item in raw.split(",")]


def _yes_no(raw):
    """A yes/no spelling in any case as a JSON boolean; other text stays a
    string, which the bench table refuses."""
    return _BOOLS.get(str(raw).strip().lower(), raw)


# each setting: its place in the bench document, the reader that turns its
# raw text into JSON there, and its flag's help
_SETTINGS = {
    "speed": (("speeds",), _one, "expansions per second"),
    "mode": (("modes",), _one, "one of " + ", ".join(MODES)),
    "speeds": (("speeds",), _list, "comma-separated speed overrides"),
    "modes": (("modes",), _list, "comma-separated mode overrides"),
    "instances": (("instances",), _value, "instances per speed and mode"),
    "seed": (("seed",), _value, "master seed"),
    "dt": (("dt",), _value, "dispatch threshold"),
    "sft": (("sft",), _value, "subtree focus threshold (default dt/2)"),
    "t_wait": (("t_wait",), _value, "expansions per decision cycle"),
    "frontier_min_1": (("frontier_min_1",), _yes_no,
                       "ablation: drop dispatch evidence minimums to 1"),
    "sft_1": (("sft_1",), _yes_no, "ablation: force the focus threshold to 1"),
    "max_expansions": (("max_expansions",), _value, "search budget per run"),
    "goals": (("generator", "goals"), _value, "goals per task"),
    "width": (("generator", "width"), _value, "shortcut actions per goal"),
    "tau": (("generator", "tau"), _value, "window length over the witness busy time"),
    "duration_lo": (("generator", "duration_range", 0), _value, "least step duration"),
    "duration_hi": (("generator", "duration_range", 1), _value, "greatest step duration"),
}

_DISPATCH_SETTINGS = ("dt", "sft", "t_wait", "frontier_min_1", "sft_1", "max_expansions")


def _expect(obj, kinds, label):
    if not isinstance(obj, kinds):
        raise TypeError(f"expected a {label} document, found {type(obj).__name__}")
    return obj


def _config(args) -> BenchmarkConfig:
    """The bench document named by --config or COPEPLAN_CONFIG (without one,
    the built-in defaults for a single run of the first mode at speed 10),
    with each of the command's settings, flag or else COPEPLAN_<NAME>, written
    at its place and the whole read back by the bench table."""
    path = args.config or os.environ.get(ENV_PREFIX + "CONFIG")
    if path is None:
        base = BenchmarkConfig(speeds=(10.0,), modes=MODES[:1])
    else:
        base = fileio.load(path)
        if not isinstance(base, BenchmarkConfig):
            raise fileio.FormatError(
                f"{path}: expected a bench document, found {type(base).__name__}")
    doc = fileio.to_dict(base)
    for name in args.settings:
        raw = getattr(args, name)
        if raw is None:
            raw = os.environ.get(ENV_PREFIX + name.upper())
        if raw is not None:
            (*keys, last), read, _ = _SETTINGS[name]
            reduce(operator.getitem, keys, doc)[last] = read(raw)
    return fileio.from_dict(doc)


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
    cfg = _config(args)
    mode, speed = cfg.modes[0], min(cfg.speeds)
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

def cmd_bench(args) -> int:
    cfg = _config(args)
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
    cfg = _config(args)
    params = replace(cfg.generator, seed=cfg.seed)
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

def _add_settings(sub, *names):
    """One flag per setting; the yes/no settings are bare switches."""
    for name in names:
        _, read, help_text = _SETTINGS[name]
        switch = {"action": "store_true", "default": None} if read is _yes_no else {}
        sub.add_argument("--" + name.replace("_", "-"), help=help_text, **switch)
    sub.set_defaults(settings=names)


class _Parser(argparse.ArgumentParser):
    """argparse that reports a parse error as one `error: ...` line and exit
    code 2, without the usage block; subparsers are built from this class
    too. An argument that starts with a minus and a digit is a value, so
    `--speeds -4,5` reaches the bench table (no flag starts with a digit)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.exit(EXIT_PARSE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--config", help="benchmark document supplying defaults")
    p.add_argument("--plan-out", dest="plan_out",
                   help="write the happenings stream to this file")
    _add_settings(p, "mode", "speed", *_DISPATCH_SETTINGS)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("bench", help="run a benchmark config")
    p.add_argument("config")
    p.add_argument("--csv", help="write the table here instead of stdout")
    p.add_argument("--jsonl", help="also write rows as JSON lines")
    p.add_argument("--svg", help="also write a solved-counts plot")
    _add_settings(p, "speeds", "modes", "instances", "goals", "width", "tau", "seed",
                  *_DISPATCH_SETTINGS)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", help="generate a deadline task file")
    p.add_argument("--config", help="benchmark document supplying defaults")
    p.add_argument("--out", help="output path (default stdout)")
    _add_settings(p, "goals", "width", "tau", "duration_lo", "duration_hi", "seed")
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
    except (fileio.FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, TypeError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())

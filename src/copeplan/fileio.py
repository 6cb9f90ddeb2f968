"""Tagged JSON document formats for instances, tasks, and benchmark configs.

Every document carries a format tag and version so files identify their own
kind. Distributions serialize as sparse [time, probability] pairs. Parsing
raises FormatError with the offending field named; parse -> serialize ->
parse is the identity for every shipped file.
"""

import json
import math

from .cope import CopeInstance, CopeProcess, PrefixAction
from .copem import CopemInstance
from .dist import DiscreteDistribution
from .harness import BenchmarkConfig, GeneratorParams
from .kds import KdsInstance, KdsProcess
from .planner.task import DurativeAction, Task, TimedLiteral

VERSION = 1


class FormatError(ValueError):
    pass


def _require(doc, key, where):
    if key not in doc:
        raise FormatError(f"{where}: missing field {key!r}")
    return doc[key]


def _integer(value, where):
    """value as an int. JSON has one number type, so a float with no
    fractional part passes; booleans, fractions, non-finite floats and
    non-numbers raise FormatError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            isinstance(value, float) and not value.is_integer()):
        raise FormatError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def _number(value, where):
    """value as a finite float. Booleans, non-numbers, NaN and infinities
    (which Python's JSON reader accepts) and integers too large for a float
    raise FormatError."""
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):
        pass
    raise FormatError(f"{where}: expected a finite number, got {value!r}")


def _flag(value, where):
    """value when it is a JSON boolean; anything else raises FormatError."""
    if not isinstance(value, bool):
        raise FormatError(f"{where}: expected true or false, got {value!r}")
    return value


def _pmf_to_json(dist):
    return [[t, p] for t, p in dist.pairs()]


def _pmf_from_json(pairs, where):
    try:
        return DiscreteDistribution.from_pairs(
            [(_integer(t, "time"), p) for t, p in pairs])
    except (ValueError, TypeError, OverflowError) as exc:
        raise FormatError(f"{where}: bad pmf ({exc})") from exc


# -- abstract instances ------------------------------------------------------

def kds_to_dict(inst: KdsInstance) -> dict:
    return {
        "format": "kds",
        "version": VERSION,
        "horizon": inst.horizon,
        "processes": [
            {"pmf": _pmf_to_json(p.profile), "deadline": p.deadline}
            for p in inst.processes
        ],
    }


def _kds_from_dict(doc) -> KdsInstance:
    procs = []
    for k, p in enumerate(_require(doc, "processes", "kds")):
        where = f"kds process {k}"
        procs.append(KdsProcess(
            profile=_pmf_from_json(_require(p, "pmf", where), where),
            deadline=_integer(_require(p, "deadline", where), f"{where} deadline"),
        ))
    return KdsInstance(
        procs, horizon=_integer(_require(doc, "horizon", "kds"), "kds horizon"))


def _cope_processes_to_json(processes):
    out = []
    for p in processes:
        out.append({
            "pmf": _pmf_to_json(p.profile),
            "prefix": [[a.action_id, a.duration] for a in p.prefix],
            "induced_deadline": p.induced_deadline,
        })
    return out


def _cope_processes_from_json(items, where):
    procs = []
    for k, p in enumerate(items):
        loc = f"{where} process {k}"
        prefix = tuple(
            PrefixAction(str(aid), _integer(dur, f"{loc} prefix duration"))
            for aid, dur in _require(p, "prefix", loc)
        )
        procs.append(CopeProcess(
            profile=_pmf_from_json(_require(p, "pmf", loc), loc),
            prefix=prefix,
            induced_deadline=_integer(_require(p, "induced_deadline", loc),
                                      f"{loc} induced_deadline"),
        ))
    return procs


def cope_to_dict(inst: CopeInstance) -> dict:
    return {
        "format": "cope",
        "version": VERSION,
        "horizon": inst.horizon,
        "processes": _cope_processes_to_json(inst.processes),
    }


def _cope_from_dict(doc) -> CopeInstance:
    return CopeInstance(
        _cope_processes_from_json(_require(doc, "processes", "cope"), "cope"),
        horizon=_integer(_require(doc, "horizon", "cope"), "cope horizon"),
    )


def copem_to_dict(inst: CopemInstance) -> dict:
    return {
        "format": "copem",
        "version": VERSION,
        "horizon": inst.horizon,
        "dispatch_budget": inst.dispatch_budget,
        "observation_budget": inst.observation_budget,
        "measurement_model": inst.measurement_model,
        "processes": _cope_processes_to_json(inst.processes),
    }


def _copem_from_dict(doc) -> CopemInstance:
    return CopemInstance(
        _cope_processes_from_json(_require(doc, "processes", "copem"), "copem"),
        dispatch_budget=_integer(_require(doc, "dispatch_budget", "copem"),
                                 "copem dispatch_budget"),
        observation_budget=_integer(_require(doc, "observation_budget", "copem"),
                                    "copem observation_budget"),
        measurement_model=str(doc.get("measurement_model", "perfect")),
        horizon=_integer(_require(doc, "horizon", "copem"), "copem horizon"),
    )


# -- planning tasks ----------------------------------------------------------

def task_to_dict(task: Task) -> dict:
    def sets(a):
        return {
            "cond_start": sorted(a.cond_start),
            "cond_over": sorted(a.cond_over),
            "cond_end": sorted(a.cond_end),
            "add_start": sorted(a.add_start),
            "del_start": sorted(a.del_start),
            "add_end": sorted(a.add_end),
            "del_end": sorted(a.del_end),
        }

    return {
        "format": "task",
        "version": VERSION,
        "propositions": sorted(task.propositions),
        "actions": [
            {"name": a.name, "duration": a.duration, **sets(a)}
            for a in task.actions
        ],
        "init": sorted(task.init),
        "goal": sorted(task.goal),
        "tils": [[lit.time, lit.prop, lit.add] for lit in task.tils],
    }


_ACTION_SETS = ("cond_start", "cond_over", "cond_end",
                "add_start", "del_start", "add_end", "del_end")


def _propositions(value, where):
    """value as a frozenset when it is a JSON list of strings; anything
    else, a bare string included, raises FormatError."""
    if not isinstance(value, list) or not all(isinstance(p, str) for p in value):
        raise FormatError(f"{where}: expected a list of proposition names, got {value!r}")
    return frozenset(value)


def _task_from_dict(doc) -> Task:
    actions = []
    for k, a in enumerate(_require(doc, "actions", "task")):
        where = f"task action {k}"
        if not isinstance(a, dict):
            raise FormatError(f"{where}: not a JSON object")
        kwargs = {key: _propositions(a.get(key, []), f"{where} {key}") for key in _ACTION_SETS}
        actions.append(DurativeAction(
            name=str(_require(a, "name", where)),
            duration=float(_require(a, "duration", where)),
            **kwargs,
        ))
    tils = tuple(
        TimedLiteral(time=float(t), prop=str(p), add=bool(add))
        for t, p, add in doc.get("tils", ())
    )
    propositions = _propositions(_require(doc, "propositions", "task"), "task propositions")
    init = _propositions(_require(doc, "init", "task"), "task init")
    goal = _propositions(doc.get("goal", []), "task goal")
    try:
        return Task(propositions=propositions, actions=tuple(actions), init=init,
                    goal=goal, tils=tils)
    except ValueError as exc:
        raise FormatError(f"task: {exc}") from exc


# -- benchmark configs -------------------------------------------------------

def _bench_from_dict(doc) -> BenchmarkConfig:
    gen = doc.get("generator", {})
    if not isinstance(gen, dict):
        raise FormatError("bench: generator is not a JSON object")
    defaults = GeneratorParams()
    span = gen.get("duration_range", defaults.duration_range)
    if not isinstance(span, (list, tuple)) or len(span) != 2:
        raise FormatError(f"bench generator duration_range: expected two numbers, got {span!r}")
    generator = GeneratorParams(
        goals=_integer(gen.get("goals", defaults.goals), "bench generator goals"),
        duration_range=tuple(_number(x, "bench generator duration_range") for x in span),
        tau=_number(gen.get("tau", defaults.tau), "bench generator tau"),
        width=_integer(gen.get("width", defaults.width), "bench generator width"),
    )
    kwargs = {key: _flag(doc[key], f"bench {key}")
              for key in ("frontier_min_1", "sft_1") if key in doc}
    if "dt" in doc:
        kwargs["dt"] = _number(doc["dt"], "bench dt")
    if doc.get("sft") is not None:  # null keeps the default, half of dt
        kwargs["sft"] = _number(doc["sft"], "bench sft")
    kwargs.update((key, _integer(doc[key], f"bench {key}"))
                  for key in ("instances", "t_wait", "seed", "max_expansions") if key in doc)
    if "modes" in doc:
        kwargs["modes"] = tuple(doc["modes"])
    return BenchmarkConfig(speeds=tuple(_require(doc, "speeds", "bench")),
                           generator=generator, **kwargs)


# -- dispatch ----------------------------------------------------------------

_WRITERS = {
    KdsInstance: kds_to_dict,
    CopeInstance: cope_to_dict,
    CopemInstance: copem_to_dict,
    Task: task_to_dict,
    BenchmarkConfig: BenchmarkConfig.to_dict,
}

_READERS = {
    "kds": _kds_from_dict,
    "cope": _cope_from_dict,
    "copem": _copem_from_dict,
    "task": _task_from_dict,
    "bench": _bench_from_dict,
}


def to_dict(obj) -> dict:
    writer = _WRITERS.get(type(obj))
    if writer is None:
        raise FormatError(f"cannot serialize {type(obj).__name__}")
    return writer(obj)


def from_dict(doc):
    if not isinstance(doc, dict):
        raise FormatError("document is not a JSON object")
    tag = _require(doc, "format", "document")
    version = _integer(doc.get("version", 0), "document version")
    if version != VERSION:
        raise FormatError(f"document: unsupported version {version}")
    reader = _READERS.get(tag)
    if reader is None:
        raise FormatError(f"document: unknown format {tag!r}")
    try:
        return reader(doc)
    except FormatError:
        raise
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise FormatError(f"{tag}: {exc}") from exc


def dumps(obj) -> str:
    return json.dumps(to_dict(obj), indent=2, sort_keys=True) + "\n"


def loads(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError("invalid JSON: nested too deeply") from exc
    return from_dict(doc)


def save(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def read_text(path) -> str:
    """The file's text; FormatError when it is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def load(path):
    return loads(read_text(path))


# -- plan streams ------------------------------------------------------------

def happenings_to_text(happenings) -> str:
    """One `time kind action` line per happening, times at full precision."""
    lines = [f"{float(t)!r} {kind} {name}" for t, kind, name in happenings]
    return "\n".join(lines) + ("\n" if lines else "")


def happenings_from_text(text):
    out = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(f"plan line {ln}: expected `time kind action`")
        t, kind, name = parts
        try:
            out.append((float(t), kind, name))
        except ValueError as exc:
            raise FormatError(f"plan line {ln}: bad time {t!r}") from exc
    return out

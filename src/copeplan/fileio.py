"""Tagged JSON document formats for instances, tasks, and benchmark configs.

Every document carries a format tag and version so files identify their own
kind. Each format is one table of fields, walked by one reader (`_read`) and
one writer (`_write`). A field names its JSON key, its kind, the model
attribute it fills when that differs from the key, and whether the key may
be absent, in which case the model's own default applies. The tables check
only JSON kinds and presence, and refuse unknown keys at every level; value
ranges stay in the model constructors. Distributions serialize as sparse
[time, probability] pairs. Parsing raises FormatError with the offending
field named; parse -> serialize -> parse is the identity for every shipped
file.
"""

import json
import math
from dataclasses import astuple
from typing import NamedTuple

from .cope import CopeInstance, CopeProcess, PrefixAction
from .copem import CopemInstance
from .dist import DiscreteDistribution
from .harness import BenchmarkConfig, GeneratorParams
from .kds import KdsInstance, KdsProcess
from .planner.task import DurativeAction, Task, TimedLiteral

VERSION = 1


class FormatError(ValueError):
    pass


# -- kinds -------------------------------------------------------------------

class Field(NamedTuple):
    """One key of a JSON object: its kind, the model attribute it fills (the
    key itself when None), and whether the key may be absent."""

    key: str
    kind: object
    attr: str = None
    optional: bool = False


class Obj(NamedTuple):
    """A JSON object of these fields, read as model(**fields)."""

    model: type
    fields: tuple


class Many(NamedTuple):
    """A JSON list of one kind, read as model(items). Items are named in the
    singular: the list "task actions" holds "task action 0", ..."""

    item: object
    label: str
    model: type = tuple


class Row(NamedTuple):
    """A JSON list of fixed length whose entries are (label, kind) pairs,
    read as model(*values), or as a plain tuple when model is None."""

    model: object
    items: tuple


class Maybe(NamedTuple):
    """A kind, or JSON null for None."""

    kind: object


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
    raise FormatError, which shows the value as JSON spells it (NaN, true)."""
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):
        pass
    raise FormatError(f"{where}: expected a finite number, "
                      f"got {json.dumps(value, default=repr)}")


def _string(value, where):
    """value when it is a JSON string; anything else raises FormatError."""
    if not isinstance(value, str):
        raise FormatError(f"{where}: expected a string, got {value!r}")
    return value


def _flag(value, where):
    """value when it is a JSON boolean; anything else raises FormatError."""
    if not isinstance(value, bool):
        raise FormatError(f"{where}: expected true or false, got {value!r}")
    return value


def _propositions(value, where):
    """value as a frozenset when it is a JSON list of strings; anything
    else, a bare string included, raises FormatError."""
    if not isinstance(value, list) or not all(isinstance(p, str) for p in value):
        raise FormatError(f"{where}: expected a list of proposition names, got {value!r}")
    return frozenset(value)


_PAIR = Row(None, (("time", "integer"), ("mass", "number")))


def _pmf(value, where):
    """A DiscreteDistribution from a list of [time, mass] pairs."""
    try:
        if not isinstance(value, list):
            raise FormatError(f"expected a list of [time, mass] pairs, got {value!r}")
        return DiscreteDistribution.from_pairs(
            [_read(_PAIR, pair, f"pair {k}") for k, pair in enumerate(value)])
    except ValueError as exc:
        raise FormatError(f"{where}: bad pmf ({exc})") from exc


_SCALARS = {"integer": _integer, "number": _number, "string": _string,
            "flag": _flag, "propositions": _propositions, "pmf": _pmf}


# -- the walkers ---------------------------------------------------------------

def _build(model, where, *args, **kwargs):
    """model(*args, **kwargs), its refusal raised as a FormatError at where."""
    try:
        return model(*args, **kwargs)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def _read(kind, value, where):
    """value, checked against kind and built into its model; where names
    value in errors. A kind is a scalar's name in _SCALARS, or an Obj, Many,
    Row or Maybe."""
    if isinstance(kind, str):
        return _SCALARS[kind](value, where)
    if isinstance(kind, Maybe):
        return None if value is None else _read(kind.kind, value, where)
    if isinstance(kind, Many):
        if not isinstance(value, list):
            raise FormatError(f"{where}: expected a list, got {value!r}")
        outer = where.rpartition(" ")[0]
        return kind.model(_read(kind.item, v, f"{outer} {kind.label} {k}")
                          for k, v in enumerate(value))
    if isinstance(kind, Row):
        labels = [label for label, _ in kind.items]
        if not isinstance(value, list) or len(value) != len(labels):
            raise FormatError(f"{where}: expected [{', '.join(labels)}], got {value!r}")
        values = [_read(k, v, f"{where} {label}") for (label, k), v in zip(kind.items, value)]
        return tuple(values) if kind.model is None else _build(kind.model, where, *values)
    if not isinstance(value, dict):
        raise FormatError(f"{where}: expected an object, got {value!r}")
    unknown = value.keys() - {f.key for f in kind.fields}
    if unknown:
        raise FormatError(f"{where}: unknown field {min(unknown)!r}")
    args = {}
    for f in kind.fields:
        if f.key in value:
            args[f.attr or f.key] = _read(f.kind, value[f.key], f"{where} {f.key}")
        elif not f.optional:
            raise FormatError(f"{where}: missing field {f.key!r}")
    return _build(kind.model, where, **args)


def _write(kind, value):
    """The JSON form of value, a model of kind."""
    if kind == "propositions":
        return sorted(value)
    if kind == "pmf":
        return [[t, p] for t, p in value.pairs()]
    if isinstance(kind, str):
        return value
    if isinstance(kind, Maybe):
        return None if value is None else _write(kind.kind, value)
    if isinstance(kind, Many):
        return [_write(kind.item, v) for v in value]
    if isinstance(kind, Row):
        values = value if kind.model is None else astuple(value)
        return [_write(k, v) for (_, k), v in zip(kind.items, values)]
    return {f.key: _write(f.kind, getattr(value, f.attr or f.key)) for f in kind.fields}


# -- the formats -------------------------------------------------------------

_KDS_PROCESS = Obj(KdsProcess, (Field("pmf", "pmf", "profile"),
                                Field("deadline", "integer")))

_COPE_PROCESS = Obj(CopeProcess, (
    Field("pmf", "pmf", "profile"),
    Field("prefix", Many(Row(PrefixAction, (("id", "string"), ("duration", "integer"))),
                         "prefix action")),
    Field("induced_deadline", "integer"),
))

_ACTION_SETS = ("cond_start", "cond_over", "cond_end",
                "add_start", "del_start", "add_end", "del_end")

_ACTION = Obj(DurativeAction, (
    Field("name", "string"),
    Field("duration", "number"),
    *(Field(key, "propositions", optional=True) for key in _ACTION_SETS),
))

_TIMED_LITERAL = Row(TimedLiteral, (("time", "number"), ("proposition", "string"),
                                    ("add", "flag")))

_GENERATOR = Obj(GeneratorParams, tuple(Field(key, kind, optional=True) for key, kind in (
    ("goals", "integer"),
    ("duration_range", Row(None, (("low", "number"), ("high", "number")))),
    ("tau", "number"),
    ("width", "integer"),
)))

_FORMATS = {
    "kds": Obj(KdsInstance, (Field("horizon", "integer"),
                             Field("processes", Many(_KDS_PROCESS, "process", list)))),
    "cope": Obj(CopeInstance, (Field("horizon", "integer"),
                               Field("processes", Many(_COPE_PROCESS, "process", list)))),
    "copem": Obj(CopemInstance, (
        Field("horizon", "integer"),
        Field("dispatch_budget", "integer"),
        Field("observation_budget", "integer"),
        Field("measurement_model", "string", optional=True),
        Field("processes", Many(_COPE_PROCESS, "process", list)),
    )),
    "task": Obj(Task, (
        Field("propositions", "propositions"),
        Field("actions", Many(_ACTION, "action")),
        Field("init", "propositions"),
        Field("goal", "propositions", optional=True),
        Field("tils", Many(_TIMED_LITERAL, "timed literal"), optional=True),
    )),
    "bench": Obj(BenchmarkConfig, (
        Field("speeds", Many("number", "speed")),
        *(Field(key, kind, optional=True) for key, kind in (
            ("modes", Many("string", "mode")),
            ("instances", "integer"),
            ("dt", "number"),
            ("sft", Maybe("number")),  # null keeps the default, half of dt
            ("t_wait", "integer"),
            ("frontier_min_1", "flag"),
            ("sft_1", "flag"),
            ("seed", "integer"),
            ("max_expansions", "integer"),
            ("generator", _GENERATOR),
        )),
    )),
}


# -- documents ---------------------------------------------------------------

def to_dict(obj) -> dict:
    for tag, kind in _FORMATS.items():
        if type(obj) is kind.model:
            return {"format": tag, "version": VERSION, **_write(kind, obj)}
    raise FormatError(f"cannot serialize {type(obj).__name__}")


def from_dict(doc):
    if not isinstance(doc, dict):
        raise FormatError("document is not a JSON object")
    if "format" not in doc:
        raise FormatError("document: missing field 'format'")
    tag = doc["format"]
    version = _integer(doc.get("version", 0), "document version")
    if version != VERSION:
        raise FormatError(f"document: unsupported version {version}")
    if not isinstance(tag, str) or tag not in _FORMATS:
        raise FormatError(f"document: unknown format {tag!r}")
    body = {key: value for key, value in doc.items() if key not in ("format", "version")}
    return _read(_FORMATS[tag], body, tag)


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

"""Durative planning tasks over propositions, with timed initial literals.

An action occupies a closed time interval: its start happening checks
cond_start and applies the start effects, its end happening does the same for
the end sets, and cond_over must hold at every state change strictly inside
the interval. Timed literals flip one proposition at a fixed wall time.
"""

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class DurativeAction:
    name: str
    duration: float
    cond_start: frozenset = frozenset()
    cond_over: frozenset = frozenset()
    cond_end: frozenset = frozenset()
    add_start: frozenset = frozenset()
    del_start: frozenset = frozenset()
    add_end: frozenset = frozenset()
    del_end: frozenset = frozenset()
    # derived once for the planner's per-node passes: every condition, every
    # addition, and what the delete relaxation needs before it can apply the
    # action (its start conditions, and those over-all and end conditions
    # that its start effects do not supply)
    conds: frozenset = field(init=False, compare=False, repr=False)
    adds: frozenset = field(init=False, compare=False, repr=False)
    relaxed_pre: frozenset = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # a chained comparison, so that NaN fails too
        if not 0 < self.duration < math.inf:
            raise ValueError(f"action {self.name!r} needs a positive finite duration")
        conds = _shared(self.cond_start | self.cond_over | self.cond_end, self.cond_start)
        derived = {
            "conds": conds,
            "adds": _shared(self.add_start | self.add_end, self.add_end),
            "relaxed_pre": _shared(
                self.cond_start | ((self.cond_over | self.cond_end) - self.add_start),
                conds),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def _shared(derived, source):
    """source when it equals derived, so that equal sets share one object
    and the derived fields cost no memory for most actions."""
    return source if derived == source else derived


@dataclass(frozen=True)
class TimedLiteral:
    time: float
    prop: str
    add: bool

    def __post_init__(self):
        if not 0 <= self.time < math.inf:
            raise ValueError(f"timed literal at {self.time!r} needs a finite time from 0")


@dataclass
class Task:
    propositions: frozenset
    actions: tuple
    init: frozenset
    tils: tuple = ()
    goal: frozenset = frozenset()
    by_name: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.propositions = frozenset(self.propositions)
        self.init = frozenset(self.init)
        self.goal = frozenset(self.goal)
        self.actions = tuple(self.actions)
        self.tils = tuple(sorted(self.tils, key=lambda l: (l.time, l.prop, not l.add)))
        names = [a.name for a in self.actions]
        if len(set(names)) != len(names):
            raise ValueError("duplicate action names")
        self.by_name = {a.name: a for a in self.actions}
        for a in self.actions:
            used = a.conds | a.adds | a.del_start | a.del_end
            if not used <= self.propositions:
                raise ValueError(f"action {a.name!r} uses unknown propositions")
        for group, label in ((self.init, "init"), (self.goal, "goal")):
            if not group <= self.propositions:
                raise ValueError(f"{label} uses unknown propositions")
        for lit in self.tils:
            if lit.prop not in self.propositions:
                raise ValueError(f"timed literal on unknown proposition {lit.prop!r}")


# Plan steps are snap happenings, ordered as generated during search:
#   ("start", action_name)
#   ("end", action_name, start_position)
#   ("til", til_index)


def apply_start(action: DurativeAction, props: frozenset) -> frozenset:
    return (props - action.del_start) | action.add_start


def apply_end(action: DurativeAction, props: frozenset) -> frozenset:
    return (props - action.del_end) | action.add_end

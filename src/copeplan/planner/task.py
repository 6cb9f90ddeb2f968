"""Durative planning tasks over propositions, with timed initial literals.

An action occupies a closed time interval: its start happening checks
cond_start and applies the start effects, its end happening does the same for
the end sets, and cond_over must hold at every state change strictly inside
the interval. Timed literals flip one proposition at a fixed wall time.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple


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

    def __post_init__(self):
        # a chained comparison, so that NaN fails too
        if not 0 < self.duration < math.inf:
            raise ValueError(f"action {self.name!r} needs a positive finite duration")


class ActionMasks(NamedTuple):
    """An action's sets as proposition bitmasks (Task.bit), with what the
    planner derives from them: every condition, every addition, and what the
    delete relaxation needs before it can apply the action (its start
    conditions, and those over-all and end conditions that its start effects
    do not supply)."""

    cond_start: int
    cond_over: int
    cond_end: int
    add_start: int
    del_start: int
    add_end: int
    del_end: int
    conds: int
    adds: int
    relaxed_pre: int


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
    """A planning task. Its propositions are numbered once, in sorted name
    order, and the planner works on bitmasks over those numbers: `bit` maps
    each proposition to its bit, `masks` each action name to its
    ActionMasks (in action order), `goal_mask` is the goal, and
    `til_adds[c]` holds every proposition a timed literal at index c or later
    adds. These compiled fields take no part in ==, repr or the task's file
    form."""

    propositions: frozenset
    actions: tuple
    init: frozenset
    tils: tuple = ()
    goal: frozenset = frozenset()
    by_name: dict = field(init=False, repr=False)
    bit: dict = field(init=False, compare=False, repr=False)
    masks: dict = field(init=False, compare=False, repr=False)
    goal_mask: int = field(init=False, compare=False, repr=False)
    til_adds: tuple = field(init=False, compare=False, repr=False)

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
            used = (a.cond_start | a.cond_over | a.cond_end | a.add_start
                    | a.add_end | a.del_start | a.del_end)
            if not used <= self.propositions:
                raise ValueError(f"action {a.name!r} uses unknown propositions")
        for group, label in ((self.init, "init"), (self.goal, "goal")):
            if not group <= self.propositions:
                raise ValueError(f"{label} uses unknown propositions")
        for lit in self.tils:
            if lit.prop not in self.propositions:
                raise ValueError(f"timed literal on unknown proposition {lit.prop!r}")
        self.bit = {p: 1 << i for i, p in enumerate(sorted(self.propositions))}
        self.masks = {a.name: self._compile(a) for a in self.actions}
        self.goal_mask = self.mask(self.goal)
        adds = [0]
        for lit in reversed(self.tils):
            adds.append((adds[-1] | self.bit[lit.prop]) if lit.add else adds[-1])
        self.til_adds = tuple(reversed(adds))

    def mask(self, props) -> int:
        """The bitmask of a set of propositions."""
        bit = self.bit
        return sum(bit[p] for p in set(props))

    def _compile(self, a: DurativeAction) -> ActionMasks:
        sets = {name: self.mask(getattr(a, name)) for name in ActionMasks._fields[:7]}
        over_end = sets["cond_over"] | sets["cond_end"]
        return ActionMasks(
            **sets,
            conds=sets["cond_start"] | over_end,
            adds=sets["add_start"] | sets["add_end"],
            relaxed_pre=sets["cond_start"] | (over_end & ~sets["add_start"]),
        )


# Plan steps are snap happenings, ordered as generated during search:
#   ("start", action_name)
#   ("end", action_name, start_position)
#   ("til", til_index)

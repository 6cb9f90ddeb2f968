"""Durative planning tasks over propositions, with timed initial literals.

An action occupies a closed time interval: its start happening checks
cond_start and applies the start effects, its end happening does the same for
the end sets, and cond_over must hold at every state change strictly inside
the interval. Timed literals flip one proposition at a fixed wall time.

A Task compiles, once, everything the planner's per-node work reads that
depends on the task alone: each action's sets as proposition bitmasks, the
tuples the relaxed plan walks, and for each count of applied timed literals
the deadline bound that the upcoming timed deletions put on each action and
on the goal.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from ..stn import EPSILON_SEPARATION


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
    """An action's sets as proposition bitmasks (Task.bit)."""

    cond_start: int
    cond_over: int
    cond_end: int
    add_start: int
    del_start: int
    add_end: int
    del_end: int


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
    adds. For the relaxed plan, `relaxed_actions` holds (action, relaxed_pre,
    adds, conds) for each action in task order (see _relaxed), and an open
    action ends on its `masks` entry's cond_end and add_end. For a node that
    has applied c timed literals, `chain_bounds[c]` is (bounds, goal_cut):
    `bounds` maps each action name to (bound, duration), bound being the
    latest start that the timed deletions at index c or later leave the
    action (inf if none touches its conditions), and `goal_cut` the latest
    time the goal may be reached (see _compile_chain_bounds). These compiled
    fields take no part in ==, repr or the task's file form."""

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
    relaxed_actions: tuple = field(init=False, compare=False, repr=False)
    chain_bounds: tuple = field(init=False, compare=False, repr=False)

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
        self.masks = {a.name: ActionMasks(*(self.mask(getattr(a, name))
                                            for name in ActionMasks._fields))
                      for a in self.actions}
        self.goal_mask = self.mask(self.goal)
        adds = [0]
        for lit in reversed(self.tils):
            adds.append((adds[-1] | self.bit[lit.prop]) if lit.add else adds[-1])
        self.til_adds = tuple(reversed(adds))
        self.relaxed_actions = tuple(_relaxed(a, m)
                                     for a, m in zip(self.actions, self.masks.values()))
        self.chain_bounds = self._compile_chain_bounds()

    def mask(self, props) -> int:
        """The bitmask of a set of propositions."""
        bit = self.bit
        return sum(bit[p] for p in set(props))

    def _compile_chain_bounds(self) -> tuple:
        """chain_bounds, from the last timed literal back to the first.

        A timed deletion of one of an action's conditions at time t bounds
        the action's start by t - eps when the action needs the fact only at
        its start, and by t - duration when it needs it over the interval or
        at its end; a deletion of a goal fact bounds the goal by t - eps.
        Each bound is the least over the deletions at index c or later. No
        bound is NaN or -0.0: times are finite, durations and eps positive,
        and x - y is -0.0 only when x is -0.0 and y is 0.0. So the least is
        the same float in whatever order it is taken. A literal that bounds
        nothing shares the next count's row."""
        eps = EPSILON_SEPARATION
        bounds = {a.name: (math.inf, a.duration) for a in self.actions}
        goal_cut = math.inf
        rows = [(bounds, goal_cut)]
        for lit in reversed(self.tils):
            bit = 0 if lit.add else self.bit[lit.prop]
            tighter = {}
            for a in self.actions:
                m = self.masks[a.name]
                if bit & (m.cond_start | m.cond_over | m.cond_end):
                    cut = lit.time - (a.duration if bit & (m.cond_over | m.cond_end) else eps)
                    if cut < bounds[a.name][0]:
                        tighter[a.name] = (cut, a.duration)
            cuts_goal = bit & self.goal_mask and lit.time - eps < goal_cut
            if cuts_goal:
                goal_cut = lit.time - eps
            if tighter:
                bounds = {**bounds, **tighter}
            rows.append((bounds, goal_cut) if tighter or cuts_goal else rows[-1])
        return tuple(reversed(rows))


def _relaxed(a: DurativeAction, m: ActionMasks) -> tuple:
    """(a, relaxed_pre, adds, conds): what the delete relaxation needs before
    it can apply `a` (its start conditions, and those over-all and end
    conditions that its start effects do not supply), everything `a` adds,
    and every condition of `a`."""
    over_end = m.cond_over | m.cond_end
    return (a, m.cond_start | (over_end & ~m.add_start), m.add_start | m.add_end,
            m.cond_start | over_end)


# Plan steps are snap happenings, ordered as generated during search:
#   ("start", action_name)
#   ("end", action_name, start_position)
#   ("til", til_index)

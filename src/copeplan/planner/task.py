"""Durative planning tasks over propositions, with timed initial literals.

An action occupies a closed time interval: its start happening checks
cond_start and applies the start effects, its end happening does the same for
the end sets, and cond_over must hold at every state change strictly inside
the interval. Timed literals flip one proposition at a fixed wall time.
"""

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

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError(f"action {self.name!r} needs a positive duration")


@dataclass(frozen=True)
class TimedLiteral:
    time: float
    prop: str
    add: bool

    def __post_init__(self):
        if self.time < 0:
            raise ValueError("timed literal before time 0")


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
            used = (
                a.cond_start | a.cond_over | a.cond_end
                | a.add_start | a.del_start | a.add_end | a.del_end
            )
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

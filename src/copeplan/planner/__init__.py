"""Temporal planner that can commit actions while it is still searching."""

from .engine import DispatchParams, PlanResult, run_search
from .search import (
    SearchNode,
    SearchStats,
    deadline_steps,
    discretized_lognormal,
    estimate_completion,
    expand,
    latest_start,
    make_root,
    q_known,
)
from .task import DurativeAction, Task, TimedLiteral
from .validate import validate_plan

__all__ = [
    "DispatchParams",
    "DurativeAction",
    "PlanResult",
    "SearchNode",
    "SearchStats",
    "Task",
    "TimedLiteral",
    "deadline_steps",
    "discretized_lognormal",
    "estimate_completion",
    "expand",
    "latest_start",
    "make_root",
    "q_known",
    "run_search",
    "validate_plan",
]

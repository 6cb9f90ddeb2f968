"""The measuring scripts under tools/, run on small slices."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_counts_prints_one_json_line_of_call_counts(capsys):
    """tools/counts.py on the first two shipped tasks prints one JSON line
    that holds every count for each mode, counts that agree with one
    another, and it puts back every name it wrapped."""
    spec = importlib.util.spec_from_file_location("tools_counts", ROOT / "tools" / "counts.py")
    counts = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(counts)
    targets = [(owner, attr) for owner, attr, _ in counts.TARGETS]
    targets.append((counts.engine, "estimate_completion"))
    wrapped = [getattr(owner, attr) for owner, attr in targets]
    counts.main(["--tasks", "2"])
    assert [getattr(owner, attr) for owner, attr in targets] == wrapped
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert list(result) == ["disp", "nodisp"]
    for got in result.values():
        assert list(got) == list(counts.NAMES)
        assert all(type(n) is int and n > 0 for n in got.values()), got
        # a probe only where the memo misses
        assert got["Stn.probe"] < got["search.tighten"]
    # without pins, tighten runs only on a node whose relaxed plan reaches
    # the goal
    nodisp = result["nodisp"]
    assert nodisp["search.tighten"] <= nodisp["search.relaxed_plan"]

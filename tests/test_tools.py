"""The measuring scripts under tools/, run on small slices."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_prints_one_json_line_of_call_counts(capsys):
    """tools/counts.py on the first two shipped tasks prints one JSON line
    that holds every count for each mode, counts that agree with one
    another, and it puts back every name it wrapped."""
    counts = _load("counts")
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


# code lines: the import with its trailing comment, the class line, the
# assignment, the two lines of the def, the two of the return and the two
# of a string that is no docstring; nothing else
_LOC_SAMPLE = '''"""Module docstring
over two lines."""

import os  # a trailing comment


# a comment line
class Thing:
    """Class docstring."""

    size = 1

    def total(self, a,
              b):
        """Function docstring
        over three lines.
        """
        return (a
                + b)


TEXT = """not a docstring,
so both lines count"""
'''


def test_loc_counts_only_the_lines_of_statements(tmp_path, capsys):
    """tools/loc.py on one module counts the lines that hold part of a
    statement, each line of a statement over several lines included, and no
    blank line, comment line or module, class or function docstring."""
    module = tmp_path / "sample.py"
    module.write_text(_LOC_SAMPLE, encoding="utf-8")
    assert _load("loc").main([str(module)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["9", str(module)], ["9", "total"]]

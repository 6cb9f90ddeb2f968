"""The benchmark's result line, checked end to end on a copy of the checkout,
and the names its tracer wraps."""

import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _refuse(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_traced_solve_abstract_run_ends_with_its_result(tmp_path):
    """A traced solve_abstract run exits 0 and its last stdout line is the
    result as strict JSON: correct, no failed op, every metric finite. The
    run works in a copy, so its output files stay out of the checkout."""
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve_abstract",
         "--trace", "1", "--seconds", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1], parse_constant=_refuse)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert result["metrics"]
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        assert "absent" not in metric, name


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    """Every name the benchmark's tracer wraps still exists where its caller
    looks it up, so no traced metric reads as absent. Nothing is run; the
    wrappers are prepared but never put in place."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = _load("run")
    tracer = _load("tracer").Tracer()
    run.install(tracer, {})
    assert tracer.absent == []
    assert tracer.present

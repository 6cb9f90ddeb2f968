import glob
import json
import math
import os
import subprocess
import sys

import pytest

from copeplan import fileio
from copeplan.cli import main
from copeplan.copem import expectimax_oracle, solve11
from copeplan.harness import GeneratorParams, generate_instance, witness_plan
from copeplan.planner import PlanResult, Task

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def path(name):
    return os.path.join(CONFIGS, name)


def test_solve_kds_worked_instance(capsys):
    assert main(["solve", "kds", path("kds_worked.json")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "value 1.0000000"
    assert out[1].startswith("block process ")


def test_module_runs_from_a_checkout():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "copeplan", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")
    assert "bench" in done.stdout


def test_cli_import_loads_no_network_modules():
    """Importing the CLI, as every run does, loads none of the standard
    library's network or mail modules; xml.sax.saxutils pulled in
    urllib.request and with it http, email, ssl and socket. (pathlib, which
    numpy imports, loads urllib.parse on its own.)"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = ("import sys, copeplan.cli; print(sorted(m for m in sys.modules "
            "if m == 'urllib.request' or m.split('.')[0] in "
            "('http', 'email', 'ssl', 'socket', 'xml')))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def _kds_document(tmp_path, text):
    doc = tmp_path / "kds.json"
    doc.write_text('{"format": "kds", "version": 1, ' + text + "}")
    return str(doc)


def test_solve_kds_rejects_nan_mass(tmp_path, capsys):
    doc = _kds_document(tmp_path, '"horizon": 4, "processes": '
                        '[{"deadline": 3, "pmf": [[1, NaN], [2, 1.0]]}]')
    assert main(["solve", "kds", doc]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "NaN" in err[0]


def test_solve_kds_hopeless_and_empty_instances_print_plus_zero(tmp_path, capsys):
    hopeless = _kds_document(tmp_path, '"horizon": 4, "processes": '
                             '[{"deadline": 2, "pmf": [[5, 1.0]]}]')
    assert main(["solve", "kds", hopeless]) == 0
    assert capsys.readouterr().out == "value 0.0000000\n"
    empty = _kds_document(tmp_path, '"horizon": 4, "processes": []')
    assert main(["solve", "kds", empty]) == 0
    assert capsys.readouterr().out == "value 0.0000000\n"


def test_solve_copem00_worked_instance(capsys):
    assert main(["solve", "copem00", path("copem_worked.json")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["value 1.0000000", "dispatch process 1"]


def test_solve_copem11_reports_policy(capsys):
    assert main(["solve", "copem11", path("copem_worked.json")]) == 0
    assert capsys.readouterr().out == ("value 1.0000000\n"
                                       "first compute process 1\n"
                                       "observe 2: value 1.0000000, dispatch process 1\n")


def test_solve_kidcope_worked_instance(capsys):
    assert main(["solve", "kidcope", path("copem_worked.json")]) == 0
    assert capsys.readouterr().out == ("value 1.0000000\n"
                                       "initiate process 1: a at 0\n"
                                       "block process 1 start 0 length 2\n")


# dispatching process 1's action first, and measuring it in the same slot,
# is the only policy that can succeed
DISPATCH_FIRST = {
    "format": "copem", "version": 1, "horizon": 3,
    "dispatch_budget": 1, "observation_budget": 1, "measurement_model": "perfect",
    "processes": [
        {"pmf": [[1, 0.5], [3, 0.5]], "prefix": [["a", 2]], "induced_deadline": 2},
        {"pmf": [[2, 1.0]], "prefix": [["b", 1]], "induced_deadline": 2},
    ],
}


def test_solve_copem11_prints_the_measurement_after_a_dispatch(tmp_path, capsys):
    doc = tmp_path / "copem.json"
    doc.write_text(json.dumps(DISPATCH_FIRST))
    assert main(["solve", "copem11", str(doc)]) == 0
    assert capsys.readouterr().out == ("value 0.5000000\n"
                                       "first dispatch process 1\n"
                                       "measure process 1\n"
                                       "observe 1: value 1.0000000, no dispatch\n"
                                       "observe 3: value 0.0000000, no dispatch\n")
    inst = fileio.load(doc)
    assert solve11(inst).value == pytest.approx(expectimax_oracle(inst), abs=1e-12)


@pytest.mark.parametrize("field,value", [
    ("prefix", [[7, 1]]),
    ("pmf", [[1, "1.0"]]),
    ("pmf", [[1, True]]),
    ("measurement_model", 1),
], ids=["prefix-id-number", "mass-string", "mass-bool", "model-number"])
def test_solve_copem_refuses_fields_it_would_coerce(tmp_path, capsys, field, value):
    doc = json.loads(json.dumps(DISPATCH_FIRST))
    if field == "measurement_model":
        doc[field] = value
    else:
        doc["processes"][0][field] = value
    out = tmp_path / "copem.json"
    out.write_text(json.dumps(doc))
    assert main(["solve", "copem11", str(out)]) == 2
    assert _one_error_line(capsys)


def _emptied_copem(tmp_path):
    doc = json.loads(open(path("copem_worked.json"), encoding="utf-8").read())
    doc["processes"] = []
    out = tmp_path / "copem.json"
    out.write_text(json.dumps(doc))
    return str(out)


def test_solve_copem00_without_processes_prints_no_dispatch(tmp_path, capsys):
    assert main(["solve", "copem00", _emptied_copem(tmp_path)]) == 0
    assert capsys.readouterr().out == "value 0.0000000\nno dispatch\n"


def test_solve_copem11_without_processes_prints_no_dispatch(tmp_path, capsys):
    assert main(["solve", "copem11", _emptied_copem(tmp_path)]) == 0
    assert capsys.readouterr().out == "value 0.0000000\nno dispatch\n"


def test_solve_kidcope_without_a_prefix_prints_no_initiation(tmp_path, capsys):
    doc = tmp_path / "cope.json"
    doc.write_text(json.dumps({
        "format": "cope", "version": 1, "horizon": 3,
        "processes": [{"pmf": [[1, 1.0]], "prefix": [], "induced_deadline": 3}],
    }))
    assert main(["solve", "kidcope", str(doc)]) == 0
    assert capsys.readouterr().out == ("value 1.0000000\n"
                                       "no initiation\n"
                                       "block process 1 start 0 length 1\n")


def test_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["solve", "kds", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["solve", "kds", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()


def _one_error_line(capsys):
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    return captured.out == "" and len(err) == 1 and err[0].startswith("error:")


def _demo_task_with(tmp_path, edit):
    with open(path("demo_task.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    out = tmp_path / "task.json"
    out.write_text(json.dumps(doc))
    return str(out)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, "2", True])
def test_plan_rejects_durations_that_are_not_positive_and_finite(tmp_path, capsys, value):
    def edit(doc):
        doc["actions"][0]["duration"] = value

    assert main(["plan", _demo_task_with(tmp_path, edit)]) == 2
    assert _one_error_line(capsys)


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, "5"])
def test_plan_rejects_timed_literals_that_are_not_finite_from_0(tmp_path, capsys, value):
    def edit(doc):
        doc["tils"][0][0] = value

    assert main(["plan", _demo_task_with(tmp_path, edit)]) == 2
    assert _one_error_line(capsys)


@pytest.mark.parametrize("field", ["timed literal add", "action name"])
def test_plan_rejects_flags_and_names_that_are_not_json_booleans_and_strings(
        tmp_path, capsys, field):
    # truthiness would read the string "false" as adding, and str() a name 7
    # as "7"
    def edit(doc):
        if field == "timed literal add":
            doc["tils"][0][2] = "false"
        else:
            doc["actions"][0]["name"] = 7

    assert main(["plan", _demo_task_with(tmp_path, edit)]) == 2
    assert _one_error_line(capsys)


@pytest.mark.parametrize("actions", ["abc", [1, 2], [["name", "a"]]])
def test_plan_rejects_action_entries_that_are_not_objects(tmp_path, capsys, actions):
    def edit(doc):
        doc["actions"] = actions

    assert main(["plan", _demo_task_with(tmp_path, edit)]) == 2
    assert _one_error_line(capsys)


def test_solve_rejects_times_past_float_range(tmp_path, capsys):
    # JSON reads 1e400 as inf, which no integer time can hold
    doc = _kds_document(tmp_path, '"horizon": 4, "processes": '
                        '[{"deadline": 3, "pmf": [[1e400, 1.0]]}]')
    assert main(["solve", "kds", doc]) == 2
    assert _one_error_line(capsys)
    doc = _kds_document(tmp_path, '"horizon": 4, "processes": '
                        '[{"deadline": 1e400, "pmf": [[1, 1.0]]}]')
    assert main(["solve", "kds", doc]) == 2
    assert _one_error_line(capsys)


_ONE_PROCESS = '"processes": [{"deadline": 3, "pmf": [[1, 1.0]]}]'


@pytest.mark.parametrize("fields", [
    '"version": 1, "horizon": true, ' + _ONE_PROCESS,
    '"version": 1, "horizon": 1.5, ' + _ONE_PROCESS,
    '"version": 1, "horizon": 4, "processes": [{"deadline": false, "pmf": [[1, 1.0]]}]',
    '"version": 1, "horizon": 4, "processes": [{"deadline": 3, "pmf": [[1.5, 1.0]]}]',
    '"version": true, "horizon": 4, ' + _ONE_PROCESS,
])
def test_solve_rejects_integers_that_are_booleans_or_fractions(tmp_path, capsys, fields):
    doc = tmp_path / "kds.json"
    doc.write_text('{"format": "kds", ' + fields + "}")
    assert main(["solve", "kds", str(doc)]) == 2
    assert _one_error_line(capsys)


def test_solve_reads_integral_floats_as_integers(tmp_path, capsys):
    doc = _kds_document(tmp_path, '"horizon": 4.0, "processes": '
                        '[{"deadline": 3.0, "pmf": [[1.0, 1.0]]}]')
    assert main(["solve", "kds", doc]) == 0
    assert capsys.readouterr().out.startswith("value 1.0000000")


@pytest.mark.parametrize("command", ["solve", "plan", "validate-task", "validate-plan", "bench"])
def test_undecodable_file_exits_2(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"format": "\xff\xfe"}')
    argv = {
        "solve": ["solve", "kds", str(bad)],
        "plan": ["plan", str(bad)],
        "validate-task": ["validate", str(bad), str(bad)],
        "validate-plan": ["validate", path("demo_task.json"), str(bad)],
        "bench": ["bench", str(bad)],
    }[command]
    assert main(argv) == 2
    assert _one_error_line(capsys)


def test_directory_as_document_exits_2(tmp_path, capsys):
    assert main(["solve", "kds", str(tmp_path)]) == 2
    assert _one_error_line(capsys)


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["solve", "kds", str(deep)]) == 2
    assert _one_error_line(capsys)


@pytest.mark.parametrize("value", ["free", ["free", 3]])
@pytest.mark.parametrize("field", fileio._ACTION_SETS + ("propositions", "init", "goal"))
def test_plan_rejects_proposition_fields_that_are_not_lists_of_strings(
        tmp_path, capsys, field, value):
    def edit(doc):
        (doc["actions"][0] if field in fileio._ACTION_SETS else doc)[field] = value

    assert main(["plan", _demo_task_with(tmp_path, edit)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error:") and f"{field}: expected a list" in captured.err


@pytest.mark.parametrize("edit", [
    lambda doc: doc["actions"].append(dict(doc["actions"][0])),
    lambda doc: doc["actions"][0].update(add_end=["nowhere"]),
    lambda doc: doc["init"].append("nowhere"),
    lambda doc: doc["goal"].append("nowhere"),
    lambda doc: doc["tils"][0].__setitem__(1, "nowhere"),
], ids=["duplicate-action", "action-unknown", "init-unknown", "goal-unknown", "til-unknown"])
def test_plan_refuses_tasks_the_model_rejects(tmp_path, capsys, edit):
    assert main(["plan", _demo_task_with(tmp_path, edit)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: task: ")


def test_wrong_document_kind_exits_3(capsys):
    assert main(["solve", "kds", path("demo_task.json")]) == 3
    assert "expected a kds document" in capsys.readouterr().err


def test_plan_solves_and_repeats_identically(capsys):
    args = ["plan", path("demo_task.json"), "--mode", "nodisp", "--speed", "25"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert "solved true" in first
    assert first.startswith("# config ")


@pytest.mark.parametrize("budget", [1, 3])
def test_plan_spends_no_more_expansions_than_its_budget(capsys, budget):
    """A burst stops at the expansion budget: the demo task, which nodisp
    solves in 6 expansions, reports the budget reached and no more."""
    assert main(["plan", path("demo_task.json"), "--mode", "nodisp",
                 "--max-expansions", str(budget)]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith(f"solved false expansions {budget} ")
    assert last.endswith("reason expansion limit")


def test_plan_stream_then_validate(tmp_path, capsys):
    out = tmp_path / "demo.plan"
    assert main(["plan", path("demo_task.json"), "--mode", "disp",
                 "--speed", "20", "--plan-out", str(out)]) == 0
    capsys.readouterr()
    assert main(["validate", path("demo_task.json"), str(out)]) == 0
    assert capsys.readouterr().out.strip() == "valid"
    # drop the last happening: plan must no longer satisfy the model
    lines = out.read_text().splitlines()
    out.write_text("\n".join(lines[:-1]) + "\n")
    assert main(["validate", path("demo_task.json"), str(out)]) == 3
    assert "invalid:" in capsys.readouterr().out


def test_bench_shape_echo_and_determinism(tmp_path, capsys):
    cfg = path("bench.json")
    common = ["bench", cfg, "--instances", "2", "--speeds", "9,45",
              "--goals", "2", "--width", "1"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(common + ["--csv", str(a), "--svg", str(tmp_path / "p.svg"),
                          "--jsonl", str(tmp_path / "r.jsonl")]) == 0
    assert main(common + ["--csv", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0].startswith("# config ")
    echoed = json.loads(lines[0][len("# config "):])
    assert echoed["instances"] == 2 and echoed["speeds"] == [9.0, 45.0]
    assert lines[1].startswith("speed,mode,")
    assert len(lines) == 2 + 2 * 2 * 2
    svg = (tmp_path / "p.svg").read_text()
    assert "<desc>" in svg and '"instances": 2' in svg
    jsonl = (tmp_path / "r.jsonl").read_text().splitlines()
    assert json.loads(jsonl[0])["config"]["instances"] == 2
    assert len(jsonl) == 1 + 8


def test_bench_bad_config_exits_2(tmp_path, capsys):
    assert main(["bench", path("bench.json"), "--speeds", "-4"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["bench", path("demo_task.json")]) == 2
    capsys.readouterr()
    doc = tmp_path / "bench.json"
    doc.write_text('{"format": "bench", "version": 1, "speeds": [1.0], '
                   '"generator": "abc"}')
    assert main(["bench", str(doc)]) == 2
    assert _one_error_line(capsys)


_BENCH_DOC = ('{"format": "bench", "version": 1, "speeds": [100.0], '
              '"modes": ["nodisp"], ')


@pytest.mark.parametrize("argv,env,doc", [
    (["plan", path("demo_task.json"), "--dt", "-1"], {}, None),
    (["plan", path("demo_task.json"), "--dt", "nan"], {}, None),
    (["plan", path("demo_task.json"), "--speed", "inf"], {}, None),
    (["plan", path("demo_task.json")], {"COPEPLAN_MODE": "bogus"}, None),
    (["bench"], {}, '"dt": -1, "generator": {"goals": 1, "width": 1}}'),
    (["bench"], {}, '"seed": 1.5, "generator": {"goals": 1, "width": 1}}'),
    (["bench"], {}, '"instances": true, "generator": {"goals": 1}}'),
    (["bench"], {}, '"max_expansions": true, "generator": {"goals": 1}}'),
    (["bench"], {}, '"t_wait": 2.5, "generator": {"goals": 1}}'),
    (["bench"], {}, '"generator": {"goals": true, "width": 1}}'),
    (["bench"], {}, '"generator": {"goals": 1, "width": 1.5}}'),
    (["bench"], {}, '"dt": true, "generator": {"goals": 1, "width": 1}}'),
    (["bench"], {}, '"dt": "0.2", "generator": {"goals": 1, "width": 1}}'),
    (["bench"], {}, '"dt": NaN, "generator": {"goals": 1, "width": 1}}'),
    (["bench"], {}, '"dt": null, "generator": {"goals": 1, "width": 1}}'),
    (["bench"], {}, '"sft": true, "generator": {"goals": 1, "width": 1}}'),
    (["bench"], {}, '"sft": Infinity, "generator": {"goals": 1, "width": 1}}'),
    (["bench"], {}, '"generator": {"goals": 1, "width": 1, "tau": true}}'),
    (["bench"], {}, '"generator": {"goals": 1, "width": 1, "tau": Infinity}}'),
    (["bench"], {}, '"generator": {"goals": 1, "width": 1, "tau": 1e400}}'),
    (["bench"], {}, '"generator": {"goals": 1, "width": 1, "duration_range": [true, 3]}}'),
    (["bench"], {}, '"generator": {"goals": 1, "width": 1, "duration_range": [1, "3"]}}'),
    (["bench"], {}, '"generator": {"goals": 1, "width": 1, "duration_range": [1]}}'),
    (["bench"], {}, '"generator": {"goals": 1, "width": 1, "duration_range": "13"}}'),
    (["bench"], {}, '"frontier_min_1": "yes", "generator": {"goals": 1, "width": 1}}'),
    (["bench"], {}, '"sft_1": 1, "generator": {"goals": 1, "width": 1}}'),
    # a repeated key replaces _BENCH_DOC's value: JSON's reader keeps the last
    (["bench"], {}, '"speeds": [true], "generator": {"goals": 1, "width": 1}}'),
    (["bench"], {}, '"speeds": ["100"], "generator": {"goals": 1, "width": 1}}'),
    (["bench"], {}, '"modes": [["nodisp"]], "generator": {"goals": 1, "width": 1}}'),
    (["bench"], {}, '"max_expansion": 3, "generator": {"goals": 1, "width": 1}}'),
    (["bench"], {}, '"generator": {"goals": 1, "width": 1, "seed": 3}}'),
    (["bench"], {}, '"speeds": [100.0, 100.0], "generator": {"goals": 1, "width": 1}}'),
    (["bench"], {}, '"modes": ["nodisp", "nodisp"], "generator": {"goals": 1, "width": 1}}'),
    (["bench"], {}, '"modes": [], "generator": {"goals": 1, "width": 1}}'),
    (["bench"], {}, '"speeds": [], "generator": {"goals": 1, "width": 1}}'),
    (["bench"], {}, '"instances": 0, "generator": {"goals": 1, "width": 1}}'),
    (["bench", path("bench.json"), "--speeds", "5,5"], {}, None),
    (["bench", path("bench.json"), "--modes", "nodisp,nodisp"], {}, None),
    (["plan", path("demo_task.json"), "--config"], {}, '"modes": []}'),
    (["plan", path("demo_task.json")], {"COPEPLAN_SFT_1": "maybe"}, None),
    (["bench", path("bench.json")], {"COPEPLAN_FRONTIER_MIN_1": "ture"}, None),
    (["plan", path("demo_task.json"), "--dt", "inf"], {}, None),
    (["plan", path("demo_task.json"), "--sft", "inf"], {}, None),
    (["gen", "--tau", "inf"], {}, None),
    (["gen"], {"COPEPLAN_GOALS": "abc"}, None),
    (["gen", "--duration-lo", "5", "--duration-hi", "1"], {}, None),
    (["gen", "--width", "-1"], {}, None),
    (["bench", path("bench.json"), "--tau", "inf"], {}, None),
    (["bench", path("bench.json"), "--instances", "abc"], {}, None),
    (["plan", path("demo_task.json"), "--config", path("demo_task.json")], {}, None),
    (["gen", "--config", path("demo_task.json")], {}, None),
    (["plan", path("demo_task.json"), "--dt", "[" * 100_000], {}, None),
], ids=["plan-dt", "plan-dt-nan", "plan-speed-inf", "plan-env-mode", "bench-dt",
        "bench-seed", "bench-instances", "bench-budget", "bench-t-wait",
        "bench-goals", "bench-width", "bench-dt-bool", "bench-dt-string",
        "bench-dt-nan", "bench-dt-null", "bench-sft-bool", "bench-sft-inf",
        "bench-tau-bool", "bench-tau-inf", "bench-tau-overflow",
        "bench-duration-bool", "bench-duration-string", "bench-duration-short",
        "bench-duration-text", "bench-frontier-string", "bench-sft1-number",
        "bench-speed-bool", "bench-speed-string", "bench-mode-list",
        "bench-unknown-key", "bench-generator-unknown-key", "bench-speeds-repeated",
        "bench-modes-repeated", "bench-modes-empty", "bench-speeds-empty",
        "bench-instances-zero", "bench-flag-speeds-repeated",
        "bench-flag-modes-repeated", "plan-config-modes-empty", "plan-env-bool",
        "bench-env-bool", "plan-flag-dt-inf", "plan-flag-sft-inf", "gen-flag-tau-inf",
        "gen-env-goals-string", "gen-flag-duration-reversed", "gen-flag-width-negative",
        "bench-flag-tau-inf", "bench-flag-instances-string", "plan-config-task",
        "gen-config-task", "plan-flag-dt-nested"])
def test_bad_settings_exit_2(tmp_path, capsys, monkeypatch, argv, env, doc):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if doc is not None:
        (tmp_path / "bench.json").write_text(_BENCH_DOC + doc)
        argv = argv + [str(tmp_path / "bench.json")]
    assert main(argv) == 2
    assert _one_error_line(capsys)


@pytest.mark.parametrize("argv,env", [
    (["plan", path("demo_task.json"), "--dt", "abc"], {}),
    (["plan", path("demo_task.json")], {"COPEPLAN_DT": "abc"}),
], ids=["flag", "env"])
def test_bad_setting_error_names_the_field(capsys, monkeypatch, argv, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(argv) == 2
    assert capsys.readouterr().err == 'error: bench dt: expected a finite number, got "abc"\n'


def test_bench_reads_whole_floats_as_integers(tmp_path, capsys):
    doc = tmp_path / "bench.json"
    doc.write_text(_BENCH_DOC + '"instances": 1.0, "seed": 2.0, '
                   '"generator": {"goals": 1, "width": 1}}')
    assert main(["bench", str(doc), "--csv", str(tmp_path / "out.csv")]) == 0
    echo = json.loads((tmp_path / "out.csv").read_text().splitlines()[0][len("# config "):])
    assert [echo["instances"], echo["seed"]] == [1, 2]
    assert isinstance(echo["instances"], int) and isinstance(echo["seed"], int)


def test_bench_without_csv_writes_it_to_stdout(tmp_path, capsys):
    doc = tmp_path / "bench.json"
    doc.write_text(_BENCH_DOC + '"instances": 1, "generator": {"goals": 1, "width": 1}}')
    assert main(["bench", str(doc)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# config ")
    assert json.loads(lines[0][len("# config "):])["instances"] == 1
    assert lines[1].startswith("speed,mode,")
    assert len(lines) == 3


@pytest.mark.parametrize("argv", [
    ["plan", "demo_task.json", "--seed", "3"],
    ["plan", "demo_task.json", "--no-such-flag"],
    ["validate", "demo_task.json"],
    ["solve", "nope", "x"],
], ids=["plan-seed", "unknown-flag", "missing-positional", "unknown-kind"])
def test_plan_has_no_seed_flag(capsys, argv):
    """A parse error exits 2 with one `error:` line and no usage block."""
    argv = [path(a) if a.endswith(".json") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


_NEGATIVE_HORIZON = {
    "format": "cope", "version": 1, "horizon": -5,
    "processes": [{"pmf": [[1, 1.0]], "prefix": [], "induced_deadline": 3}],
}


@pytest.mark.parametrize("argv,env,doc,message", [
    # a list whose first item is negative is the flag's value, not an option
    (["bench", path("bench.json"), "--speeds", "-4,5"], {}, None,
     "bench: speeds must be positive and finite"),
    (["gen", "--seed", "-3"], {}, None, "bench: seed must be >= 0"),
    (["gen"], {"COPEPLAN_SEED": "-2"}, None, "bench: seed must be >= 0"),
    (["bench"], {}, dict(json.loads(_BENCH_DOC + '"instances": 1}'), seed=-1),
     "bench: seed must be >= 0"),
    (["solve", "kidcope"], {}, _NEGATIVE_HORIZON, "cope: horizon must be >= 0"),
    (["solve", "copem00"], {}, dict(DISPATCH_FIRST, horizon=-5),
     "copem: horizon must be >= 0"),
    # a budget below 1 expands nothing, so the run would measure nothing
    (["plan", path("demo_task.json"), "--max-expansions", "-5"], {}, None,
     "bench: max_expansions must be >= 1"),
    (["plan", path("demo_task.json")], {"COPEPLAN_MAX_EXPANSIONS": "0"}, None,
     "bench: max_expansions must be >= 1"),
    (["bench"], {}, dict(json.loads(_BENCH_DOC + '"instances": 1}'), max_expansions=-1),
     "bench: max_expansions must be >= 1"),
], ids=["negative-speeds", "gen-flag-seed", "gen-env-seed", "bench-file-seed",
        "cope-horizon", "copem-horizon", "plan-flag-budget", "plan-env-budget",
        "bench-file-budget"])
def test_refusal_names_the_field(tmp_path, capsys, monkeypatch, argv, env, doc, message):
    """A bad value from a flag, a COPEPLAN_* variable or a document exits 2
    with one line that names its field."""
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if doc is not None:
        (tmp_path / "doc.json").write_text(json.dumps(doc))
        argv = argv + [str(tmp_path / "doc.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def _decided_after_start(task, **_):
    # the witness plan is valid, so only the record's order is at fault
    return PlanResult(solved=True, expansions=1, dispatches=1, first_dispatch_time=0.0,
                      completion_time=1.0, records=[(1.0, "setup", 0.0)],
                      happenings=witness_plan(task))


def test_bench_invalid_plan_exits_3(capsys, monkeypatch):
    for target, stub, message in (
            ("copeplan.harness.validate_plan", lambda task, happenings: (False, "x"),
             "error: invalid plan"),
            ("copeplan.harness.run_search", _decided_after_start,
             "error: decision after start")):
        with monkeypatch.context() as patch:
            patch.setattr(target, stub)
            assert main(["bench", path("bench.json"), "--instances", "1",
                         "--speeds", "100"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message)


def test_env_overrides_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("COPEPLAN_SPEED", "7")
    monkeypatch.setenv("COPEPLAN_DT", "0.25")
    assert main(["plan", path("demo_task.json"), "--mode", "nodisp"]) == 0
    echo = json.loads(capsys.readouterr().out.splitlines()[0][len("# config "):])
    assert echo["speed"] == 7.0 and echo["dt"] == 0.25
    assert main(["plan", path("demo_task.json"), "--mode", "nodisp",
                 "--speed", "31"]) == 0
    echo = json.loads(capsys.readouterr().out.splitlines()[0][len("# config "):])
    assert echo["speed"] == 31.0 and echo["dt"] == 0.25
    # a yes/no setting reads its spellings in any case
    for text, sft in (("Yes", 1.0), ("OFF", 0.125)):
        monkeypatch.setenv("COPEPLAN_SFT_1", text)
        assert main(["plan", path("demo_task.json"), "--mode", "nodisp"]) == 0
        echo = json.loads(capsys.readouterr().out.splitlines()[0][len("# config "):])
        assert echo["sft"] == sft


def _clear_env(monkeypatch):
    for name in list(os.environ):
        if name.startswith("COPEPLAN_"):
            monkeypatch.delenv(name)


def test_plan_built_in_defaults(capsys, monkeypatch):
    _clear_env(monkeypatch)
    assert main(["plan", path("demo_task.json")]) == 0
    echo = json.loads(capsys.readouterr().out.splitlines()[0][len("# config "):])
    assert echo == {"dt": 0.1, "max_expansions": 8000, "mode": "disp",
                    "sft": 0.05, "speed": 10.0, "t_wait": 10}


def test_gen_built_in_defaults(capsys, monkeypatch):
    _clear_env(monkeypatch)
    assert main(["gen"]) == 0
    assert capsys.readouterr().out == fileio.dumps(generate_instance(GeneratorParams()))


def test_config_file_supplies_plan_defaults(capsys):
    assert main(["plan", path("demo_task.json"), "--mode", "nodisp",
                 "--config", path("ablation_sft.json")]) == 0
    echo = json.loads(capsys.readouterr().out.splitlines()[0][len("# config "):])
    # ablation file forces the focus threshold to 1 and fixes the speed list
    assert echo["sft"] == 1.0
    assert echo["speed"] == 100.0


def test_gen_is_deterministic_and_plannable(tmp_path, capsys):
    args = ["gen", "--goals", "1", "--width", "1", "--tau", "2.0", "--seed", "11"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert isinstance(fileio.load(a), Task)
    assert main(["plan", str(a), "--mode", "nodisp", "--speed", "50"]) == 0
    assert "solved true" in capsys.readouterr().out


def test_shipped_files_round_trip_identically():
    paths = sorted(glob.glob(os.path.join(CONFIGS, "*.json")))
    assert len(paths) >= 6
    for p in paths:
        with open(p, encoding="utf-8") as fh:
            text = fh.read()
        assert fileio.dumps(fileio.loads(text)) == text, p

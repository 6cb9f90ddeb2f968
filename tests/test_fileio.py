import numpy as np
import pytest

from copeplan import fileio
from copeplan.harness import GeneratorParams, generate_instance

from helpers import random_cope_instance, random_copem_instance, random_kds_instance


def _round_trip(obj):
    text = fileio.dumps(obj)
    again = fileio.loads(text)
    assert fileio.dumps(again) == text
    return again


def test_kds_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(10):
        inst = random_kds_instance(rng)
        again = _round_trip(inst)
        assert again.horizon == inst.horizon
        assert [p.deadline for p in again.processes] == [
            p.deadline for p in inst.processes]
        for a, b in zip(again.processes, inst.processes):
            assert a.profile.pairs() == b.profile.pairs()


def test_cope_and_copem_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(10):
        assert _round_trip(random_cope_instance(rng)) is not None
        inst = random_copem_instance(rng, 1, 1)
        again = _round_trip(inst)
        assert again.dispatch_budget == 1 and again.observation_budget == 1


def test_task_round_trip_preserves_structure():
    task = generate_instance(GeneratorParams(goals=2, width=2, seed=8))
    again = _round_trip(task)
    assert again.goal == task.goal
    assert again.init == task.init
    assert again.tils == task.tils
    assert [a.name for a in again.actions] == [a.name for a in task.actions]
    by_name = {a.name: a for a in again.actions}
    for a in task.actions:
        b = by_name[a.name]
        assert b.duration == a.duration
        assert b.cond_start == a.cond_start and b.add_end == a.add_end


def test_save_load_file(tmp_path):
    inst = random_kds_instance(np.random.default_rng(3))
    path = tmp_path / "inst.json"
    fileio.save(inst, path)
    assert fileio.dumps(fileio.load(path)) == fileio.dumps(inst)


_KDS = '{"format": "kds", "version": 1, "horizon": 3, '
_PROCESS = '{"pmf": [[1, 1.0]], "deadline": 1'
_TASK = '{"format": "task", "version": 1, "propositions": ["p"], "init": [], '
_BENCH = '{"format": "bench", "version": 1, "speeds": [1.0], '

# a malformed document and its whole error message, which names the field
_SCHEMA_ERRORS = [
    (_KDS + '"processes": [], "horizn": 3}', "kds: unknown field 'horizn'"),
    (_KDS + '"processes": [' + _PROCESS + ', "deadlin": 1}]}',
     "kds process 0: unknown field 'deadlin'"),
    (_TASK + '"actions": [{"name": "a", "duration": 1, "cond_strat": ["p"]}]}',
     "task action 0: unknown field 'cond_strat'"),
    (_BENCH + '"generator": {"goals": 1, "seed": 3}}', "bench generator: unknown field 'seed'"),
    (_KDS + '"processes": [5]}', "kds process 0: expected an object, got 5"),
    (_KDS + '"processes": [{"pmf": [[1]], "deadline": 1}]}',
     "kds process 0 pmf: bad pmf (pair 0: expected [time, mass], got [1])"),
    (_KDS + '"processes": [{"pmf": 1.0, "deadline": 1}]}',
     "kds process 0 pmf: bad pmf (expected a list of [time, mass] pairs, got 1.0)"),
    ('{"format": "cope", "version": 1, "horizon": 3, "processes": [{"pmf": [[1, 1.0]], '
     '"prefix": [["a"]], "induced_deadline": 1}]}',
     "cope process 0 prefix action 0: expected [id, duration], got ['a']"),
    (_TASK + '"actions": [], "tils": [[1.0, "p"]]}',
     "task timed literal 0: expected [time, proposition, add], got [1.0, 'p']"),
    (_BENCH + '"generator": {"duration_range": [1.0]}}',
     "bench generator duration_range: expected [low, high], got [1.0]"),
]


def test_format_errors_name_the_problem():
    for text, message in _SCHEMA_ERRORS:
        with pytest.raises(fileio.FormatError) as exc:
            fileio.loads(text)
        assert str(exc.value) == message
    with pytest.raises(fileio.FormatError, match="not a JSON object"):
        fileio.from_dict([1, 2])
    with pytest.raises(fileio.FormatError, match="missing field 'format'"):
        fileio.from_dict({"version": 1})
    with pytest.raises(fileio.FormatError, match="unknown format"):
        fileio.from_dict({"format": "nope", "version": 1})
    with pytest.raises(fileio.FormatError, match="unsupported version"):
        fileio.from_dict({"format": "kds", "version": 99})
    with pytest.raises(fileio.FormatError, match="kds process 0"):
        fileio.from_dict({"format": "kds", "version": 1, "horizon": 3,
                          "processes": [{"deadline": 1}]})
    with pytest.raises(fileio.FormatError, match="task actions: expected a list"):
        fileio.from_dict({"format": "task", "version": 1, "propositions": [],
                          "init": [], "actions": "abc"})
    with pytest.raises(fileio.FormatError, match="bad pmf"):
        fileio.loads('{"format": "kds", "version": 1, "horizon": 3,'
                     ' "processes": [{"deadline": 1, "pmf": [[1e400, 1.0]]}]}')
    with pytest.raises(fileio.FormatError, match="invalid JSON"):
        fileio.loads("{nope")
    with pytest.raises(fileio.FormatError, match="cannot serialize"):
        fileio.to_dict(42)


def test_happenings_text_round_trip():
    happ = [(0.0, "start", "setup"), (2.125, "end", "setup"),
            (2.126, "start", "prep1")]
    text = fileio.happenings_to_text(happ)
    assert fileio.happenings_from_text(text) == happ
    assert fileio.happenings_from_text("") == []
    parsed = fileio.happenings_from_text("# comment\n\n0.5 start a\n")
    assert parsed == [(0.5, "start", "a")]
    with pytest.raises(fileio.FormatError, match="line 1"):
        fileio.happenings_from_text("0.5 start\n")
    with pytest.raises(fileio.FormatError, match="bad time"):
        fileio.happenings_from_text("x start a\n")

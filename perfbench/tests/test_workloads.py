"""Short runs of every workload through the real command line."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from harness import END_TO_END, PER_LAYER, ROOT, TWIGS, WORKLOADS

RUN = os.path.join(ROOT, "perfbench", "run.py")


def run(*args, cwd=ROOT):
    out = subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                         capture_output=True, text=True, timeout=300)
    return out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run_is_correct(workload, trace):
    out = run("--workload", workload, "--seed", "3", "--seconds", "2",
              "--trace", trace)
    assert out.returncode == 0, out.stderr
    assert "MISMATCH" not in out.stdout
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = ({name: unit for name, unit, _b in PER_LAYER} if trace == "1"
                else {name: unit for name, unit, _b, _bound in END_TO_END})
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == expected
    if trace == "0":
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_a_wrong_answer_is_counted_as_failed(monkeypatch):
    import query_round
    import repro.engine.planner as planner

    real = planner.run_query

    def drop_a_row(query, **kwargs):
        result = real(query, **kwargs)
        rows = sorted(result.rows, key=repr)[1:]
        return type(result)(result.name, result.schema.attributes, rows)

    monkeypatch.setattr(query_round, "SETUP_REPEATS", 1)
    monkeypatch.setattr(planner, "run_query", drop_a_row)
    outcome = query_round.run(seed=1, seconds=0.1, trace=False)
    assert outcome.mismatches == outcome.failed > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-round",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as source:
        spec = json.load(source)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(PER_LAYER)


def test_workload_inputs_match_the_metric_names():
    import query_round
    import twig_route
    from harness import CORPORA

    assert tuple(query_round.SPECS) == CORPORA
    assert tuple(twig_route.bench_twigs()) == TWIGS

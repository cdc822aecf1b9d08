"""Smoke tests of the benchmark itself (collected by the tier-1 ``pytest`` run).

They drive ``run.py --tiny --trace 1`` end to end on all four workloads and
check the result schema, the committed metric names, output verification,
exact-repeat counters and the serve child's clean-up.  Nothing here asserts
a speed.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
SRC = os.path.join(ROOT, "src")
for _path in (SRC, ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.suite import measure  # noqa: E402
from benchmarks.suite.served import ServerProcess  # noqa: E402
from benchmarks.suite.workloads import WORKLOADS  # noqa: E402

RUN = os.path.join(SUITE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_suite(*extra: str) -> dict:
    """One ``run.py`` command; returns the ``workloads`` table of its result.json."""
    completed = subprocess.run(
        [sys.executable, RUN, "--tiny", "--trace", "1", *extra],
        capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    with open(os.path.join(SUITE, "out", "result.json"), "r", encoding="utf-8") as handle:
        workloads = json.load(handle)["workloads"]
    for detail in workloads.values():
        detail["stdout"] = completed.stdout
    return workloads


@pytest.fixture(scope="module")
def tiny_runs():
    """Two tiny traced runs of the whole suite with the same seed."""
    return run_suite("--seed", "1"), run_suite("--seed", "1")


def test_every_committed_metric_is_reported_with_a_unit(tiny_runs):
    first, _ = tiny_runs
    assert set(first) == set(WORKLOADS)
    for name, detail in first.items():
        for section, committed in (("end_to_end", measure.END_TO_END),
                                   ("per_layer", measure.PER_LAYER)):
            assert list(detail[section]) == [metric for metric, _ in committed], name
            for metric, unit in committed:
                entry = detail[section][metric]
                assert NAME.match(metric) and UNIT.match(entry["unit"]) and entry["unit"] == unit
                assert isinstance(entry["value"], float)
                # one "workload metric value unit" line per metric
                assert re.search(rf"^{name} {re.escape(metric)} \S+ {re.escape(unit)}$",
                                 detail["stdout"], re.M), (name, metric)
        for metric in detail["end_to_end"].values():
            per_pass = metric["per_pass"]
            assert metric["value"] > 0 and per_pass["n"] >= 1
            assert per_pass["q1"] <= per_pass["median"] <= per_pass["q3"]
        for key in ("parameters", "seed", "git_sha", "python", "nproc", "kernel_active",
                    "info", "layers", "attempted_ops", "failed_ops", "tuples_per_pass"):
            assert key in detail, (name, key)
        assert detail["kernel_active"] == "python"
        assert os.path.exists(os.path.join(SUITE, "out", detail["info"]["trace_file"]))


def test_outputs_are_verified_on_every_pass(tiny_runs):
    for run in tiny_runs:
        for name, detail in run.items():
            assert detail["correct"] and detail["failed_ops"] == 0, name
            assert detail["attempted_ops"] >= 1
            assert re.fullmatch(r"[0-9a-f]{64}", detail["info"]["digest"])
            assert detail["info"]["outputs_per_tuple"] > 0, name


def test_exact_counters_repeat_for_a_seed_and_move_with_it(tiny_runs):
    first, second = tiny_runs
    for name in WORKLOADS:
        assert first[name]["info"]["digest"] == second[name]["info"]["digest"]
        for metric in measure.EXACT_COUNTERS:
            assert first[name]["per_layer"][metric] == second[name]["per_layer"][metric], (
                name, metric)
    other = run_suite("--seed", "2", "--workload", "star_sparse")["star_sparse"]
    assert other["info"]["digest"] != first["star_sparse"]["info"]["digest"]
    assert any(other["per_layer"][metric] != first["star_sparse"]["per_layer"][metric]
               for metric in measure.EXACT_COUNTERS)


def test_layers_only_show_where_they_run(tiny_runs):
    first, _ = tiny_runs
    layer = {name: {m: e["value"] for m, e in detail["per_layer"].items()}
             for name, detail in first.items()}
    for name in ("star_sparse", "union_enum", "served_tcp"):
        assert layer[name]["multi.register_ms_p50"] == 0
        assert layer[name]["runtime.snapshot.bytes"] == 0
    assert layer["multi_churn"]["multi.register_ms_p50"] > 0
    assert layer["multi_churn"]["runtime.snapshot.bytes"] > 0
    for name in ("star_sparse", "union_enum", "multi_churn"):
        assert layer[name]["runtime.frames.bytes_per_tuple"] == 0
        assert layer[name]["net.server.batches"] == 0
    assert layer["served_tcp"]["runtime.frames.bytes_per_tuple"] > 0
    assert layer["served_tcp"]["net.server.batches"] > 0
    assert layer["served_tcp"]["net.server.shed"] == 0


def test_the_trace_file_loads_as_a_chrome_trace(tiny_runs):
    first, _ = tiny_runs
    for name, detail in first.items():
        path = os.path.join(SUITE, "out", detail["info"]["trace_file"])
        with open(path, "r", encoding="utf-8") as handle:
            events = json.load(handle)["traceEvents"]
        spans = [event for event in events if event["ph"] == "X"]
        assert spans and all({"name", "ts", "dur", "pid", "tid"} <= set(event) for event in spans)
        assert "pass" in {event["name"] for event in spans}
        assert detail["layers"]["pass"]["calls"] == detail["passes"]["traced"]


def test_benchmark_json_names_what_the_suite_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        contract = json.load(handle)
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in contract["end_to_end"]] == list(measure.END_TO_END)
    assert [(m["name"], m["unit"]) for m in contract["per_layer"]] == list(measure.PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert contract["paths"] == ["benchmarks/suite"]


def test_serve_child_is_reaped_when_the_client_raises(tmp_path):
    with pytest.raises(RuntimeError, match="client failed"):
        with ServerProcess(str(tmp_path), SRC, clients=1) as server:
            server.wait_ready()
            assert os.path.exists(server.port_file)
            raise RuntimeError("client failed")
    assert server.process.poll() is not None  # terminated and waited for: no orphan
    assert not os.path.exists(server.port_file)


def test_without_the_program_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copytree(SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "star_sparse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""

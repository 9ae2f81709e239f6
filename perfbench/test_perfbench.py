"""Tests of the benchmark itself, at smoke sizes.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_file_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    claim_ids = sorted(workloads.load_reference()["full"]["verify"]["claims"])
    assert len(claim_ids) == 22
    assert set(tracer.layer_metrics({}, {}, 0.0, 0.0, 0.0, claim_ids)) == PER_LAYER


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_end_to_end_metric(workload):
    proc = run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0",
               "--smoke")
    line = result(proc)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == END_TO_END
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert "failed_ratio" in proc.stdout


def test_tampered_reference_is_reported_as_failed(tmp_path):
    ref = workloads.load_reference()
    ref["smoke"]["rho"]["sha256"] = "0" * 64
    ref["smoke"]["verify"]["claims"]["rho_sequence_1_42"][0] += 1
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    for workload in ("profile_bulk", "verify_paper"):
        proc = run("--workload", workload, "--seed", str(workloads.DEFAULT_SEED),
                   "--seconds", "1", "--trace", "0", "--smoke", "--reference", str(path))
        line = result(proc)
        assert line["correct"] is False
        assert line["failed"] == 1
        assert "FAILED" in proc.stdout


def test_traced_smoke_run_reports_every_layer_metric():
    line = result(run("--workload", "verify_paper", "--seed", "3", "--seconds", "1",
                      "--trace", "1", "--smoke"))
    assert line["correct"]
    assert set(line["metrics"]) == PER_LAYER
    m = {k: v["value"] for k, v in line["metrics"].items()}
    for name in ("numeration.codec_calls", "factors.scan_calls", "verify.shared_build_s",
                 "abelian.windows", "trace.overhead_ratio", "abelian.thread_speedup"):
        assert m[name] > 0, name
    # The smoke claims' own loops are not in any layer function.
    assert 0 < m["trace.unattributed_ratio"] < 1


def test_all_workloads_in_one_command():
    proc = run("--workload", "all", "--seed", "1", "--seconds", "1", "--trace", "0", "--smoke")
    line = result(proc)
    assert line["correct"]
    assert set(line["metrics"]) == {f"{w}.{m}" for w in workloads.WORKLOADS for m in END_TO_END}
    for w in workloads.WORKLOADS:
        assert f"{w:16s} failed_ratio" in proc.stdout


def test_layer_self_times_partition_the_covered_root():
    t = tracer.Tracer()
    leaf = t.aggregate("numeration.leaf", lambda: time.sleep(0.002))
    nested = t.aggregate("numeration.nested", leaf)  # same layer: counted, not timed
    claim = t.span("verify.claim", lambda: [nested() for _ in range(3)])
    root = t.begin("bench")
    claim()
    t.end(root, "bench.root")
    totals = tracer.totals(t, t.spans[-1])
    assert sum(totals[f"{layer}.self_s"] for layer in tracer.LAYERS) == \
        pytest.approx(totals["covered_s"], abs=1e-9)
    assert totals["numeration.self_s"] >= 0.006
    assert totals["agg:numeration.leaf:calls"] == 3


def _unattributed_ratio(gap_s: float) -> float:
    """Ratio of a traced claim that calls a wrapped function three times and
    then spends ``gap_s`` in code no wrapper reaches."""
    t = tracer.Tracer()
    wrapped = t.aggregate("numeration.leaf", lambda: time.sleep(0.01))
    claim = t.span("verify.claim", lambda: [wrapped() for _ in range(3)] + [time.sleep(gap_s)])
    root = t.begin("bench")
    claim()
    t.end(root, "bench.root")
    return tracer.layer_metrics(tracer.totals(t, t.spans[-1]), {}, 0.0, 0.0, 0.0,
                                [])["trace.unattributed_ratio"]


def test_time_outside_every_wrapper_moves_the_unattributed_ratio():
    assert _unattributed_ratio(0.0) < 0.2
    assert _unattributed_ratio(0.06) > 0.5


def test_a_name_missing_from_the_program_is_an_error():
    module = types.ModuleType("layer")
    module.encode = lambda n: n
    with pytest.raises(AttributeError):
        tracer._patch_everywhere([module], module, "encode_renamed", lambda fn: fn)


def test_exits_with_an_error_where_the_program_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "profile_bulk",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

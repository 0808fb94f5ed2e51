"""Smoke tests for the benchmark: every workload at a tiny size, in both
modes, with every declared metric present; a corrupted expected value or
recorded count fails the run; the tracer wraps re-bound names and puts
them back.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


# Millisecond rungs; the per-layer metrics still name the instances of
# workloads.LADDER, and read 0 for those not run.
TINY_LADDER = (("C4,C4", 5, 6), ("C4,K3", 6, 7), ("C4,S5", 7, 7), ("C4,B3", 8, 8))


@pytest.fixture(autouse=True)
def tiny(tmp_path, monkeypatch):
    """Every workload at a tiny size, with its counts recorded apart."""
    monkeypatch.setitem(
        workloads.WORKLOADS,
        "search-ladder",
        (lambda rng: list(TINY_LADDER), workloads.ladder_run, workloads.ladder_check),
    )
    monkeypatch.setattr(workloads, "PARTITION_PER_N", 2)
    monkeypatch.setattr(workloads, "DERIVE_SHARE", {1: 0.04, 2: 0.02, 3: 0.02})
    monkeypatch.setattr(workloads, "WITNESS_TOP", 12)
    monkeypatch.setattr(workloads, "RANDOMS", ((62, 1),))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "COUNTS_DIR", tmp_path / "counts")


def smoke(capsys, workload: str, trace: int = 0, seed: int = 3) -> tuple[int, dict]:
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)])
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1])


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_present_and_correct(capsys, workload, trace):
    code, result = smoke(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize(
    "workload, table, key, wrong",
    [
        ("search-ladder", workloads.LADDER_R, "C4,K3", 8),
        ("derive-cli", workloads.DERIVE_TABLE, "C4,K11", 44),
    ],
)
def test_corrupted_expected_value_fails(capsys, monkeypatch, workload, table, key, wrong):
    monkeypatch.setitem(table, key, wrong)
    code, result = smoke(capsys, workload)
    assert code == 1
    assert result["correct"] is False


def test_partition_checks_the_witness_targets(capsys, monkeypatch):
    monkeypatch.setattr(workloads, "PARTITION_SPECS", ("C4", "K3", "K3"))
    code, result = smoke(capsys, "partition-batch")
    assert code == 1 and result["correct"] is False


def test_rejection_must_name_a_real_copy(capsys, monkeypatch):
    monkeypatch.setattr(oracles, "hosts", lambda adj, spec, vertices: False)
    code, result = smoke(capsys, "witness-pipeline")
    assert code == 1 and result["correct"] is False


def test_counts_repeat_across_runs(capsys):
    assert smoke(capsys, "search-ladder")[0] == 0
    assert smoke(capsys, "search-ladder")[0] == 0
    (path,) = run.COUNTS_DIR.glob("search-ladder-3-*.json")
    assert path.name == f"search-ladder-3-{run.code_digest()[:16]}.json"
    counts = json.loads(path.read_text())
    assert counts["C4_C4_6"] == ["infeasible", 1059]
    counts["C4_C4_6"][1] += 1
    path.write_text(json.dumps(counts))
    code, result = smoke(capsys, "search-ladder")
    assert code == 1 and result["correct"] is False


def test_same_seed_same_inputs_other_seed_other_inputs():
    import random

    make = workloads.WORKLOADS["derive-cli"][0]
    a, b, c = (make(random.Random(s))["lists"] for s in (1, 1, 2))
    assert a == b and a != c and sorted(a) != sorted(c)


def test_tracer_wraps_rebound_names_and_restores_them():
    import c4ramsey
    import c4ramsey.cli
    import c4ramsey.search

    derive_mod = sys.modules["c4ramsey.derive"]
    originals = (
        c4ramsey.search.is_good_coloring,
        c4ramsey.cli.derive,
        derive_mod.theorem_mt_bound,
        c4ramsey.derive,
    )
    tracer = tracing.Tracer(time.perf_counter)
    tracer.install()
    try:
        now = (
            c4ramsey.search.is_good_coloring,
            c4ramsey.cli.derive,
            derive_mod.theorem_mt_bound,
            c4ramsey.derive,
        )
        assert all(a is not b for a, b in zip(now, originals))
        c4ramsey.derive(c4ramsey.parse_targets("C4,K11"), c4ramsey.seed_registry())
    finally:
        tracer.uninstall()
    assert (
        c4ramsey.search.is_good_coloring,
        c4ramsey.cli.derive,
        derive_mod.theorem_mt_bound,
        c4ramsey.derive,
    ) == originals
    spans = tracer.aggregate()
    calls, total, self_s = spans["derive.derive"]
    assert calls == 1 and 0 < self_s < total
    assert spans["bounds.theorem_mt_bound"][0] >= 1
    assert spans["registry.Registry.best_upper"][0] >= 1


def test_exits_without_result_outside_a_checkout(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".counts"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search-ladder", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode not in (0, None) and out.stdout == ""

"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench/tests -q

The smoke tests run every workload at ``test`` scale through
``run.py`` and check the emitted metrics against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from cells import FAMILY_SEEDS, WORKLOADS, cells  # noqa: E402
from spans import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    DECLARED = json.load(_f)


def _names(group):
    return {m["name"] for m in DECLARED[group]}


# Declarations ---------------------------------------------------------------


def test_declared_names_and_units_are_well_formed():
    metrics = DECLARED["end_to_end"] + DECLARED["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"]
                                            for w in DECLARED["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in metrics:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric


def test_declared_workloads_and_bounds():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_seed_fixes_order_and_plan_family():
    for name in WORKLOADS:
        first = cells(name, 5)
        assert first == cells(name, 5)
        assert sorted(c.id for c in first) != [c.id for c in first]
    campaign = cells("fig13-campaign", 1)
    assert {c.plan_seed for c in campaign} == {FAMILY_SEEDS[1]}


# Spans ----------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_times_sum_to_root():
    tracer = Tracer(FakeClock())
    root = tracer.begin("pass")
    with tracer.span("cell"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("b"):
            pass
    tracer.end(root)
    own = tracer.self_times()
    assert sum(own) == pytest.approx(tracer.durations()[root])
    table = tracer.layer_table()
    assert table["b"]["spans"] == 2
    assert sum(r["self_s"] for r in table.values()) == pytest.approx(
        tracer.durations()[root])


def test_patch_function_rebinds_every_import_site():
    def entry(x):
        return x + 1

    pkg = types.ModuleType("pbfake")
    pkg.entry = entry
    user = types.ModuleType("pbfake.user")
    user.entry = entry  # a ``from pbfake import entry`` copy
    sys.modules.update({"pbfake": pkg, "pbfake.user": user})
    try:
        tracer = Tracer(FakeClock())
        rebound = tracer.patch_function(entry, "layer", package="pbfake")
        assert sorted(rebound) == ["pbfake.entry", "pbfake.user.entry"]
        assert user.entry(1) == 2 and pkg.entry(2) == 3
        assert tracer.names == ["layer", "layer"]
        tracer.uninstall()
        assert user.entry is entry and pkg.entry is entry
    finally:
        del sys.modules["pbfake"], sys.modules["pbfake.user"]


# Smoke runs -----------------------------------------------------------------


def _run(workload, trace, seed=0):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--scale", "test"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return proc


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_end_to_end(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == _names("end_to_end")
    for metric in DECLARED["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_traced(workload):
    proc = _run(workload, 1, seed=3)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == _names("per_layer")
    assert metrics["trace.self_sum_s"] == pytest.approx(
        metrics["trace.wall_s"], abs=1e-6)
    shares = [v for k, v in metrics.items() if k.startswith("share.")]
    assert sum(shares) == pytest.approx(1.0, abs=1e-6)
    path = os.path.join(ROOT, ".perfbench_out",
                        f"trace-{workload}-seed3.jsonl")
    with open(path, encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle]
    spans = [line for line in lines if "span" in line]
    assert spans[0]["name"] == "pass" and spans[0]["parent"] == -1
    assert all(s["trace"] for s in spans
               if s["name"] not in ("pass", "process.import", "calibrate"))
    kind = WORKLOADS[workload].kind
    if kind == "campaign":
        assert metrics["inject.s"] > 0 and metrics["golden.profile_s"] > 0
        assert metrics["machine.run_s"] == 0
    else:
        assert metrics["machine.run_s"] > 0 and metrics["inject.s"] == 0
    assert metrics["machine.construct_s"] > 0
    assert metrics["compiled.compile_s"] > 0


# Expected values ------------------------------------------------------------


def _altered_pass(tmp_path, workload, alter):
    """One worker pass at test scale against an altered copy of the
    expected values; returns the reported problems."""
    with open(os.path.join(BENCH, "expected", "test.json"),
              encoding="utf-8") as handle:
        data = json.load(handle)
    altered = alter(data["cells"])
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(data))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=os.path.join(ROOT, "src"),
               REPRO_TOOLCHAIN_CACHE=str(tmp_path / "cache"),
               REPRO_LAB_STORE=str(tmp_path / "lab.sqlite"),
               XDG_CACHE_HOME=str(tmp_path / "xdg"))
    (tmp_path / "stores").mkdir()
    out = tmp_path / "pass.json"
    subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "pass",
         "--workload", workload, "--scale", "test", "--seed", "0",
         "--expected", str(path), "--store-dir", str(tmp_path / "stores"),
         "--out", str(out)],
        cwd=ROOT, env=env, check=True, timeout=600)
    problems = json.loads(out.read_text())["problems"]
    return altered, problems


def test_any_altered_fault_free_value_fails(tmp_path):
    def alter(values):
        a, b, c = "histogram/elzar", "kmeans/native", "x264/swiftr"
        values[a]["output"][0] += 1
        values[b]["counters"]["loads"] += 1
        values[c]["cycles"] *= 1.0 + 1e-12
        return {a: "output", b: "counters", c: "cycles"}

    altered, problems = _altered_pass(tmp_path, "cold-cells", alter)
    assert len(problems) == len(altered)
    for cell_id, field in altered.items():
        assert any(p.startswith(f"{cell_id}: {field} ") for p in problems)


def test_any_altered_campaign_value_fails(tmp_path):
    def alter(values):
        cell = next(c for c in cells("fig13-campaign", 0)
                    if c.variant == "elzar")
        counts = values[cell.id]["counts"]
        outcome = sorted(counts)[0]
        counts[outcome] += 1
        values[cell.id]["golden_instructions"] += 1
        return {cell.id: "counts"}

    altered, problems = _altered_pass(tmp_path, "fig13-campaign", alter)
    (cell_id,) = altered
    assert sorted(p.split(" ")[1] for p in problems) == [
        "counts", "golden_instructions"]
    assert all(p.startswith(cell_id) for p in problems)

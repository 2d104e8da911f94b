"""End-to-end benchmark of the ELZAR reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads (see ``cells.py`` and
``BENCHMARK.json``): ``cold-cells``, ``perf-figures``,
``fig13-campaign`` and ``fault-models``. Each runs single-threaded in
its own process, one pass over its cells at a time; every cell is
checked against values the reference interpreter produced
(``expected/<scale>.json``), and any mismatch fails the run.

Caches are private and declared. Set-up fills a fresh artifact cache
with cold toolchain builds, ``SETUP_REPS`` times; ``setup_s`` is the
median. Every pass then starts in a new process on its own copy of that warm
artifact cache, with empty in-process decode/code caches, no
checkpoint sets and a fresh result store per campaign cell. Nothing
outside the checkout is read or written: ``$REPRO_TOOLCHAIN_CACHE``,
``$REPRO_LAB_STORE`` and ``$XDG_CACHE_HOME`` point into
``.perfbench_tmp/``, which is removed at exit.

With ``--trace 0`` the run makes whole passes until about ``--seconds``
have gone by and prints the end-to-end metrics. With ``--trace 1`` it
makes one untraced and one traced pass of the same cells and prints
the per-layer metrics, including the tracing overhead (traced minus
untraced wall time); the spans go to
``.perfbench_out/trace-<workload>-seed<N>.jsonl``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from cells import WORKLOADS  # noqa: E402
from worker import _percentile  # noqa: E402

#: Hard limit for a whole run, set-up included.
DEADLINE_S = 170.0
SETUP_REPS = 5


class BenchError(Exception):
    """The run cannot produce a result (missing sources, a process
    that failed or timed out)."""


def _child_env(cache: str, work: str) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update({
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "PYTHONHASHSEED": "0",
        "REPRO_TOOLCHAIN_CACHE": cache,
        "REPRO_LAB_STORE": os.path.join(work, "lab.sqlite"),
        "XDG_CACHE_HOME": os.path.join(work, "xdg"),
    })
    return env


def _run_worker(argv: List[str], env: Dict[str, str], out: str,
                deadline: float) -> Dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a process")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *argv,
             "--out", out],
            env=env, cwd=ROOT, stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {argv[0]} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {argv[0]} exited {proc.returncode}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(setup_s: List[float], passes: List[Dict]) -> Dict[str, float]:
    done = [c for p in passes for c in p["cells"] if c["error"] is None]
    attempted = sum(c["planned"] for p in passes for c in p["cells"])
    failed = sum(c["planned"] for p in passes for c in p["cells"]
                 if c["error"] is not None)

    def per_pass(field: str, scale: float = 1.0) -> float:
        return _median([
            sum(c[field] for c in p["cells"] if c["error"] is None)
            / p["ref_wall_s"] * scale for p in passes])

    latencies = [c["ref_ms"] for c in done]
    return {
        "setup_s": _median(setup_s),
        "cells_per_s": _median([
            sum(c["error"] is None for c in p["cells"]) / p["ref_wall_s"]
            for p in passes]),
        "runs_per_s": per_pass("runs"),
        "sim_kips": per_pass("instructions", 1e-3),
        "cell_ms_p50": _percentile(latencies, 0.5),
        "cell_ms_p80": _percentile(latencies, 0.8),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "ok_frac": (attempted - failed) / attempted,
    }


def run(args) -> Dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise BenchError(f"no repro sources under {ROOT}/src")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[group]}
    workload = WORKLOADS[args.workload]
    scale = args.scale or workload.scale
    expected = os.path.join(HERE, "expected", f"{scale}.json")
    if not os.path.isfile(expected):
        raise BenchError(f"missing expected values {expected}")

    deadline = time.monotonic() + DEADLINE_S
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        # Set-up builds into caches it names itself; the environment's
        # cache path only keeps any stray default-cache use private.
        setup = _run_worker(
            ["setup", "--workload", args.workload, "--scale", scale,
             "--reps", str(SETUP_REPS), "--cache-root", work],
            _child_env(os.path.join(work, "setup-default-cache"), work),
            os.path.join(work, "setup.json"), deadline)

        def one_pass(index: int, trace_out: str = "") -> Dict:
            cache = os.path.join(work, f"pass-{index}", "cache")
            shutil.copytree(setup["cache"], cache)
            store_dir = os.path.join(work, f"pass-{index}", "stores")
            os.makedirs(store_dir)
            argv = ["pass", "--workload", args.workload, "--scale", scale,
                    "--seed", str(args.seed), "--expected", expected,
                    "--store-dir", store_dir]
            if trace_out:
                argv += ["--trace-out", trace_out]
            return _run_worker(argv, _child_env(cache, work),
                               os.path.join(work, f"pass-{index}.json"),
                               deadline)

        passes = []
        if args.trace:
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            untraced = one_pass(0)
            traced = one_pass(1, os.path.join(
                out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl"))
            passes = [untraced, traced]
            metrics = dict(traced["layers"])
            metrics["trace.untraced_wall_s"] = untraced["wall_s"]
            metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
            metrics["trace.overhead_ref_frac"] = (
                traced["ref_wall_s"] / untraced["ref_wall_s"] - 1.0)
        else:
            start = time.monotonic()
            while True:
                passes.append(one_pass(len(passes)))
                elapsed = time.monotonic() - start
                # Whole passes only: stop where the next one would end
                # further from --seconds than stopping now.
                if elapsed + elapsed / len(passes) / 2 >= args.seconds:
                    break
            metrics = end_to_end(setup["ref_setup_s"], passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != set(units):
        raise BenchError(
            "emitted metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(metrics))}, undeclared "
            f"{sorted(set(metrics) - set(units))}")
    cells = [c for p in passes for c in p["cells"]]
    problems = [msg for p in passes for msg in p["problems"]]
    report(args, scale, setup, passes, metrics, units, problems)
    return {
        "correct": not problems,
        "attempted": sum(c["planned"] for c in cells),
        "failed": sum(c["planned"] for c in cells if c["error"] is not None),
        "metrics": ({name: {"value": metrics[name], "unit": units[name]}
                     for name in units} if not problems else {}),
    }


def report(args, scale, setup, passes, metrics, units, problems) -> None:
    """Human-readable summary on standard error."""
    err = sys.stderr
    cells = sum(len(p["cells"]) for p in passes)
    print(f"workload {args.workload} (scale {scale}, seed {args.seed}): "
          f"{len(passes)} pass(es), {cells} cells; set-up "
          f"{len(setup['setup_s'])} x {setup['modules']} cold builds", file=err)
    for name in units:
        print(f"  {name:32s} {metrics[name]:14.6g} {units[name]}", file=err)
    for msg in problems[:20]:
        print(f"MISMATCH {msg}", file=err)
    if len(problems) > 20:
        print(f"... {len(problems) - 20} more mismatches", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="ELZAR reproduction end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("test", "fi", "perf"),
                        help="override the workload's scale (smoke tests)")
    args = parser.parse_args(argv)
    # A terminated run still kills and reaps its worker and removes its
    # private directory: SystemExit unwinds through subprocess.run and
    # the finally blocks.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

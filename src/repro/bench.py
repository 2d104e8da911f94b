"""Engine throughput benchmark: compiled vs reference.

Measures simulated instructions per wall-clock second for every kernel
under both execution engines (``MachineConfig.engine``), and reports
the speedup of the compiled engine over the reference interpreter
twice per kernel: for a plain run (fast segments) and for a
``count_only`` profiling run with the timing model off (stepped
segments — the path golden profiles, checkpoint capture and every
injected tail take). ``python -m repro bench --suite engine`` and
``benchmarks/bench_engine_throughput.py`` both drive this module; the
numbers land in ``BENCH_engine.json``.

The compiled engine must be a pure performance change: outputs,
counters, cycles and (for ``count_only``) the eligible-stream profile
are asserted equal across both engines for every workload measured
(any drift fails the benchmark rather than silently reporting a
speedup for a different simulation).

:func:`run_suites` is the ``--suite engine|batch|snap|all`` entry point
that also fans out to :mod:`repro.bench_batch` (batched lane-parallel
injection, ``BENCH_batch.json``) and :mod:`repro.bench_snap`
(checkpoint-resumed injection, ``BENCH_snap.json``).
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Sequence

from .cpu.interpreter import Machine, MachineConfig
from .workloads import ALL

DEFAULT_WORKLOADS = (
    "histogram", "kmeans", "linear_regression", "matrix_multiply",
    "blackscholes", "streamcluster", "swaptions",
)

#: Measurement order: the reference tier is the denominator of the
#: speedup.
ENGINES = ("reference", "compiled")

#: Benchmark suites ``run_suites`` knows how to drive.
SUITES = ("engine", "batch", "snap")


def _run(module, entry, args, engine: str, collect_timing: bool,
         count_only: bool = False):
    machine = Machine(
        module, MachineConfig(engine=engine, collect_timing=collect_timing)
    )
    machine.count_only = count_only
    start = time.perf_counter()
    result = machine.run(entry, args)
    elapsed = time.perf_counter() - start
    observed = (result.output, result.counters.as_dict(), result.cycles)
    if count_only:
        observed += ((machine.eligible_executed,
                      machine.mem_accesses_eligible,
                      machine.cond_branches_eligible,
                      machine.checker_sites_executed),)
    return observed, result.counters.instructions, elapsed


def _timed(name, module, entry, args, repeats, collect_timing, count_only):
    """Best-of-``repeats`` seconds per engine (engines interleaved, so
    drift hits both alike) and the instruction count, after asserting
    the engines' observables equal."""
    # Warm the decode and segment-compile caches so the one-time
    # translation cost is not billed to the first timed repeat (it is
    # amortised across campaign runs either way).
    _run(module, entry, args, "compiled", collect_timing, count_only)
    times: Dict[str, List[float]] = {engine: [] for engine in ENGINES}
    observed = {}
    for _ in range(repeats):
        for engine in ENGINES:
            obs, instructions, elapsed = _run(
                module, entry, args, engine, collect_timing, count_only)
            times[engine].append(elapsed)
            observed[engine] = obs
    mode = "count_only " if count_only else ""
    for what, ref, res in zip(("outputs", "counters", "cycles", "streams"),
                              observed["reference"], observed["compiled"]):
        if res != ref:
            raise AssertionError(
                f"{name}: compiled engine {mode}{what} differ")
    return {engine: min(ts) for engine, ts in times.items()}, instructions


def bench_workload(name: str, scale: str = "fi", repeats: int = 3,
                   collect_timing: bool = True) -> Dict:
    """Best-of-``repeats`` throughput for one kernel on all engines:
    a plain run and a ``count_only`` run with the timing model off."""
    built = ALL[name].build_at(scale)
    module, entry, args = built.module, built.entry, built.args
    best, instructions = _timed(name, module, entry, args, repeats,
                                collect_timing, False)
    row = {"workload": name, "scale": scale, "instructions": instructions}
    for engine in ENGINES:
        row[f"{engine}_seconds"] = best[engine]
        row[f"{engine}_ips"] = instructions / best[engine]
    row["compiled_speedup"] = best["reference"] / best["compiled"]
    row["speedup"] = row["compiled_speedup"]
    best, _ = _timed(name, module, entry, args, repeats, False, True)
    for engine in ENGINES:
        row[f"count_only_{engine}_seconds"] = best[engine]
    row["count_only_speedup"] = best["reference"] / best["compiled"]
    return row


def _geomean(rows: List[Dict], key: str) -> Optional[float]:
    if not rows:
        return None
    product = 1.0
    for row in rows:
        product *= row[key]
    return product ** (1.0 / len(rows))


def bench_engine_throughput(scale: str = "fi", repeats: int = 3,
                            workloads: Optional[Sequence[str]] = None,
                            collect_timing: bool = True,
                            verbose: bool = True) -> List[Dict]:
    names = list(workloads) if workloads else list(DEFAULT_WORKLOADS)
    rows = []
    for name in names:
        row = bench_workload(name, scale, repeats, collect_timing)
        rows.append(row)
        if verbose:
            print(
                f"{name:<18} {row['instructions']:>10} instrs  "
                f"compiled {row['compiled_speedup']:>5.2f}x  "
                f"({row['compiled_ips'] / 1e3:.0f}k ips)  "
                f"count_only {row['count_only_speedup']:>5.2f}x"
            )
    if verbose and rows:
        print(f"{'geomean speedup':<18} {'':>17}"
              f"compiled {_geomean(rows, 'compiled_speedup'):>5.2f}x  "
              f"{'':>13}count_only "
              f"{_geomean(rows, 'count_only_speedup'):>5.2f}x")
    return rows


def write_report(rows: List[Dict], path: str = "BENCH_engine.json") -> None:
    report = {
        "benchmark": "engine_throughput",
        "unit": "simulated instructions per second",
        "engines": list(ENGINES),
        "geomean_speedup": _geomean(rows, "compiled_speedup"),
        "geomean_compiled_speedup": _geomean(rows, "compiled_speedup"),
        "geomean_count_only_speedup": _geomean(rows, "count_only_speedup"),
        "rows": rows,
    }
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def run_suites(suite: str = "engine", scale: str = "fi",
               json_path: Optional[str] = None) -> int:
    """``python -m repro bench --suite ...``: run one benchmark suite
    (or ``all``) and persist its ``BENCH_*.json`` report.

    ``json_path`` overrides the output path when a single suite runs;
    with ``all`` each suite writes its default file name.
    """
    suites = list(SUITES) if suite == "all" else [suite]
    if json_path is not None and len(suites) > 1:
        raise ValueError("--json applies to a single --suite only")
    for name in suites:
        if name not in SUITES:
            raise ValueError(f"unknown bench suite {name!r}")
        if len(suites) > 1:
            print(f"== suite: {name}")
        if name == "engine":
            rows = bench_engine_throughput(scale=scale)
            out = json_path or "BENCH_engine.json"
            write_report(rows, out)
        elif name == "batch":
            from .bench_batch import bench_batch_injection
            from .bench_batch import write_report as write_batch

            rows = bench_batch_injection(scale=scale)
            out = json_path or "BENCH_batch.json"
            write_batch(rows, out)
        else:
            from .bench_snap import bench_checkpoint_injection
            from .bench_snap import write_report as write_snap

            rows = bench_checkpoint_injection(scale=scale)
            out = json_path or "BENCH_snap.json"
            write_snap(rows, out)
        print(f"-- wrote {out}")
    return 0

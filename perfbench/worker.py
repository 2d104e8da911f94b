"""One benchmark process, started by ``run.py`` with a private
artifact cache, result store and cache home in its environment.

``setup``: cold toolchain builds of every module a workload needs into
a fresh artifact cache, repeated ``--reps`` times; reports each
repetition's seconds and leaves the last cache in place for the passes.

``pass``: one pass over a workload's cells in a fresh process, each
cell checked against the reference-interpreter values in
``--expected``. With ``--trace-out`` the pass records spans around the
program's public entry points (see :mod:`spans`) and reports per-layer
metrics. Writes one JSON document to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from typing import Dict, List, Optional

import cells as bench_cells
from spans import Tracer

#: Span names of the layers, in the order a cell passes through them.
LAYERS = (
    "process.import", "toolchain.load", "machine.construct", "engine.decode",
    "compiled.compile", "machine.run", "golden.profile", "snap.build",
    "snap.nearest", "inject.session", "inject", "store.put", "durable",
)

#: The benchmark's own time (cell loop, result checks) is the self time
#: of these spans.
BENCH_SPANS = ("pass", "cell")

#: One calibration kernel run takes this long on the reference host.
#: End-to-end times are reported in reference seconds: each stretch of
#: wall time is scaled by KERNEL_REF_S over the kernel time measured
#: just before and just after it, in the same process. The host's CPU
#: speed drifts by tens of percent over minutes; the kernel drifts with
#: it, so the scaled times do not.
KERNEL_REF_S = 0.0025

_KERNEL_TABLE = tuple(range(7, 7 + 256 * 13, 13))


def _kernel(n: int = 20000) -> int:
    """Fixed pure-Python work: loop, index, integer arithmetic. It
    allocates no containers, so it cannot trigger the cyclic GC."""
    acc = 0
    table = _KERNEL_TABLE
    for i in range(n):
        acc = (acc * 31 + table[i & 255]) & 0xFFFFFFFF
    return acc


def calibrate() -> float:
    """Median seconds of three kernel runs: the host's current speed."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def ref_scale(before: float, after: float) -> float:
    """Wall-to-reference factor for a stretch between two calibrations."""
    return KERNEL_REF_S / ((before + after) / 2.0)


def _self_metric(layer: str) -> str:
    if layer == "inject":
        return "inject.s"
    if layer == "durable":
        return "durable.self_s"
    return layer + "_s"


def _percentile(values: List[float], q: float) -> float:
    """Linear interpolation between closest ranks; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _short(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 120 else text[:117] + "..."


def compare(cell_id: str, got: Dict, want: Optional[Dict]) -> List[str]:
    """Field-by-field exact comparison of a cell's results with its
    expected values (both as JSON data)."""
    if want is None:
        return [f"{cell_id}: no expected values"]
    got = json.loads(json.dumps(got))
    return [
        f"{cell_id}: {key} = {_short(got.get(key))}, "
        f"expected {_short(want[key])}"
        for key in sorted(want) if got.get(key) != want[key]
    ]


# Cells -------------------------------------------------------------------


def run_fault_free(cell, scale, expected, span):
    """Load, construct, run (decode and compile happen inside ``run``)
    and check one fault-free timed cell. Returns (runs, simulated
    instructions, problems)."""
    from repro.cpu.interpreter import Machine, MachineConfig
    from repro.toolchain import default_toolchain
    from repro.workloads.common import outputs_match

    built = default_toolchain().build(cell.workload, scale, cell.variant)
    machine = Machine(built.module,
                      MachineConfig(cost_model=built.spec.cost_model))
    with span("machine.run"):
        result = machine.run(built.entry, built.args)
    problems = compare(cell.id, {
        "output": result.output,
        "counters": result.counters.as_dict(),
        "cycles": result.cycles,
    }, expected.get(cell.id))
    if built.expected is not None and not outputs_match(
            result.output, built.expected, built.rtol):
        problems.append(f"{cell.id}: output fails the workload's own check")
    return 1, result.counters.instructions, problems


def run_campaign_cell(cell, scale, expected, store_path):
    """One durable campaign with the default execution knobs and a
    fresh result store, then its checks. Returns (injections
    classified, golden-run instructions, problems)."""
    from repro.faults import campaign
    from repro.faults.campaign import CampaignConfig
    from repro.lab import durable
    from repro.lab.store import ResultStore
    from repro.toolchain import default_toolchain

    built = default_toolchain().build(cell.workload, scale, cell.variant)
    store = ResultStore(store_path)
    try:
        outcome = durable.run_durable_campaign(
            built.module, built.entry, built.args, cell.workload,
            cell.variant,
            CampaignConfig(injections=cell.injections, seed=cell.plan_seed,
                           fault_model=cell.model),
            store=store,
        )
    finally:
        store.close()
    output, profile = campaign.golden_profile(built.module, built.entry,
                                              built.args)
    problems = compare(cell.id, {
        "counts": {o.value: n for o, n in outcome.result.counts.items()},
        "golden_output": output,
        "golden_instructions": profile.executed,
    }, expected.get(cell.id))
    return outcome.result.total, profile.executed, problems


# Tracing -----------------------------------------------------------------


class LayerCounts:
    """Counts observed at span boundaries (results of traced calls)."""

    def __init__(self):
        self.builds = self.build_hits = 0
        self.checkpoint_sets = self.checkpoints = self.sets_from_store = 0
        self.nearest_calls = self.resumed = 0

    def built(self, built) -> None:
        self.builds += 1
        self.build_hits += bool(built.from_cache)

    def checkpoint_set(self, cset) -> None:
        if cset is not None:
            self.checkpoint_sets += 1
            self.checkpoints += len(cset.states)
            self.sets_from_store += bool(cset.from_cache)

    def nearest(self, state) -> None:
        self.nearest_calls += 1
        self.resumed += state is not None


def install(tracer: Tracer, counts: LayerCounts) -> None:
    """Wrap each layer's public entry point, at every name its callers
    look up. Modules that import lazily are imported first so that
    their bindings exist to be rebound."""
    import repro.cpu.batch  # noqa: F401
    import repro.cpu.resumable  # noqa: F401
    import repro.snap.format  # noqa: F401
    from repro.cpu import compiled, engine
    from repro.cpu.interpreter import Machine
    from repro.faults import campaign
    from repro.lab import durable
    from repro.lab.store import ResultStore
    from repro.snap import build as snap_build
    from repro.toolchain.build import Toolchain

    tracer.patch_method(Toolchain, "build", "toolchain.load",
                        observe=counts.built)
    tracer.patch_method(Machine, "__init__", "machine.construct")
    tracer.patch_function(engine.decoded_module, "engine.decode")
    tracer.patch_method(engine.DecodedModule, "function", "engine.decode")
    tracer.patch_function(compiled.ensure_compiled, "compiled.compile")
    tracer.patch_function(campaign.golden_profile, "golden.profile")
    tracer.patch_function(snap_build.build_checkpoints, "snap.build",
                          observe=counts.checkpoint_set)
    tracer.patch_method(snap_build.CheckpointSet, "nearest", "snap.nearest",
                        observe=counts.nearest)
    tracer.patch_method(campaign.InjectionSession, "__init__",
                        "inject.session")
    tracer.patch_method(campaign.InjectionSession, "inject", "inject")
    tracer.patch_method(ResultStore, "put_shard", "store.put")
    tracer.patch_function(durable.run_durable_campaign, "durable")


def layer_metrics(tracer: Tracer, counts: LayerCounts, wall: float,
                  compile_delta: Dict[str, int], sim_instructions: int,
                  models: Dict[str, str],
                  kernels: List[float]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    from repro.faults.models import model_names

    table = tracer.layer_table()

    def self_s(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0)

    def spans(name: str) -> int:
        return int(table.get(name, {}).get("spans", 0))

    inject_ms: Dict[str, List[float]] = {m: [] for m in model_names()}
    all_inject_ms: List[float] = []
    for name, trace, start, end in zip(tracer.names, tracer.traces,
                                       tracer.starts, tracer.ends):
        if name == "inject":
            ms = (end - start) * 1000.0
            all_inject_ms.append(ms)
            inject_ms[models[trace]].append(ms)

    out: Dict[str, float] = {_self_metric(l): self_s(l) for l in LAYERS}
    bench_s = sum(self_s(name) for name in BENCH_SPANS)
    out["bench.self_s"] = bench_s
    out["calibrate_s"] = self_s("calibrate")
    run_s = self_s("machine.run")
    out.update({
        "toolchain.artifact_hit_frac": (counts.build_hits / counts.builds
                                        if counts.builds else 0.0),
        "machine.constructs": spans("machine.construct"),
        "compiled.segments": compile_delta["segments"],
        "compiled.code_misses": compile_delta["code_misses"],
        "machine.sim_instructions": sim_instructions,
        "machine.run_kips": (sim_instructions / run_s / 1000.0
                             if run_s > 0 else 0.0),
        "snap.checkpoints": counts.checkpoints,
        "snap.store_hit_frac": (counts.sets_from_store / counts.checkpoint_sets
                                if counts.checkpoint_sets else 0.0),
        "snap.resume_frac": (counts.resumed / counts.nearest_calls
                             if counts.nearest_calls else 0.0),
        "inject.ms_p50": _percentile(all_inject_ms, 0.5),
        "inject.ms_p90": _percentile(all_inject_ms, 0.9),
        "store.puts": spans("store.put"),
        "trace.spans": len(tracer.names),
        "trace.wall_s": wall,
        "trace.self_sum_s": sum(row["self_s"] for row in table.values()),
        "calib.kernel_ms": _percentile(kernels, 0.5) * 1000.0,
    })
    for model, values in inject_ms.items():
        out[f"inject.ms_p50.{model}"] = _percentile(values, 0.5)
    for layer in LAYERS:
        out[f"share.{layer}"] = self_s(layer) / wall
    out["share.bench"] = bench_s / wall
    out["share.calibrate"] = self_s("calibrate") / wall
    return out


# Commands ----------------------------------------------------------------


def setup(args) -> Dict:
    from repro.toolchain.build import Toolchain
    from repro.toolchain.cache import ArtifactCache

    builds = sorted({(c.workload, c.variant) for c in
                     bench_cells.unordered_cells(args.workload,
                                                 bench_cells.FAMILY_SEEDS[0])})
    seconds = []
    ref_seconds = []
    cache = None
    kernel = calibrate()
    for rep in range(args.reps):
        cache = os.path.join(args.cache_root, f"setup-{rep}")
        start = time.perf_counter()
        toolchain = Toolchain(ArtifactCache(cache))
        for workload, variant in builds:
            if toolchain.build(workload, args.scale, variant).from_cache:
                raise RuntimeError(f"setup cache {cache} was not empty")
        seconds.append(time.perf_counter() - start)
        before, kernel = kernel, calibrate()
        ref_seconds.append(seconds[-1] * ref_scale(before, kernel))
    return {"setup_s": seconds, "ref_setup_s": ref_seconds, "cache": cache,
            "modules": len(builds)}


def run_pass(args, t0: float) -> Dict:
    tracer = Tracer() if args.trace_out else None
    if tracer is not None:
        tracer.begin("pass", start=t0)
        import_span = tracer.begin("process.import")
    import_start = time.perf_counter()
    import repro  # noqa: F401
    import repro.faults.campaign  # noqa: F401
    import repro.lab.durable  # noqa: F401
    import repro.toolchain  # noqa: F401
    import_s = time.perf_counter() - import_start
    if tracer is not None:
        tracer.end(import_span)

    from repro.cpu.compiled import COMPILE_STATS

    with open(args.expected, encoding="utf-8") as handle:
        expected = json.load(handle)["cells"]
    workload = bench_cells.WORKLOADS[args.workload]
    cell_list = bench_cells.cells(args.workload, args.seed)
    counts = LayerCounts()
    models: Dict[str, str] = {}
    compile_before = COMPILE_STATS.as_dict()
    if tracer is not None:
        install(tracer, counts)
        span = tracer.span
    else:
        def span(name):
            return nullcontext()

    def timed_calibration() -> float:
        with span("calibrate"):
            return calibrate()

    results = []
    problems: List[str] = []
    sim_instructions = 0
    # Reference time of the pass: the head (import, loading) and each
    # cell, each scaled by the calibrations around it; calibrations
    # themselves are excluded.
    head_s = time.perf_counter() - t0
    kernels = [timed_calibration()]
    ref_wall = head_s * KERNEL_REF_S / kernels[0]
    try:
        for index, cell in enumerate(cell_list):
            if tracer is not None:
                tracer.trace_id = f"{index}:{cell.id}"
                models[tracer.trace_id] = cell.model
            record = {"id": cell.id, "planned": cell.injections or 1,
                      "runs": 0, "instructions": 0, "error": None}
            start = time.perf_counter()
            with span("cell"):
                try:
                    if workload.kind == "fault-free":
                        runs, instructions, found = run_fault_free(
                            cell, args.scale, expected, span)
                        sim_instructions += instructions
                    else:
                        runs, instructions, found = run_campaign_cell(
                            cell, args.scale, expected,
                            os.path.join(args.store_dir, f"{index}.sqlite"))
                except Exception as exc:  # recorded as a failed cell
                    traceback.print_exc()
                    record["error"] = f"{type(exc).__name__}: {exc}"
                    problems.append(f"{cell.id}: raised {record['error']}")
                else:
                    record.update(runs=runs, instructions=instructions)
                    problems.extend(found)
            seconds = time.perf_counter() - start
            kernels.append(timed_calibration())
            scale = ref_scale(kernels[-2], kernels[-1])
            record["ms"] = seconds * 1000.0
            record["ref_ms"] = seconds * 1000.0 * scale
            ref_wall += seconds * scale
            results.append(record)
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = time.perf_counter() - t0
    out = {
        "wall_s": wall,
        "ref_wall_s": ref_wall,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "cells": results,
        "problems": problems,
        "layers": None,
    }
    if tracer is not None:
        tracer.trace_id = None
        tracer.end(0, end=t0 + wall)
        after = COMPILE_STATS.as_dict()
        delta = {k: after[k] - compile_before[k]
                 for k in ("segments", "code_misses")}
        out["layers"] = layer_metrics(tracer, counts, wall, delta,
                                      sim_instructions, models, kernels)
        tracer.write_jsonl(args.trace_out, {
            "workload": args.workload, "seed": args.seed,
            "wall_s": wall})
    return out


def main(argv: Optional[List[str]] = None) -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("command", choices=("setup", "pass"))
    parser.add_argument("--workload", required=True,
                        choices=sorted(bench_cells.WORKLOADS))
    parser.add_argument("--scale", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--cache-root")
    parser.add_argument("--store-dir")
    parser.add_argument("--expected")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    result = setup(args) if args.command == "setup" else run_pass(args, t0)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

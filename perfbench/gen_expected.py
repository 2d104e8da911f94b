"""Generate the benchmark's expected values with the reference
interpreter (``engine="reference"``), never the compiled core the
benchmark measures.

For every fault-free cell: output, counter dict and simulated cycles.
For every campaign cell and every plan-seed family: outcome counts
(snap off, since checkpoints need the decoded engines), golden output
and golden instruction count.

Run from the repository root, one scale at a time::

    PYTHONPATH=src python3 perfbench/gen_expected.py --scale test
    PYTHONPATH=src python3 perfbench/gen_expected.py --scale fi
    PYTHONPATH=src python3 perfbench/gen_expected.py --scale perf

Each writes ``perfbench/expected/<scale>.json``. Builds go to a
throw-away artifact cache under ``.perfbench_tmp/``, so no user cache
is read.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def generate(scale: str, log=sys.stderr) -> dict:
    from repro.cpu.interpreter import Machine, MachineConfig
    from repro.faults.campaign import CampaignConfig, golden_profile
    from repro.lab import run_durable_campaign
    from repro.toolchain.build import Toolchain

    import cells as bench_cells

    names = [w.name for w in bench_cells.WORKLOADS.values()
             if scale in (w.scale, "test")]
    wanted = {}
    for name in names:
        for family in bench_cells.FAMILY_SEEDS:
            for cell in bench_cells.unordered_cells(name, family):
                wanted[cell.id] = cell
    toolchain = Toolchain()
    values = {}
    for cell_id, cell in sorted(wanted.items()):
        start = time.perf_counter()
        built = toolchain.build(cell.workload, scale, cell.variant)
        if cell.model is None:
            machine = Machine(built.module, MachineConfig(
                cost_model=built.spec.cost_model, engine="reference"))
            result = machine.run(built.entry, built.args)
            values[cell_id] = {
                "output": result.output,
                "counters": result.counters.as_dict(),
                "cycles": result.cycles,
            }
        else:
            outcome = run_durable_campaign(
                built.module, built.entry, built.args, cell.workload,
                cell.variant,
                CampaignConfig(injections=cell.injections,
                               seed=cell.plan_seed, fault_model=cell.model,
                               engine="reference", snap=False),
                store=False,
            )
            output, profile = golden_profile(
                built.module, built.entry, built.args, engine="reference")
            values[cell_id] = {
                "counts": {o.value: n
                           for o, n in outcome.result.counts.items()},
                "golden_output": output,
                "golden_instructions": profile.executed,
            }
        print(f"{cell_id}: {time.perf_counter() - start:.2f} s", file=log,
              flush=True)
    # JSON round trip, so the file holds exactly what runs compare with.
    return json.loads(json.dumps({"scale": scale, "engine": "reference",
                                  "cells": values}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", required=True,
                        choices=("test", "fi", "perf"))
    args = parser.parse_args()
    scratch = os.path.join(os.path.dirname(HERE), ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    private = tempfile.mkdtemp(prefix="expected-", dir=scratch)
    try:
        os.environ["REPRO_TOOLCHAIN_CACHE"] = os.path.join(private, "cache")
        os.environ["REPRO_LAB_STORE"] = os.path.join(private, "lab.sqlite")
        data = generate(args.scale)
    finally:
        shutil.rmtree(private, ignore_errors=True)
    os.makedirs(os.path.join(HERE, "expected"), exist_ok=True)
    path = os.path.join(HERE, "expected", f"{args.scale}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path} ({len(data['cells'])} cells)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``python -m repro serve`` / ``python -m repro submit``.

Examples::

    # An always-on campaign service over 2 cluster worker agents:
    python -m repro serve --port 8642 --cluster 2

    # Submit from another shell (or machine) and watch it run:
    python -m repro submit --url 127.0.0.1:8642 --tenant alice \\
        --workload histogram --version elzar --stream

    # Resubmitting the identical spec is a ~0-compute store hit:
    python -m repro submit --url 127.0.0.1:8642 --tenant alice \\
        --workload histogram --version elzar --wait

Stop the service with SIGTERM (or Ctrl-C): it stops admitting,
finishes leased shards, writes a restart manifest next to the store,
and exits cleanly.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..cpu.interpreter import ENGINES
from ..faults.models import DEFAULT_MODEL, model_names
from ..lab.store import default_store_path
from .admission import TenantQuotas
from .app import ReproService
from .client import ServiceClient, ServiceError


def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the fault-injection campaign service.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642,
                        help="listen port (0 = ephemeral)")
    parser.add_argument("--store", default=None,
                        help="result store path (default: $REPRO_LAB_STORE "
                             "or the user cache dir)")
    parser.add_argument("--cluster", type=int, default=0, metavar="N",
                        help="lease shards to N local worker agents "
                             "instead of forking per campaign")
    parser.add_argument("--lease-timeout", type=float, default=30.0)
    parser.add_argument("--max-running", type=int, default=2,
                        help="campaigns executing concurrently "
                             "(queued beyond this)")
    parser.add_argument("--max-concurrent", type=int, default=4,
                        help="per-tenant cap on unfinished campaigns")
    parser.add_argument("--max-injections", type=int, default=100_000,
                        help="per-tenant cap on one campaign's budget")
    parser.add_argument("--max-active-injections", type=int,
                        default=250_000,
                        help="per-tenant cap on summed unfinished budgets")
    parser.add_argument("--manifest", default=None,
                        help="restart manifest path "
                             "(default: <store>.manifest.json)")
    parser.add_argument("--no-resume", action="store_true",
                        help="do not resubmit the manifest's interrupted "
                             "campaigns on startup")
    return parser


def serve_main(argv: Optional[List[str]] = None) -> int:
    args = _serve_parser().parse_args(argv)
    service = ReproService(
        args.store or default_store_path(),
        host=args.host, port=args.port,
        quotas=TenantQuotas(
            max_concurrent=args.max_concurrent,
            max_injections=args.max_injections,
            max_active_injections=args.max_active_injections,
        ),
        cluster_workers=args.cluster,
        lease_timeout=args.lease_timeout,
        max_running=args.max_running,
        manifest_path=args.manifest,
        resume_manifest=not args.no_resume,
    )
    return service.serve_forever()


def _submit_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro submit",
        description="Submit a campaign to a running repro service.",
    )
    parser.add_argument("--url", default="127.0.0.1:8642",
                        metavar="HOST:PORT")
    parser.add_argument("--tenant", default=None,
                        help="tenant name (X-Repro-Tenant header)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--version", required=True,
                        help="variant registry name "
                             "(see `python -m repro variants`)")
    parser.add_argument("--fault-model", default=DEFAULT_MODEL,
                        choices=model_names())
    parser.add_argument("--engine", default="compiled",
                        choices=ENGINES)
    parser.add_argument("--scale", default="test",
                        choices=("test", "perf"))
    parser.add_argument("--injections", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--shard-size", type=int, default=None)
    parser.add_argument("--ci-target", type=float, default=None)
    parser.add_argument("--batch", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None,
                        help="forked workers (local-fabric service only)")
    parser.add_argument("--priority", type=int, default=None)
    parser.add_argument("--wait", action="store_true",
                        help="block until the campaign settles and print "
                             "its results")
    parser.add_argument("--stream", action="store_true",
                        help="stream the campaign's events (implies the "
                             "settled outcome is seen)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="with --wait/--stream: also write the final "
                             "record as JSON")
    return parser


def submit_main(argv: Optional[List[str]] = None) -> int:
    args = _submit_parser().parse_args(argv)
    host, _, port_text = args.url.rpartition(":")
    if not host or not port_text.isdigit():
        print(f"--url must be HOST:PORT, got {args.url!r}", file=sys.stderr)
        return 2
    client = ServiceClient(host, int(port_text), tenant=args.tenant)

    spec = {"workload": args.workload, "version": args.version,
            "fault_model": args.fault_model, "engine": args.engine,
            "scale": args.scale}
    for name in ("injections", "seed", "shard_size", "ci_target", "batch",
                 "workers", "priority"):
        value = getattr(args, name)
        if value is not None:
            spec[name] = value

    try:
        submitted = client.submit(spec)
    except ServiceError as exc:
        print(f"-- rejected ({exc.status}): "
              f"{json.dumps(exc.payload, sort_keys=True)}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        print(f"-- cannot reach {args.url}: {exc}", file=sys.stderr)
        return 1
    campaign_id = submitted["id"]
    print(f"-- campaign {campaign_id} ({submitted['status']})"
          + (f", coalesced with {submitted['coalesced_with']}"
             if submitted.get("coalesced_with") else ""))

    if args.stream:
        for event in client.stream_events(campaign_id):
            print(json.dumps(event, sort_keys=True))
    if not (args.wait or args.stream):
        return 0

    record = client.wait(campaign_id)
    print(f"-- {campaign_id}: {record['status']}")
    if record["status"] == "succeeded":
        result = record["result"]
        print(f"   counts: {json.dumps(result['counts'], sort_keys=True)}")
        print(f"   injections: {result['injections_used']} counted, "
              f"{result['injections_executed']} executed, "
              f"{result['injections_from_store']} from store")
    elif record.get("error"):
        print(f"   error: {json.dumps(record['error'], sort_keys=True)}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"-- wrote {args.json}")
    return 0 if record["status"] == "succeeded" else 1

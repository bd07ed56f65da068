"""The ``python -m repro`` command line: verify, batch, export-spec.

Examples::

    # Export a built-in real-world workflow as a spec file (with 6 generated
    # LTL-FO properties attached):
    python -m repro export-spec order-fulfillment -o order.spec.json --with-properties 6

    # Statically analyse a spec without verifying it (exit 1 on errors --
    # the same specs the server rejects at submit time with HTTP 422):
    python -m repro lint order.spec.json --json

    # Verify one property (or all properties) of a spec file:
    python -m repro verify order.spec.json --property always
    python -m repro verify order.spec.json --workers 4

    # Batch-verify several spec files across a worker pool:
    python -m repro batch specs/*.spec.json --workers 4 --json

    # Same, but on a remote verification server (the /v1 API):
    python -m repro batch specs/*.spec.json --remote http://127.0.0.1:8080

    # Run the verification server (HTTP JSON API over a persistent store,
    # multi-process workers by default; --worker-model thread to opt out):
    python -m repro serve --port 8080 --workers 4 --store jobs.db

    # Scale out: several servers share one store (WAL) -- one queue, shared
    # results, cross-server cancellation -- each with a unique --server-id:
    python -m repro serve --port 8080 --store shared.db --server-id a
    python -m repro serve --port 8081 --store shared.db --server-id b

    # Trace a job end to end (submit with tracing on, then render the span
    # waterfall: client submit -> HTTP handler -> queue wait -> worker ->
    # search phases with per-phase timing):
    python -m repro serve --trace --store jobs.db
    python -m repro trace 7f3a... --url http://127.0.0.1:8080
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import List, Optional, Sequence

from repro.core.options import VerifierOptions
from repro.service import BatchReport, VerificationService, jobs_from_bundle
from repro.spec import SpecError, load_spec, save_spec


def _add_option_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-property wall-clock timeout (default: none)",
    )
    parser.add_argument(
        "--max-states", type=int, default=None, metavar="N",
        help="per-property state budget (default: %s)" % VerifierOptions().max_states,
    )


def _options_from(args: argparse.Namespace) -> VerifierOptions:
    options = VerifierOptions()
    if args.timeout is not None:
        options = options.with_(timeout_seconds=args.timeout)
    if args.max_states is not None:
        options = options.with_(max_states=args.max_states)
    return options


def _exit_code_for(report: BatchReport) -> int:
    """1 if anything is violated, 2 if anything is unknown, else 0.

    An UNKNOWN outcome (timeout / state-budget hit) must not exit 0: scripts
    would read a never-completed verification as proof the properties hold.
    """
    if any(r.result.violated for r in report.job_results):
        return 1
    if any(r.result.unknown for r in report.job_results):
        return 2
    return 0


def _print_report(report: BatchReport, as_json: bool) -> None:
    if as_json:
        json.dump(report.as_dict(), sys.stdout, indent=2)
        sys.stdout.write("\n")
        return
    for job_result in report.job_results:
        result = job_result.result
        source = "cache" if job_result.cache_hit else f"{result.stats.total_seconds:.3f}s"
        print(
            f"  {job_result.job.system_name:24s} {job_result.job.property_name:40.40s} "
            f"{result.outcome.value:10s} [{source}]"
        )
        if result.violated and result.counterexample:
            services = " -> ".join(result.counterexample.services()[:8])
            print(f"      counterexample: {services}")
    hits = report.cache_hits
    outcome_text = ", ".join(f"{k}: {v}" for k, v in sorted(report.outcomes.items()))
    print(f"  {report.total} job(s), {hits} cache hit(s) -- {outcome_text}")


def _cmd_verify(args: argparse.Namespace) -> int:
    bundle = load_spec(args.spec)
    if not bundle.properties:
        print(f"error: {args.spec} contains no properties to verify", file=sys.stderr)
        return 2
    names: Optional[List[str]] = args.property or None
    try:
        jobs = jobs_from_bundle(bundle, options=_options_from(args), property_names=names)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    service = VerificationService()
    report = BatchReport(service.run_batch(jobs, workers=args.workers))
    _print_report(report, args.json)
    return _exit_code_for(report)


def _cmd_batch(args: argparse.Namespace) -> int:
    options = _options_from(args)
    jobs = []
    for path in args.specs:
        bundle = load_spec(path)
        if not bundle.properties:
            print(f"warning: {path} contains no properties, skipping", file=sys.stderr)
            continue
        jobs.extend(jobs_from_bundle(bundle, options=options))
    if not jobs:
        print("error: no verification jobs found in the given spec files", file=sys.stderr)
        return 2
    if args.remote:
        return _run_remote_batch(args, jobs)
    service = VerificationService()
    report = BatchReport(service.run_batch(jobs, workers=args.workers))
    _print_report(report, args.json)
    return _exit_code_for(report)


def _run_remote_batch(args: argparse.Namespace, jobs) -> int:
    """Run a batch on a remote ``/v1`` server via :mod:`repro.client`."""
    from repro.client import ClientError, VerifasClient
    from repro.core.stats import SearchStatistics
    from repro.core.verifier import VerificationOutcome, VerificationResult
    from repro.service import JobResult

    try:
        with VerifasClient(args.remote) as client:
            handles = [
                client.submit(
                    job.system_dict,
                    [job.property_dict],
                    # The API takes the budgets only, not the canonical dict.
                    options=asdict(job.options()),
                    label=job.label,
                    ttl_seconds=args.ttl,
                    deadline_ms=args.deadline_ms,
                )[0]
                for job in jobs
            ]
            views = client.wait_all([h.id for h in handles], deadline_seconds=args.wait)
    except (ClientError, TimeoutError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    job_results = []
    for job, handle in zip(jobs, handles):
        view = views[handle.id]
        if view.get("status") == "error":
            print(
                f"error: remote job {handle.id} ({job.describe()}) failed: "
                f"{view.get('error', 'unknown error')}",
                file=sys.stderr,
            )
            return 2
        data = view.get("result")
        if data is not None:
            result = VerificationResult.from_dict(data)
        else:
            # Cancelled before any work landed: no partial result to show.
            result = VerificationResult(
                outcome=VerificationOutcome.UNKNOWN,
                property_name=job.property_name,
                task=job.property_dict.get("task", ""),
                stats=SearchStatistics(cancelled=True),
            )
        job_results.append(JobResult(job, result, cache_hit=bool(view.get("cache_hit"))))
    report = BatchReport(job_results)
    _print_report(report, args.json)
    return _exit_code_for(report)


def _cmd_lint(args: argparse.Namespace) -> int:
    """Static analysis without verification.

    Exit codes mirror the verify contract: 0 when the spec is clean or has
    warnings only, 1 when any error-severity diagnostic fires (such a spec is
    rejected at submit time with HTTP 422), 2 when the spec cannot be loaded
    at all.
    """
    from repro.analysis import analyze

    # validate=False: a property referencing an unknown task/relation must
    # surface as VA-coded diagnostics here, not as the load-time SpecError
    # that protects every other entry point.
    bundle = load_spec(args.spec, validate=False)
    report = analyze(bundle.system, bundle.properties)
    if args.json:
        json.dump(report.as_dict(), sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 1 if report.has_errors else 0
    for diagnostic in report.diagnostics:
        print(diagnostic.render())
    errors, warnings = len(report.errors), len(report.warnings)
    print(
        f"{args.spec}: {errors} error(s), {warnings} warning(s) -- "
        f"{len(bundle.system.task_names)} task(s), {len(bundle.properties)} propert(ies)"
    )
    return 1 if report.has_errors else 0


def _cmd_export_spec(args: argparse.Namespace) -> int:
    from repro.benchmark.properties import LTL_TEMPLATES, generate_properties
    from repro.benchmark.realworld import REAL_WORKFLOW_FACTORIES

    factory = REAL_WORKFLOW_FACTORIES.get(args.workflow)
    if factory is None:
        print(
            f"error: unknown workflow {args.workflow!r}; available: "
            f"{', '.join(sorted(REAL_WORKFLOW_FACTORIES))}",
            file=sys.stderr,
        )
        return 2
    system = factory()
    properties = []
    if args.with_properties:
        count = max(1, min(args.with_properties, len(LTL_TEMPLATES)))
        properties = generate_properties(system, templates=LTL_TEMPLATES[:count])
    save_spec(system, args.output, properties=properties)
    print(
        f"wrote {args.output}: system {system.name!r} "
        f"({len(system.task_names)} tasks, {len(properties)} properties)"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import sqlite3

    from repro.server import VerificationServer

    token = None
    if args.token_file is not None:
        try:
            with open(args.token_file, encoding="utf-8") as handle:
                token = handle.read().strip()
        except OSError as error:
            print(f"error: cannot read token file: {error}", file=sys.stderr)
            return 2
    try:
        server = VerificationServer(
            store_path=args.store,
            host=args.host,
            port=args.port,
            workers=args.workers,
            default_options=_options_from(args),
            quiet=args.quiet,
            worker_model=args.worker_model,
            server_id=args.server_id,
            sweep_interval=args.sweep_interval,
            heartbeat_interval=args.heartbeat_interval,
            stale_heartbeat_seconds=args.stale_after,
            event_log_stream=sys.stderr if args.log_events else None,
            trace_enabled=True if args.trace else None,
            token=token,
        )
    except sqlite3.Error as error:
        print(f"error: cannot open job store {args.store!r}: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    identity = f" as {args.server_id!r}" if args.server_id else ""
    print(
        f"verification server{identity}: store {args.store!r},"
        f" {args.workers} worker(s)",
        flush=True,
    )
    print(f"  {server.recovery.summary()}", flush=True)
    try:
        server.start()
    except OSError as error:
        print(f"error: cannot listen on {args.host}:{args.port}: {error}", file=sys.stderr)
        server.stop()
        return 2
    if server.worker_fallback_error is not None:
        print(
            f"  warning: process workers unavailable ({server.worker_fallback_error}); "
            "running thread workers instead",
            flush=True,
        )
    print(f"  {server.worker_model} worker model", flush=True)
    print(f"  listening on {server.url} (Ctrl-C to stop)", flush=True)
    server.serve_forever()  # blocks; Ctrl-C stops gracefully
    print("shut down (queued jobs stay persisted)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json as _json

    from repro.client import ClientError, VerifasClient
    from repro.obs import render_trace

    try:
        with VerifasClient(args.url) as client:
            view = client.trace(args.job_id)
    except ClientError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(_json.dumps(view, indent=2))
        return 0
    print(render_trace(view, width=args.width))
    if not view.get("spans"):
        print(
            "hint: the server records spans only when started with tracing on"
            " (repro serve --trace, or REPRO_TRACE=1)",
            file=sys.stderr,
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="VERIFAS reproduction: verify LTL-FO properties of artifact systems.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    verify = subparsers.add_parser(
        "verify", help="verify properties of one spec file"
    )
    verify.add_argument("spec", help="path to a spec file (.json / .yaml)")
    verify.add_argument(
        "--property", action="append", metavar="NAME",
        help="verify only this property (repeatable; default: all)",
    )
    verify.add_argument("--workers", type=int, default=1, metavar="N")
    verify.add_argument("--json", action="store_true", help="machine-readable output")
    _add_option_flags(verify)
    verify.set_defaults(handler=_cmd_verify)

    batch = subparsers.add_parser(
        "batch", help="verify all properties of several spec files on a worker pool"
    )
    batch.add_argument("specs", nargs="+", help="spec files (.json / .yaml)")
    batch.add_argument("--workers", type=int, default=4, metavar="N")
    batch.add_argument("--json", action="store_true", help="machine-readable output")
    batch.add_argument(
        "--remote", metavar="URL", default=None,
        help="submit to a verification server's /v1 API instead of running locally",
    )
    batch.add_argument(
        "--ttl", type=float, default=None, metavar="SECONDS", dest="ttl",
        help="with --remote: expire the remote job records this long after they finish",
    )
    batch.add_argument(
        "--deadline-ms", type=int, default=None, metavar="MS", dest="deadline_ms",
        help="with --remote: per-job wall-clock deadline enforced by the server",
    )
    batch.add_argument(
        "--wait", type=float, default=600.0, metavar="SECONDS",
        help="with --remote: how long to wait for remote jobs (default: 600)",
    )
    _add_option_flags(batch)
    batch.set_defaults(handler=_cmd_batch)

    lint = subparsers.add_parser(
        "lint", help="statically analyse a spec file without verifying it"
    )
    lint.add_argument("spec", help="path to a spec file (.json / .yaml)")
    lint.add_argument("--json", action="store_true",
                      help="machine-readable output (diagnostics + static facts)")
    lint.set_defaults(handler=_cmd_lint)

    export = subparsers.add_parser(
        "export-spec", help="export a built-in real-world workflow as a spec file"
    )
    export.add_argument("workflow", help="workflow name, e.g. order-fulfillment")
    export.add_argument("-o", "--output", required=True, help="output path (.json / .yaml)")
    export.add_argument(
        "--with-properties", type=int, default=0, metavar="N",
        help="attach N generated LTL-FO template properties (default: 0)",
    )
    export.set_defaults(handler=_cmd_export_spec)

    serve = subparsers.add_parser(
        "serve", help="run the verification server (HTTP JSON API, persistent store)"
    )
    serve.add_argument("--host", default="127.0.0.1", metavar="ADDR")
    serve.add_argument("--port", type=int, default=8080, metavar="PORT",
                       help="listen port (0 picks a free port; default: 8080)")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="verification workers (default: 2)")
    serve.add_argument(
        "--worker-model", choices=("thread", "process"), default="process",
        help="what runs each worker's searches -- process: an OS process, so"
             " CPU-bound searches run truly in parallel; thread: a thread sharing the"
             " GIL.  Both share the claim, cancel and crash-requeue rules."
             "  process degrades to thread automatically in sandboxes that cannot"
             " spawn (default: process)",
    )
    serve.add_argument("--store", default="repro-jobs.db", metavar="PATH",
                       help="SQLite job/result store (default: repro-jobs.db)")
    serve.add_argument(
        "--server-id", default=None, metavar="ID", dest="server_id",
        help="unique identity of this server in a shared-store deployment: several"
             " `serve` processes may point at the same --store (it runs in WAL mode)"
             " and share one queue, provided each gets a DISTINCT id.  Worker claims"
             " are attributed to the id, startup recovery requeues only this server's"
             " own previous claims, and cancellations propagate between servers"
             " (default: none -- single-server mode)",
    )
    serve.add_argument(
        "--sweep-interval", type=float, default=2.0, metavar="SECONDS",
        help="how often the sweeper expires TTL'd jobs and rescues stale claims"
             " (default: 2.0)",
    )
    serve.add_argument(
        "--heartbeat-interval", type=float, default=1.0, metavar="SECONDS",
        help="how often workers refresh their claims' liveness stamps (default: 1.0)",
    )
    serve.add_argument(
        "--stale-after", type=float, default=15.0, metavar="SECONDS", dest="stale_after",
        help="heartbeat age past which a running job's owner is presumed dead and the"
             " job is requeued -- must comfortably exceed --heartbeat-interval and"
             " --sweep-interval (default: 15.0)",
    )
    serve.add_argument(
        "--log-events", action="store_true", dest="log_events",
        help="write one line per server event (job lifecycle, worker crashes,"
             " sweeps) to stderr via the event bus's log sink",
    )
    serve.add_argument(
        "--token-file", default=None, metavar="PATH", dest="token_file",
        help="require `Authorization: Bearer <token>` on every job route, the"
             " token being this file's content (surrounding whitespace"
             " stripped); probes and /v1/metrics stay open.  Use it when the"
             " server listens beyond localhost (default: no token)",
    )
    serve.add_argument(
        "--trace", action="store_true", dest="trace",
        help="record distributed-trace spans for every job (client submit, HTTP"
             " handler, queue wait, worker execution, search phases); view them"
             " with `repro trace <job-id>`.  Equivalent to REPRO_TRACE=1",
    )
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-request access logging")
    _add_option_flags(serve)
    serve.set_defaults(handler=_cmd_serve)

    trace = subparsers.add_parser(
        "trace",
        help="render the span waterfall of a job run on a --trace server",
    )
    trace.add_argument("job_id", metavar="JOB-ID")
    trace.add_argument("--url", default="http://127.0.0.1:8080", metavar="URL",
                       help="server base URL (default: http://127.0.0.1:8080)")
    trace.add_argument("--json", action="store_true",
                       help="print the raw trace view as JSON instead of the waterfall")
    trace.add_argument("--width", type=int, default=100, metavar="COLS",
                       help="waterfall width in columns (default: 100)")
    trace.set_defaults(handler=_cmd_trace)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.has.artifact_system import SpecificationError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (SpecError, SpecificationError) as error:
        # SpecificationError: a spec file that parses but describes an
        # invalid HAS* system (load_system re-runs full model validation).
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

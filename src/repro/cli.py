"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiment <name>``
    Reproduce one of the paper's tables/figures (fig2a, fig2b, table2,
    fig7, table3, fig8, fig9) and print it.
``simulate``
    Run one dataset through the cycle-level architecture and report
    throughput, plans and correctness.
``generate``
    Print the Eq. 1-tuned implementation set for an application
    (labels, resources, fmax, distinct-data capacity).
``select``
    Sample a dataset with the skew analyzer (Eq. 2) and show which
    implementation Ditto would pick.
``codegen``
    Emit the OpenCL source set for one implementation to a directory.
``serve``
    Run the stream-serving demo: a K-worker pipeline fleet behind the
    skew-aware balancer processing a multi-tenant job mix.
``submit``
    One-shot job submission: run a single stream job through the service
    and print its result and the fleet metrics.  With ``--connect
    HOST:PORT`` the job is streamed to a running gateway over TCP
    instead of an in-process fleet.
``ingest``
    Run the TCP ingestion gateway in front of a serving fleet: clients
    connect with the newline-delimited JSON protocol (``repro submit
    --connect``, or :class:`repro.net.StreamClient`) and stream batches
    under credit-based backpressure.
``trace``
    Analyze a JSONL trace captured with ``--trace FILE``: tail events,
    filter by tenant or kind, and print the per-tenant stage-latency
    breakdown (queue / dispatch / execute / merge) plus the control
    plane's decision audit log.
``stats``
    Fetch a running gateway's telemetry snapshot over TCP, as the raw
    JSON snapshot or the Prometheus text exposition.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
from typing import List, Optional

import numpy as np

#: Seconds ``ingest --serve-jobs N`` lets open connections finish on
#: their own after the N-th job turned terminal, before cutting them.
SERVE_JOBS_GRACE = 5.0

APP_SPECS = {
    "histo": "histogram_spec",
    "dp": "partition_spec",
    "hll": "hyperloglog_spec",
    "hhd": "heavy_hitter_spec",
}


def _spec_for(app: str):
    from repro.ditto import spec as spec_module

    if app not in APP_SPECS:
        raise SystemExit(
            f"unknown app {app!r}; choose from {sorted(APP_SPECS)} "
            "(pagerank is driven via examples/pagerank_graphs.py)"
        )
    return getattr(spec_module, APP_SPECS[app])()


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run one registered experiment and print its rendering."""
    from repro.experiments import EXPERIMENTS, run_experiment

    if args.name == "list":
        print("\n".join(sorted(EXPERIMENTS)))
        return 0
    try:
        print(run_experiment(args.name))
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Cycle-level simulation of one Zipf dataset."""
    from repro.core.architecture import SkewObliviousArchitecture
    from repro.core.config import ArchitectureConfig
    from repro.workloads.zipf import ZipfGenerator

    spec = _spec_for(args.app)
    kernel = spec.kernel_factory(args.pripes)
    config = ArchitectureConfig(
        pripes=args.pripes,
        secpes=args.secpes,
        reschedule_threshold=args.reschedule_threshold,
    )
    batch = ZipfGenerator(alpha=args.alpha, seed=args.seed).generate(
        args.tuples)
    architecture = SkewObliviousArchitecture(config, kernel)
    outcome = architecture.run(batch, max_cycles=args.max_cycles)

    print(f"app            : {spec.name}")
    print(f"implementation : {config.label}")
    print(f"dataset        : Zipf(alpha={args.alpha}), "
          f"{args.tuples:,} tuples (seed {args.seed})")
    print(f"cycles         : {outcome.cycles:,}")
    print(f"tuples/cycle   : {outcome.tuples_per_cycle:.3f}")
    print(f"MT/s @200MHz   : {outcome.throughput_mtps(200.0):.0f}")
    print(f"plans          : {len(outcome.plans)}  "
          f"reschedules: {outcome.reschedules}")
    if args.verify:
        golden = kernel.golden(batch.keys, batch.values)
        matches = _results_match(outcome.result, golden)
        print(f"verified       : {'OK' if matches else 'MISMATCH'}")
        return 0 if matches else 1
    return 0


def _results_match(ours, golden) -> bool:
    if isinstance(ours, np.ndarray):
        return bool(np.array_equal(ours, golden))
    if isinstance(ours, dict):
        if set(ours) != set(golden):
            return False
        return all(sorted(ours[k]) == sorted(golden[k]) for k in golden)
    return ours == golden


def cmd_generate(args: argparse.Namespace) -> int:
    """Print the generated implementation set (Fig. 6, step 1)."""
    from repro.analysis.tables import Table
    from repro.ditto.generator import SystemGenerator

    spec = _spec_for(args.app)
    # Structural estimates throughout: mixing the paper's seven measured
    # builds into a full 0..M-1 listing would look non-monotone.
    implementations = SystemGenerator(use_measured_builds=False).generate(
        spec)
    table = Table(
        ["impl", "RAM (M20K)", "logic (ALM)", "DSP", "fmax (MHz)",
         "distinct capacity"],
        title=f"Generated implementation set for {spec.name} "
              f"(Eq. 1: N={implementations[0].config.lanes}, "
              f"M={implementations[0].config.pripes}; "
              "structural estimates)",
    )
    for impl in implementations:
        table.add_row([
            impl.label,
            impl.resources.ram_blocks,
            impl.resources.logic_alms,
            impl.resources.dsp_blocks,
            f"{impl.frequency_mhz:.0f}",
            f"{impl.distinct_capacity_fraction:.0%}",
        ])
    print(table.render())
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    """Sample a dataset and show the Eq. 2 selection."""
    from repro.ditto.framework import DittoFramework
    from repro.workloads.zipf import ZipfGenerator

    spec = _spec_for(args.app)
    framework = DittoFramework(spec)
    batch = ZipfGenerator(alpha=args.alpha, seed=args.seed).generate(
        args.tuples)
    run = framework.choose_offline(batch)
    report = run.skew_report
    print(f"sampled        : {report.sample_size:,} of "
          f"{args.tuples:,} tuples")
    print(f"max PE share   : {report.max_share:.3f}")
    print(f"required SecPEs: {report.required_secpes} (Eq. 2)")
    print(f"selected       : {run.implementation.label} "
          f"({run.implementation.resources.ram_blocks} M20K, "
          f"{run.implementation.frequency_mhz:.0f} MHz)")
    return 0


def cmd_codegen(args: argparse.Namespace) -> int:
    """Write the OpenCL source set for one implementation."""
    from repro.core.config import ArchitectureConfig
    from repro.ditto.codegen import OpenCLGenerator

    spec = _spec_for(args.app)
    config = ArchitectureConfig(secpes=args.secpes)
    source = OpenCLGenerator.from_spec(spec).generate(spec, config)
    out_dir = pathlib.Path(args.output) / source.label
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in source.files.items():
        (out_dir / name).write_text(text)
    print(f"wrote {len(source.files)} files "
          f"({source.kernel_count} kernels) to {out_dir}")
    return 0


def _service_for(args: argparse.Namespace):
    from repro.service import StreamService, TenantSpec

    if args.slo is not None and not args.adaptive:
        raise SystemExit("--slo requires --adaptive")
    if args.adaptive and args.balancer != "skew":
        raise SystemExit("--adaptive requires the skew balancer")
    if args.tenant is None and (args.weight != 1.0
                                or args.tenant_slo is not None):
        raise SystemExit("--weight/--tenant-slo require --tenant")
    tracer = None
    if getattr(args, "trace", None):
        from repro.obs import JsonlSink, TraceCollector

        tracer = TraceCollector(enabled=True)
        tracer.add_sink(JsonlSink(args.trace))
    service = StreamService(workers=args.workers, balancer=args.balancer,
                            backend=args.backend,
                            adaptive=args.adaptive, slo=args.slo,
                            reschedule_cost_cycles=args.reschedule_cost,
                            retained_jobs=args.retain_jobs,
                            tracer=tracer)
    if args.tenant is not None:
        service.register_tenant(TenantSpec(
            args.tenant, weight=args.weight,
            slo_delay_tuples=args.tenant_slo))
    return service


def _finish_trace(service, args: argparse.Namespace) -> None:
    """Flush and report the ``--trace`` capture file, if one was set."""
    if not getattr(args, "trace", None):
        return
    service.tracer.close()
    print(f"trace: wrote {service.tracer.emitted} events to {args.trace}")


def _zipf_source(app: str, alpha: float, tuples: int, seed: int,
                 chunk: int = 4000, vertices: int = 4096):
    """A line-rate chunked Zipf source (edge stream for pagerank)."""
    from repro.workloads.streams import chunk_stream
    from repro.workloads.tuples import TupleBatch
    from repro.workloads.zipf import ZipfGenerator

    batch = ZipfGenerator(alpha=alpha, seed=seed).generate(tuples)
    if app == "pagerank":
        rng = np.random.default_rng(seed)
        batch = TupleBatch(
            keys=batch.keys % np.uint64(vertices),
            values=rng.integers(0, vertices, size=tuples, dtype=np.int64),
        )
    return chunk_stream(batch, chunk)


def _summarize_job(service, job_id: str) -> None:
    status = service.poll(job_id)
    tenant = (f"tenant={status['tenant']:<12} "
              if status["tenant"] != "default" else "")
    print(f"job {job_id:<12} {tenant}app={status['app']:<8} "
          f"status={status['status']:<9} "
          f"segments={status['segments_done']}", end="")
    if status["status"] == "completed":
        result = service.result(job_id)
        print(f" tuples={result.tuples:,} "
              f"t/c={result.tuples_per_cycle:.3f}")
    else:
        print(f" error={status['error']}")


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the serving fleet over a demo job mix (or one histo feed)."""
    service = _service_for(args)
    window = args.window_us * 1e-6
    if args.demo:
        # A multi-tenant mix: an interactive tenant (weight 3) and a
        # batch tenant (weight 1) share the fleet by weighted fair
        # queueing; priorities/deadlines order each tenant's own jobs
        # and apps exercise every streaming kernel.
        from repro.service import TenantSpec

        service.register_tenant(TenantSpec("interactive", weight=3.0))
        service.register_tenant(TenantSpec("batch", weight=1.0))
        jobs = [
            service.submit("hll", _zipf_source("hll", 0.8, args.tuples,
                                               args.seed + 1),
                           priority=5, window_seconds=window,
                           tenant_id="interactive"),
            service.submit("histo", _zipf_source("histo", args.alpha,
                                                 args.tuples, args.seed),
                           priority=1, deadline=2e-3,
                           window_seconds=window,
                           tenant_id="interactive"),
            service.submit("hhd", _zipf_source("hhd", 2.0, args.tuples,
                                               args.seed + 2),
                           priority=1, deadline=1e-3,
                           window_seconds=window, tenant_id="batch"),
            service.submit("dp", _zipf_source("dp", args.alpha,
                                              args.tuples, args.seed + 3),
                           window_seconds=window, tenant_id="batch"),
        ]
    else:
        jobs = [
            service.submit("histo", _zipf_source("histo", args.alpha,
                                                 args.tuples, args.seed),
                           window_seconds=window),
        ]
    served = service.run()
    print(f"served {served} jobs on {service.balancer.workers} workers "
          f"[{service.balancer.describe()}, {args.backend} backend]")
    print(f"  {service.controller.describe()}")
    print()
    for job_id in jobs:
        _summarize_job(service, job_id)
    print()
    print(service.metrics.render())
    failed = any(service.poll(job_id)["status"] != "completed"
                 for job_id in jobs)
    service.shutdown()
    _finish_trace(service, args)
    return 1 if failed else 0


def cmd_ingest(args: argparse.Namespace) -> int:
    """Serve jobs arriving over TCP until interrupted (or a job count)."""
    import time

    from repro.net import StreamGateway

    service = _service_for(args)
    if args.retain_jobs is None:
        # A network service is long-lived: never default to unbounded
        # job retention here (in-process runs keep the historical
        # keep-everything default).
        service.retained_jobs = 1024
    gateway = StreamGateway(
        service, host=args.host, port=args.port,
        high_water=None if args.no_backpressure else args.high_water)
    gateway.start()
    print(f"{gateway.describe()} — {args.workers} workers, "
          f"{args.backend} backend", flush=True)
    if args.ready_file:
        # Written beside it, then renamed into place: a reader that
        # sees the file sees its whole contents.
        ready = pathlib.Path(args.ready_file)
        partial = ready.with_name(ready.name + ".partial")
        partial.write_text(f"{gateway.host} {gateway.port}\n")
        os.replace(partial, ready)
    failed = False
    grace = 0.0
    try:
        while True:
            time.sleep(0.05)
            if gateway.dispatch_error is not None:
                print(f"dispatcher died: {gateway.dispatch_error}",
                      file=sys.stderr)
                failed = True
                break
            jobs = service.metrics.snapshot()["jobs"]
            done = jobs["completed"] + jobs["failed"] + jobs["cancelled"]
            if args.serve_jobs is not None and done >= args.serve_jobs:
                # The N-th job is terminal, but its client may not have
                # asked for (or been sent) the result yet: let the open
                # connections finish before cutting them.
                grace = SERVE_JOBS_GRACE
                break
    except KeyboardInterrupt:
        pass
    gateway.stop(grace=grace)
    print()
    print(service.metrics.render())
    service.shutdown()
    _finish_trace(service, args)
    return 1 if failed else 0


def _submit_over_wire(args: argparse.Namespace, params) -> int:
    """The ``submit --connect`` path: stream the job to a gateway."""
    from repro.net import StreamClient

    host, port = _parse_connect(args.connect)
    source = _zipf_source(args.app, args.alpha, args.tuples, args.seed,
                          vertices=args.vertices)
    with StreamClient(host, port,
                      tenant=args.tenant or "default") as client:
        job_id = client.submit_stream(
            args.app, source,
            priority=args.priority,
            deadline=args.deadline,
            window_seconds=args.window_us * 1e-6,
            params=params,
        )
        result = client.result(job_id)
    print(f"job {job_id:<12} app={args.app:<8} status=completed "
          f"segments={result.segments} tuples={result.tuples:,} "
          f"t/c={result.tuples_per_cycle:.3f} "
          f"(over the wire via {args.connect}, "
          f"{client.credit_stalls} credit stalls)")
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit one job, serve it, and print the outcome."""
    params = {"num_vertices": args.vertices} if args.app == "pagerank" \
        else None
    if args.connect is not None:
        return _submit_over_wire(args, params)
    service = _service_for(args)
    job_id = service.submit(
        args.app,
        _zipf_source(args.app, args.alpha, args.tuples, args.seed,
                     vertices=args.vertices),
        priority=args.priority,
        deadline=args.deadline,
        window_seconds=args.window_us * 1e-6,
        params=params,
        tenant_id=args.tenant,
    )
    service.run()
    _summarize_job(service, job_id)
    print()
    print(service.metrics.render())
    failed = service.poll(job_id)["status"] != "completed"
    service.shutdown()
    _finish_trace(service, args)
    return 1 if failed else 0


def _parse_connect(text: str):
    host, _, port_text = text.rpartition(":")
    if not host or not port_text.isdigit():
        raise SystemExit(f"--connect expects HOST:PORT, got {text!r}")
    return host, int(port_text)


def cmd_trace(args: argparse.Namespace) -> int:
    """Analyze a JSONL trace capture (tail, breakdown, decisions)."""
    from repro.obs import (
        decision_log,
        read_jsonl,
        render_breakdown,
        stage_breakdown,
    )

    try:
        events = read_jsonl(args.file)
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    if args.kind:
        prefix = args.kind if args.kind.endswith(".") else None
        events = [e for e in events
                  if (e.kind.startswith(prefix) if prefix
                      else e.kind == args.kind)]
    if args.tenant:
        events = [e for e in events
                  if e.tenant_id in (None, args.tenant)]
    print(f"{len(events)} events from {args.file}")
    if args.tail:
        print()
        for event in events[-args.tail:]:
            print(event.to_json())
    breakdown = stage_breakdown(events, tenant_id=args.tenant)
    if breakdown:
        print()
        print(render_breakdown(breakdown))
    if args.decisions:
        decisions = decision_log(events)
        print()
        print(f"control decisions ({len(decisions)}):")
        for entry in decisions:
            detail = " ".join(
                f"{key}={value}" for key, value in entry.items()
                if key not in ("kind", "clock", "tenant_id")
                and value is not None)
            tenant = f" tenant={entry['tenant_id']}" \
                if entry["tenant_id"] else ""
            print(f"  @{entry['clock']:<10} {entry['kind']:<16}"
                  f"{tenant} {detail}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Fetch a running gateway's telemetry snapshot over TCP."""
    import json

    from repro.net import StreamClient

    host, port = _parse_connect(args.connect)
    with StreamClient(host, port, tenant=args.tenant or "default") \
            as client:
        payload = client.stats(format=args.format)
    if args.format == "prometheus":
        print(payload, end="")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the project-invariant static analysis over source paths."""
    import json

    from repro.lint import RULES_BY_NAME, run_lint

    for name in args.rule or ():
        if name not in RULES_BY_NAME:
            known = ", ".join(sorted(RULES_BY_NAME))
            print(f"unknown rule {name!r} (known: {known})",
                  file=sys.stderr)
            return 2
    report = run_lint(args.paths, rule_names=args.rule or None)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            print(finding.render())
        summary = (f"{len(report.findings)} finding(s) in "
                   f"{report.files} file(s)")
        if report.suppressed:
            summary += f", {len(report.suppressed)} suppressed by pragma"
        print(summary)
    return 1 if report.findings else 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for the tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ditto (DAC 2021) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("experiment",
                       help="reproduce one paper table/figure")
    p.add_argument("name", help="fig2a|fig2b|table2|fig7|table3|fig8|"
                                "fig9|list")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("simulate", help="cycle-level simulation")
    p.add_argument("--app", default="histo", choices=sorted(APP_SPECS))
    p.add_argument("--alpha", type=float, default=1.5)
    p.add_argument("--tuples", type=int, default=20_000)
    p.add_argument("--pripes", type=int, default=16)
    p.add_argument("--secpes", type=int, default=0)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--max-cycles", type=int, default=10_000_000)
    p.add_argument("--reschedule-threshold", type=float, default=0.0)
    p.add_argument("--verify", action="store_true",
                   help="check against the golden reference")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("generate", help="print the implementation set")
    p.add_argument("--app", default="histo", choices=sorted(APP_SPECS))
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("select", help="skew-analyze and select")
    p.add_argument("--app", default="histo", choices=sorted(APP_SPECS))
    p.add_argument("--alpha", type=float, default=1.5)
    p.add_argument("--tuples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("codegen", help="emit OpenCL sources")
    p.add_argument("--app", default="histo", choices=sorted(APP_SPECS))
    p.add_argument("--secpes", type=int, default=4)
    p.add_argument("--output", default="generated")
    p.set_defaults(func=cmd_codegen)

    def positive(kind):
        def parse(text: str):
            value = kind(text)
            if value <= 0:
                raise argparse.ArgumentTypeError(
                    f"must be a positive {kind.__name__}")
            return value
        return parse

    def non_negative(kind):
        def parse(text: str):
            value = kind(text)
            if value < 0:
                raise argparse.ArgumentTypeError(
                    f"must be a non-negative {kind.__name__}")
            return value
        return parse

    def add_service_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=positive(int), default=4,
                       help="pipeline fleet size K")
        p.add_argument("--balancer", default="skew",
                       choices=["skew", "roundrobin"])
        p.add_argument("--alpha", type=float, default=1.5)
        p.add_argument("--tuples", type=positive(int), default=16_000)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--window-us", type=positive(float), default=2.56,
                       help="event-time window width in microseconds")
        p.add_argument("--backend", default="inline",
                       choices=["inline", "process"],
                       help="execution backend: shards run inline on "
                            "the dispatcher thread (deterministic "
                            "default) or on at most cores-1 warm "
                            "children, one per spare CPU, fed whole "
                            "windows, several per shared-memory block, "
                            "which they split (multi-core wall time; "
                            "identical results)")
        p.add_argument("--adaptive", action="store_true",
                       help="enable the adaptive control plane: drift "
                            "detection, cost-aware replanning, and "
                            "(with --slo) autoscaling")
        p.add_argument("--slo", type=positive(float), default=None,
                       help="cycles-per-tuple SLO for elastic worker-"
                            "pool sizing (requires --adaptive)")
        p.add_argument("--reschedule-cost", type=non_negative(int),
                       default=None,
                       help="fleet-wide stall in simulated cycles "
                            "charged per plan change (0 = free; "
                            "default: free, or derived from the config "
                            "when --adaptive)")
        p.add_argument("--tenant", default=None,
                       help="tenant to register and submit under "
                            "(default: the built-in default tenant)")
        p.add_argument("--weight", type=positive(float), default=1.0,
                       help="fair-share weight of --tenant")
        p.add_argument("--tenant-slo", type=non_negative(int),
                       default=None,
                       help="queue-delay SLO of --tenant, in dispatched "
                            "tuples (per-tenant attainment is reported "
                            "and steers the autoscaler)")
        p.add_argument("--retain-jobs", type=positive(int), default=None,
                       help="bounded retention of finished jobs "
                            "(default: keep all in-process; the ingest "
                            "gateway defaults to 1024)")
        p.add_argument("--trace", default=None, metavar="FILE",
                       help="capture a structured JSONL trace of the "
                            "run (job lifecycle, control decisions, "
                            "gateway and backend events) for `repro "
                            "trace` analysis")

    p = sub.add_parser("serve", help="run the stream-serving fleet")
    add_service_options(p)
    p.add_argument("--demo", action="store_true",
                   help="serve a multi-tenant mix across the apps")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("submit", help="one-shot job through the service")
    add_service_options(p)
    p.add_argument("--app", default="histo",
                   choices=["histo", "dp", "hll", "hhd", "pagerank"])
    p.add_argument("--priority", type=int, default=0)
    p.add_argument("--deadline", type=float, default=None,
                   help="event-time deadline in seconds (EDF tiebreak)")
    p.add_argument("--vertices", type=int, default=4096,
                   help="graph size for pagerank jobs")
    p.add_argument("--connect", default=None, metavar="HOST:PORT",
                   help="stream the job to a running `repro ingest` "
                        "gateway over TCP instead of an in-process "
                        "fleet (service options are the gateway's)")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("ingest",
                       help="serve jobs over the TCP ingestion gateway")
    add_service_options(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=non_negative(int), default=0,
                   help="listen port (0 binds an ephemeral port, "
                        "printed on startup)")
    p.add_argument("--high-water", type=positive(int), default=64,
                   help="per-tenant buffered-batch cap before the "
                        "gateway withholds credits and sheds")
    p.add_argument("--no-backpressure", action="store_true",
                   help="disable the high-water mark (unlimited "
                        "credits; the benchmark's unbounded baseline)")
    p.add_argument("--serve-jobs", type=positive(int), default=None,
                   help="exit after this many jobs reach a terminal "
                        "state (default: serve until Ctrl-C)")
    p.add_argument("--ready-file", default=None,
                   help="write 'HOST PORT' here once listening "
                        "(for scripts and tests)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("trace",
                       help="analyze a captured JSONL trace")
    p.add_argument("file", help="JSONL capture from --trace FILE")
    p.add_argument("--tenant", default=None,
                   help="restrict the breakdown (and tail) to one "
                        "tenant's jobs")
    p.add_argument("--kind", default=None,
                   help="event-kind filter: a full name (job.segment) "
                        "or a layer prefix (control.)")
    p.add_argument("--tail", type=positive(int), default=None,
                   metavar="N", help="print the last N matching events "
                                     "as raw JSON")
    p.add_argument("--decisions", action="store_true",
                   help="print the control plane's decision audit log")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("stats",
                       help="fetch telemetry from a running gateway")
    p.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="address of a running `repro ingest` gateway")
    p.add_argument("--format", default="json",
                   choices=["json", "prometheus"],
                   help="raw snapshot JSON or the Prometheus text "
                        "exposition")
    p.add_argument("--tenant", default=None,
                   help="tenant to authenticate as")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("lint",
                       help="project-invariant static analysis")
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to lint (default: src)")
    p.add_argument("--format", default="text",
                   choices=["text", "json"],
                   help="human-readable findings or a JSON report")
    p.add_argument("--rule", action="append", default=None,
                   metavar="NAME",
                   help="run only this rule (repeatable): guarded-by, "
                        "lock-order, determinism, hot-path, "
                        "trace-schema")
    p.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""Command-line interface: ``python -m repro <command>``.

Commands
--------
stats      Parse + elaborate a design and print RTL graph statistics.
lint       Run the static-analysis rule pack (comb loops, multiple
           drivers, width truncation, batch hazards, ...) and report
           structured diagnostics; ``--fail-on`` gates the exit code.
verify     Translation-validation verifier: re-derive the IR invariants
           of every lowering boundary, re-prove the fused emitter's
           rewrites through the known-bits engine, and detect task-graph
           scheduling hazards.  ``--selftest`` runs the mutation harness;
           ``repro run/campaign --verify`` adds the runtime sanitizer.
transpile  Emit the generated batch-kernel module (and optionally the
           Verilator-style scalar module) to files.
simulate   Run a batch simulation from stimulus files (or random stimulus)
           and print final outputs / write a VCD for one lane.
run        Run a bundled design under the resilience harness: per-lane
           fault isolation, durable checkpoint/resume
           (``--checkpoint-dir``/``--resume``), and deterministic fault
           injection (``--inject-lane-fault``, ``--inject-checkpoint-failure``).
campaign   Run a bundled design as a sharded multi-process campaign:
           lane shards on a pool of worker processes with heartbeats,
           crash recovery from per-shard checkpoints
           (``--workers``/``--shard-lanes``/``--checkpoint-dir``) and
           merged outputs/coverage/faults/telemetry.  Rerunning a
           campaign on the same ``--checkpoint-dir`` or ``--store``
           adopts every shard it already finished.
coverage   Run random stimulus and report toggle coverage.
profile    Run a bundled design under full telemetry and export a
           Chrome-trace JSON (loads in ui.perfetto.dev) plus a metrics
           JSON (per-task kernel times, pool bytes, MCMC statistics).
serve      Run the long-running campaign service: HTTP/JSON job queue,
           multi-tenant fair scheduling at shard granularity, and a
           content-addressed result store (identical shards are never
           re-simulated).  ``submit``/``jobs``/``result``/``cancel``
           are the matching client commands.
submit     Submit a campaign to a running service (``--wait`` blocks
           until it finishes and prints the merged-output digest).
jobs       List a service's jobs and their progress.
result     Fetch a finished job's merged outputs, digest and cache
           metrics.
cancel     Cancel a queued/running job (releases its queue slots).
designs    List the bundled benchmark designs.

``simulate`` and ``coverage`` also accept ``--trace-json PATH`` /
``--metrics-json PATH`` to capture telemetry of a normal run.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


from repro import RTLFlow, obs
from repro.analysis.metrics import code_metrics
from repro.analysis.report import format_table
from repro.core.simulator import DEFAULT_EXECUTOR, EXECUTOR_KINDS
from repro.coverage.collector import CoverageCollector
from repro.stimulus.batch import StimulusBatch
from repro.utils.errors import ReproError


def _load_flow(args) -> RTLFlow:
    return RTLFlow.from_files(args.sources, args.top)


#: ``--executor`` choices: every kind but ``sanitize``, which is reached
#: through ``--verify``.
EXECUTOR_CHOICES = tuple(k for k in EXECUTOR_KINDS if k != "sanitize")


def cmd_stats(args) -> int:
    if args.design:
        from repro.designs import get_design

        bundle = get_design(args.design)
        flow = RTLFlow.from_source(bundle.source, bundle.top)
        args.top = bundle.top
    elif args.sources and args.top:
        flow = _load_flow(args)
    else:
        raise ReproError("pass Verilog source files with --top, or --design")
    stats = flow.graph.stats()
    tg = flow.taskgraph()
    if args.json:
        import json

        # The size of the fused programs the product engine replays
        # (statements, temporaries, rolled-up runs, ...): CI asserts
        # these counts instead of regex-ing generated source.
        print(json.dumps(
            {"top": args.top, "graph": stats, "taskgraph": tg.stats(),
             "fused": flow.compile().fused().stats},
            indent=2, sort_keys=True, default=float,
        ))
        return 0
    rows = [[k, v] for k, v in stats.items()]
    print(format_table(["metric", "value"], rows,
                       title=f"RTL graph statistics: {args.top}"))
    print()
    print(format_table(
        ["metric", "value"],
        [[k, round(v, 2) if isinstance(v, float) else v]
         for k, v in tg.stats().items()],
        title="default task graph",
    ))
    return 0


def cmd_lint(args) -> int:
    from repro.lint import Severity, lint_source

    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        from repro.lint import RULES

        unknown = sorted(set(rules) - set(RULES))
        if unknown:
            raise ReproError(
                f"unknown lint rule(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(RULES))})"
            )

    jobs = []  # (filename, text, top)
    if args.design:
        from repro.designs import get_design, list_designs

        names = list_designs() if "all" in args.design else args.design
        for name in names:
            bundle = get_design(name)
            jobs.append((f"<design:{name}>", bundle.source, bundle.top))
    if args.sources:
        if not args.top:
            raise ReproError("--top is required when linting source files")
        texts = []
        for path in args.sources:
            with open(path, "r", encoding="utf-8") as fh:
                texts.append(fh.read())
        filename = args.sources[0] if len(args.sources) == 1 else "<input>"
        jobs.append((filename, "\n".join(texts), args.top))
    if not jobs:
        raise ReproError("nothing to lint: pass source files or --design")

    reports = [
        lint_source(text, top, filename=fname, rules=rules)
        for fname, text, top in jobs
    ]

    if args.json:
        import json

        payload = [r.to_dict() for r in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload,
                         indent=2, sort_keys=True))
    else:
        for i, report in enumerate(reports):
            if i:
                print()
            print(report.format_text())

    if args.fail_on == "never":
        return 0
    threshold = Severity.parse(args.fail_on)
    return 1 if any(r.at_least(threshold) for r in reports) else 0


def cmd_verify(args) -> int:
    from repro.lint import Severity
    from repro.verify import VERIFY_RULE_IDS, verify_source

    if args.selftest:
        from repro.verify.mutate import MUTATIONS, verify_selftest

        rows = verify_selftest()
        missed = [r for r in rows if not r["flagged"]]
        if args.json:
            import json

            print(json.dumps(rows, indent=2, sort_keys=True))
        else:
            table = [[r["mutation"], r["area"],
                      "flagged" if r["flagged"] else "MISSED",
                      ", ".join(r["rules"])] for r in rows]
            print(format_table(
                ["mutation", "area", "result", "rules fired"], table,
                title=f"verifier mutation self-test "
                      f"({len(MUTATIONS)} corruptions)",
            ))
            print(f"{len(rows) - len(missed)}/{len(rows)} mutations flagged")
        return 1 if missed else 0

    rules = list(VERIFY_RULE_IDS)
    if args.rules:
        from repro.lint import RULES

        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = sorted(set(rules) - set(RULES))
        if unknown:
            raise ReproError(
                f"unknown rule(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(RULES))})"
            )

    jobs = []  # (filename, text, top)
    if args.design:
        from repro.designs import get_design, list_designs

        names = list_designs() if "all" in args.design else args.design
        for name in names:
            bundle = get_design(name)
            jobs.append((f"<design:{name}>", bundle.source, bundle.top))
    if args.sources:
        if not args.top:
            raise ReproError("--top is required when verifying source files")
        texts = []
        for path in args.sources:
            with open(path, "r", encoding="utf-8") as fh:
                texts.append(fh.read())
        filename = args.sources[0] if len(args.sources) == 1 else "<input>"
        jobs.append((filename, "\n".join(texts), args.top))
    if not jobs:
        raise ReproError("nothing to verify: pass source files or --design")

    reports = [
        verify_source(text, top, filename=fname, rules=rules,
                      target_weight=args.target_weight)
        for fname, text, top in jobs
    ]

    if args.json:
        import json

        payload = [r.to_dict() for r in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload,
                         indent=2, sort_keys=True))
    else:
        for i, report in enumerate(reports):
            if i:
                print()
            print(report.format_text())

    if args.fail_on == "never":
        return 0
    threshold = Severity.parse(args.fail_on)
    return 1 if any(r.at_least(threshold) for r in reports) else 0


def cmd_transpile(args) -> int:
    flow = _load_flow(args)
    model = flow.compile(target_weight=args.target_weight)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(model.source)
    m = code_metrics(model.source, model.transpile_seconds)
    print(f"wrote {args.output}: {m.loc} LOC, {m.tokens} tokens, "
          f"{len(model.task_fns)} kernels, "
          f"transpiled in {model.transpile_seconds * 1000:.0f} ms")
    if args.scalar_output:
        from repro.baselines.scalargen import generate_scalar_model

        spec = generate_scalar_model(flow.graph)
        with open(args.scalar_output, "w", encoding="utf-8") as fh:
            fh.write(spec.source)
        print(f"wrote {args.scalar_output} (Verilator-style scalar module)")
    return 0


def _make_stimulus(flow: RTLFlow, args) -> StimulusBatch:
    if args.stimulus:
        texts = []
        for path in args.stimulus:
            with open(path, "r", encoding="utf-8") as fh:
                texts.append(fh.read())
        batch = StimulusBatch.from_texts(texts)
        if batch.n != args.batch:
            print(
                f"note: batch size {args.batch} ignored; "
                f"{batch.n} stimulus files supplied",
                file=sys.stderr,
            )
        return batch
    return flow.random_stimulus(args.batch, args.cycles, seed=args.seed)


def _apply_loads(flow: RTLFlow, sim, loads) -> None:
    from repro.stimulus.memimage import read_hex_image

    for spec in loads or ():
        if "=" not in spec:
            raise ReproError(f"--load expects NAME=FILE, got {spec!r}")
        name, path = spec.split("=", 1)
        mem = flow.design.memories.get(name)
        if mem is None:
            known = ", ".join(flow.design.memories) or "(none)"
            raise ReproError(f"no memory {name!r}; design has: {known}")
        sim.load_memory(name, read_hex_image(path, depth=mem.depth))


def cmd_simulate(args) -> int:
    flow = _load_flow(args)
    stim = _make_stimulus(flow, args)
    sim = flow.simulator(n=stim.n, executor=args.executor)
    _apply_loads(flow, sim, args.load)
    outs = sim.run(stim, cycles=args.cycles)
    rows = []
    for name, values in outs.items():
        preview = " ".join(format(int(v), "x") for v in values[:8])
        more = " ..." if stim.n > 8 else ""
        rows.append([name, f"{preview}{more}"])
    print(format_table(
        ["output", "final values (hex, first lanes)"], rows,
        title=f"{args.top}: {stim.n} stimulus x {args.cycles} cycles",
    ))
    if args.vcd is not None:
        from repro.waveform.vcd import dump_vcd

        sim2 = flow.simulator(n=stim.n, executor=args.executor)
        _apply_loads(flow, sim2, args.load)
        dump_vcd(args.vcd, sim2, stim, lane=args.vcd_lane, cycles=args.cycles)
        print(f"wrote {args.vcd} (lane {args.vcd_lane})")
    return 0


def cmd_coverage(args) -> int:
    flow = _load_flow(args)
    stim = _make_stimulus(flow, args)
    sim = flow.simulator(n=stim.n)
    _apply_loads(flow, sim, args.load)
    cov = CoverageCollector(sim, include_internal=not args.ports_only)
    report = cov.run(stim, cycles=args.cycles)
    print(report.summary())
    missing = report.uncovered()
    if missing:
        shown = missing if args.all_uncovered else missing[:20]
        print(f"uncovered points ({len(missing)} total):")
        for point in shown:
            print(f"  {point}")
        if not args.all_uncovered and len(missing) > 20:
            print("  ... (--all-uncovered to list every point)")
    return 0 if report.percent >= args.threshold else 1


def cmd_profile(args) -> int:
    """Profile one bundled design end to end under full telemetry."""
    from repro.core.simulator import BatchSimulator
    from repro.gpu.device import SimulatedDevice

    from repro.designs import get_design

    bundle = get_design(args.design)
    if args.mcmc_iters > 0 and args.executor == DEFAULT_EXECUTOR:
        # A partition only orders nodes within a level for the fused
        # engine, so tuning one is work its result cannot use.
        replay = "|".join(k for k in EXECUTOR_CHOICES if k != DEFAULT_EXECUTOR)
        raise ReproError(
            "--mcmc-iters tunes the macro-task partition, which only the "
            f"task-replay engines use: pass --executor {replay}")
    with obs.capture() as (tracer, metrics):
        with tracer.span("parse+elaborate", resource="flow"):
            flow = RTLFlow.from_source(bundle.source, bundle.top)
        if args.mcmc_iters > 0:
            with tracer.span("optimize_partition", resource="flow"):
                flow.optimize_partition(
                    n_stimulus=min(32, args.batch),
                    cycles=8,
                    max_iter=args.mcmc_iters,
                    max_unimproved=max(4, args.mcmc_iters // 3),
                )
        device = SimulatedDevice(tracer=tracer)
        with tracer.span("transpile+compile", resource="flow"):
            # The model lowers lazily: the engine's programs are generated
            # and compiled when the simulator builds its executor.
            model = flow.compile(use_mcmc=args.mcmc_iters > 0)
            sim = BatchSimulator(model, args.batch, executor=args.executor,
                                 device=device, tracer=tracer,
                                 metrics=metrics)
        bundle.preload(sim)
        stim = bundle.make_stimulus(args.batch, args.cycles, args.seed)
        sim.run(stim)
        device.publish_metrics(metrics)

    trace_path = args.trace_json or f"{args.design}.trace.json"
    metrics_path = args.metrics_json or f"{args.design}.metrics.json"
    tracer.write_chrome_trace(trace_path)
    metrics.write_json(
        metrics_path, extra={"kernels": obs.kernel_time_summary(tracer)}
    )

    agg = sorted(tracer.aggregate().items(),
                 key=lambda kv: kv[1].total, reverse=True)
    rows = [
        [name, s.count, f"{s.total * 1000:.2f}ms",
         f"{s.total / s.count * 1000:.3f}ms"]
        for name, s in agg[: args.top]
    ]
    print(format_table(
        ["span", "count", "total", "mean"], rows,
        title=f"profile: {args.design} ({args.batch} stimulus x "
              f"{args.cycles} cycles, executor={args.executor})",
    ))
    mcmc = flow.mcmc_result
    if mcmc is not None:
        print(f"MCMC: {mcmc.iterations} iterations, {mcmc.evaluations} "
              f"evaluations, acceptance "
              f"{mcmc.accepted / max(1, mcmc.iterations):.0%}, "
              f"improvement {mcmc.improvement:+.1%}")
    print(f"device: {device.stats.kernel_launches} kernel launches, "
          f"{device.stats.graph_launches} graph launches, "
          f"busy {device.stats.busy_seconds * 1000:.1f}ms")
    if args.timeline:
        print()
        print(tracer.render_ascii(width=88))
    print(f"wrote {trace_path} (Chrome trace; open in ui.perfetto.dev)")
    print(f"wrote {metrics_path}")
    return 0


def _verified_executor(model, design: str) -> str:
    """``--verify`` preflight: statically verify the compiled model (its
    fused lowering included), then swap the executor for the runtime
    sanitizer so the run also checks declared write footprints and epoch
    monotonicity.  The sanitizer replays the reference task path — the
    fused bundle was just verified statically, and the sanitizer's job is
    the task-level invariants."""
    from repro.utils.errors import VerificationError
    from repro.verify import verify_model

    report = verify_model(model, filename=f"<design:{design}>")
    if report.errors:
        raise VerificationError(
            f"{design}: verifier found {len(report.errors)} error(s):\n"
            + "\n".join(d.format() for d in report.sorted_diagnostics()),
            diagnostics=report.errors,
        )
    print(f"verify: {design} passed "
          f"({len(report.diagnostics)} findings); sanitizer enabled",
          file=sys.stderr)
    return "sanitize"


def cmd_run(args) -> int:
    """Run a bundled design with the resilience harness: lane fault
    isolation, durable periodic checkpoints, resume, fault injection."""
    from repro import resilience as rz
    from repro.core.simulator import BatchSimulator
    from repro.designs import get_design
    from repro.pipeline.scheduler import PipelineSimulator

    bundle = get_design(args.design)
    flow = RTLFlow.from_source(bundle.source, bundle.top)
    model = flow.compile()

    executor = args.executor
    if args.verify:
        executor = _verified_executor(model, args.design)

    plan = None
    if args.inject_lane_fault or args.inject_checkpoint_failure:
        try:
            plan = rz.FaultPlan(
                lane_faults=[rz.parse_lane_fault(s)
                             for s in args.inject_lane_fault],
                checkpoint_failures=set(args.inject_checkpoint_failure),
            )
        except ValueError as exc:
            raise ReproError(str(exc)) from exc
    isolation = args.fault_isolation or bool(args.inject_lane_fault)

    mgr = None
    if args.checkpoint_dir:
        policy = None
        if args.checkpoint_every or args.checkpoint_every_seconds:
            policy = rz.CheckpointPolicy(
                every_cycles=args.checkpoint_every or None,
                every_seconds=args.checkpoint_every_seconds or None,
            )
        mgr = rz.CheckpointManager(
            args.checkpoint_dir, policy=policy, keep=args.keep_checkpoints,
            fault_plan=plan,
        )
    elif args.resume:
        raise ReproError("--resume requires --checkpoint-dir")

    if args.groups > 1:
        sim = PipelineSimulator(
            model, args.batch, groups=args.groups, executor=executor,
            fault_isolation=isolation,
        )
    else:
        sim = BatchSimulator(model, args.batch, executor=executor,
                             fault_isolation=isolation)
    bundle.preload(sim)

    start = 0
    if args.resume and mgr is not None:
        ckpt = mgr.load_latest()
        if ckpt is None:
            print(f"no checkpoint in {args.checkpoint_dir}; "
                  f"starting from cycle 0")
        else:
            sim.restore_checkpoint(ckpt)
            start = sim.cycles_run
            print(f"resumed from checkpoint at cycle {start}")

    stim = bundle.make_stimulus(args.batch, args.cycles, args.seed)
    outs = sim.run(stim, watch=bundle.watch, checkpoint=mgr,
                   fault_plan=plan, start_cycle=start)
    if mgr is not None:
        # A final snapshot so a later --resume skips the finished work
        # (best-effort: a failed write degrades like any periodic one).
        mgr.save(sim, required=False)

    rows = []
    for name, values in outs.items():
        preview = " ".join(format(int(v), "x") for v in values[:8])
        more = " ..." if args.batch > 8 else ""
        rows.append([name, f"{preview}{more}"])
    print(format_table(
        ["output", "final values (hex, first lanes)"], rows,
        title=f"{args.design}: {args.batch} stimulus x {args.cycles} cycles "
              f"(executor={executor}"
              + (f", groups={args.groups}" if args.groups > 1 else "") + ")",
    ))
    if mgr is not None:
        print(f"checkpoints: {mgr.writes} written, "
              f"{mgr.write_failures} failed, latest {mgr.latest_path()}")

    if isinstance(sim, PipelineSimulator):
        report = sim.fault_report() if isolation else None
    else:
        report = sim.quarantine.report() if sim.quarantine is not None else None
    if report is not None:
        faulted = len(report["faulted_lanes"])
        if faulted:
            print(f"quarantined {faulted}/{report['n']} lanes:")
            for f in report["faults"][:20]:
                print(f"  lane {f['lane']} @ cycle {f['cycle']}: "
                      f"{f['reason']}")
        else:
            print(f"all {report['n']} lanes healthy")
        if args.fault_report:
            payload = dict(report)
            payload["design"] = args.design
            payload["fault_plan"] = plan.to_dict() if plan else None
            rz.atomic_write_json(args.fault_report, payload)
            print(f"wrote {args.fault_report}")
        if faulted >= report["n"]:
            return 1  # every lane died: nothing useful survived
    return 0


def _lane_faults(args) -> list:
    """``--inject-lane-fault CYCLE:LANE[:REASON]`` as campaign triples."""
    from repro import resilience as rz

    faults = []
    for s in args.inject_lane_fault:
        try:
            f = rz.parse_lane_fault(s)
        except ValueError as exc:
            raise ReproError(str(exc)) from exc
        faults.append((f.cycle, f.lane, f.reason))
    return faults


def cmd_campaign(args) -> int:
    """Run a bundled design as a sharded multi-process campaign."""
    from repro import resilience as rz
    from repro.cluster import CampaignCoordinator, CampaignSpec
    from repro.designs import get_design

    bundle = get_design(args.design)

    if args.verify:
        from repro.utils.errors import VerificationError
        from repro.verify import verify_source

        report = verify_source(bundle.source, bundle.top,
                               filename=f"<design:{args.design}>")
        if report.errors:
            raise VerificationError(
                f"{args.design}: verifier found {len(report.errors)} "
                "error(s):\n"
                + "\n".join(d.format() for d in report.sorted_diagnostics()),
                diagnostics=report.errors,
            )
        print(f"verify: {args.design} passed; workers will re-verify",
              file=sys.stderr)

    lane_faults = _lane_faults(args)

    crash = {}
    for s in args.inject_worker_crash:
        parts = s.split(":")
        try:
            shard, cycle = int(parts[0]), int(parts[1])
            if len(parts) != 2:
                raise ValueError
        except (ValueError, IndexError):
            raise ReproError(
                f"worker crash spec must be SHARD:CYCLE, got {s!r}"
            ) from None
        crash[shard] = cycle

    if crash and not args.checkpoint_dir:
        print("note: --inject-worker-crash without --checkpoint-dir "
              "recomputes the killed shard from scratch", file=sys.stderr)

    spec = CampaignSpec(
        n=args.batch,
        cycles=args.cycles,
        design=args.design,
        seed=args.seed,
        executor=args.executor,
        watch=bundle.watch,
        fault_isolation=args.fault_isolation or bool(lane_faults),
        lane_faults=lane_faults,
        coverage=args.coverage,
        checkpoint_every=args.checkpoint_every or None,
        checkpoint_every_seconds=args.checkpoint_every_seconds or None,
        verify=args.verify,
    )
    coord = CampaignCoordinator(
        spec,
        workers=args.workers,
        shard_lanes=args.shard_lanes,
        checkpoint_dir=args.checkpoint_dir,
        inject_worker_crash=crash,
        heartbeat_timeout=args.heartbeat_timeout,
        max_restarts=args.max_restarts,
        store=args.store,
    )
    result = coord.run()

    rows = []
    for name, values in result.outputs.items():
        preview = " ".join(format(int(v), "x") for v in values[:8])
        more = " ..." if args.batch > 8 else ""
        rows.append([name, f"{preview}{more}"])
    print(format_table(
        ["output", "final values (hex, first lanes)"], rows,
        title=f"{args.design}: {args.batch} stimulus x {args.cycles} cycles "
              f"({len(result.shards)} shards, {args.workers} workers, "
              f"executor={spec.executor})",
    ))
    print(result.summary())
    if coord.store is not None:
        hits = sum(1 for o in result.shards if o.cache_hit)
        print(f"store: {hits}/{len(result.shards)} shard(s) served from "
              f"{coord.store.root} ({len(result.shards) - hits} simulated)")
    for o in result.shards:
        if o.attempts > 1:
            print(f"shard {o.id} [lanes {o.lo}:{o.hi}] needed {o.attempts} "
                  f"attempts (restarted from cycle {o.resumed_from})")

    report = result.fault_report()
    if report["faulted_lanes"]:
        print(f"quarantined {len(report['faulted_lanes'])}/{report['n']} lanes:")
        for f in report["faults"][:20]:
            print(f"  lane {f['lane']} @ cycle {f['cycle']}: {f['reason']}")
    if args.fault_report:
        payload = dict(report)
        payload["design"] = args.design
        payload["shards"] = [o.to_dict() for o in result.shards]
        payload["restarts"] = result.restarts
        rz.atomic_write_json(args.fault_report, payload)
        print(f"wrote {args.fault_report}")
    if len(report["faulted_lanes"]) >= report["n"]:
        return 1  # every lane died: nothing useful survived
    return 0


def cmd_serve(args) -> int:
    """Run the long-running campaign service until SIGTERM/SIGINT."""
    from repro.serve import CampaignService, run_service

    service = CampaignService(
        data_dir=args.data_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        shard_lanes=args.shard_lanes,
        max_queued_shards=args.max_queued_shards,
        tenant_inflight_cap=args.tenant_inflight_cap,
        store_max_bytes=args.store_max_bytes,
        store_max_entries=args.store_max_entries,
        max_restarts=args.max_restarts,
    )
    return run_service(service)


def _submit_spec(args):
    """Build the CampaignSpec a ``repro submit`` invocation describes."""
    from repro.cluster import CampaignSpec
    from repro.designs import get_design

    bundle = get_design(args.design)
    lane_faults = _lane_faults(args)
    spec = CampaignSpec(
        n=args.batch,
        cycles=args.cycles,
        design=args.design,
        seed=args.seed,
        executor=args.executor,
        watch=bundle.watch,
        fault_isolation=bool(lane_faults),
        lane_faults=lane_faults,
    )
    spec.validate()  # reject a bad spec before the POST
    return spec


def _print_job_line(job: dict) -> None:
    line = (f"{job['id']}  {job['state']:<9} tenant={job['tenant']} "
            f"shards={job['shards_done']}/{job['shards_total']} "
            f"hits={job['store_hits']} simulated={job['shards_simulated']}")
    if job.get("result_digest"):
        line += f" digest={job['result_digest'][:12]}"
    if job.get("error"):
        line += f" error={job['error']}"
    print(line)


def cmd_submit(args) -> int:
    from repro.serve import ServiceClient, spec_to_dict

    spec = _submit_spec(args)
    client = ServiceClient(args.url)
    status = client.submit(spec_to_dict(spec), tenant=args.tenant,
                           weight=args.weight)
    job = status["job"]
    print(f"submitted {job['id']} (tenant={job['tenant']}, "
          f"{job['shards_total']} shards, "
          f"{job['store_hits']} cache hits)")
    if args.wait:
        status = client.wait(job["id"], timeout=args.timeout)
        job = status["job"]
        _print_job_line({**job, **status["progress"]})
    if args.status_json:
        from repro import resilience as rz

        rz.atomic_write_json(args.status_json, status)
        print(f"wrote {args.status_json}")
    if args.wait and job["state"] != "done":
        return 1
    return 0


def cmd_jobs(args) -> int:
    import json as json_mod

    from repro.serve import ServiceClient

    client = ServiceClient(args.url)
    jobs = client.jobs(tenant=args.tenant)
    if args.json:
        print(json_mod.dumps({"jobs": jobs}, indent=1))
        return 0
    if not jobs:
        print("no jobs")
        return 0
    for job in jobs:
        _print_job_line(job)
    return 0


def cmd_result(args) -> int:
    import json as json_mod

    from repro.serve import ServiceClient

    client = ServiceClient(args.url)
    res = client.result(args.job)
    if args.json:
        print(json_mod.dumps(res, indent=1))
        return 0
    job = res["job"]
    m = res["metrics"]
    rows = []
    for name, rec in res["outputs"].items():
        preview = " ".join(rec["hex"][:8])
        more = " ..." if len(rec["hex"]) > 8 else ""
        rows.append([name, f"{preview}{more}"])
    print(format_table(
        ["output", "final values (hex, first lanes)"], rows,
        title=f"{job['id']}: {job['spec']['n']} lanes x "
              f"{job['spec']['cycles']} cycles",
    ))
    print(f"digest: {res['digest']}")
    print(f"cache: {m['store_hits']} hits, {m['shards_simulated']} "
          f"simulated (hit rate {m['hit_rate']:.2f})")
    return 0


def cmd_cancel(args) -> int:
    from repro.serve import ServiceClient

    status = ServiceClient(args.url).cancel(args.job)
    job = status["job"]
    print(f"{job['id']}: {job['state']} "
          f"({job['cancelled_shards']} shard(s) not run)")
    return 0


def cmd_designs(args) -> int:
    from repro.designs import get_design, list_designs

    rows = []
    for name in list_designs():
        b = get_design(name)
        rows.append([name, b.top, len(b.source.splitlines()), ", ".join(b.watch[:3])])
    print(format_table(["name", "top module", "verilog lines", "key outputs"],
                       rows, title="bundled designs"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_design_args(p):
        p.add_argument("sources", nargs="+", help="Verilog source files")
        p.add_argument("--top", required=True, help="top module name")

    def add_telemetry_args(p):
        p.add_argument("--trace-json", default=None, metavar="PATH",
                       help="write a Chrome-trace/Perfetto JSON of the run")
        p.add_argument("--metrics-json", default=None, metavar="PATH",
                       help="write a metrics snapshot JSON of the run")
        p.set_defaults(_auto_telemetry=True)

    def add_executor_arg(p):
        p.add_argument("--executor", choices=list(EXECUTOR_CHOICES),
                       default=DEFAULT_EXECUTOR,
                       help="replay engine (default: the fused flat "
                            "programs; graph/stream are the paper's "
                            "Table 4 contrast — see docs/fusion.md)")

    def add_stim_args(p):
        p.add_argument("--batch", "-n", type=int, default=256,
                       help="number of stimulus (random mode)")
        p.add_argument("--cycles", "-c", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--stimulus", nargs="*", default=None,
                       help="stimulus files (one per lane) instead of random")
        p.add_argument("--load", action="append", default=[],
                       metavar="MEM=FILE.hex",
                       help="preload a memory from a $readmemh file "
                            "(repeatable)")

    p = sub.add_parser("stats", help="print RTL graph statistics")
    p.add_argument("sources", nargs="*", help="Verilog source files")
    p.add_argument("--top", default=None,
                   help="top module name (required with source files)")
    p.add_argument("--design", default=None, metavar="NAME",
                   help="a bundled design instead of source files "
                        "(see `repro designs`)")
    p.add_argument("--json", action="store_true",
                   help="emit the statistics as JSON instead of tables")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser(
        "lint",
        help="static-analysis rule pack: comb loops, multiple drivers, "
             "width truncation, batch hazards, ...",
    )
    p.add_argument("sources", nargs="*", help="Verilog source files")
    p.add_argument("--top", default=None,
                   help="top module name (required with source files)")
    p.add_argument("--design", action="append", default=[],
                   metavar="NAME",
                   help="lint a bundled design ('all' for every one; "
                        "repeatable; see `repro designs`)")
    p.add_argument("--rules", default=None, metavar="ID[,ID...]",
                   help="run only these rule ids (default: all)")
    p.add_argument("--json", action="store_true",
                   help="emit structured diagnostics as JSON")
    p.add_argument("--fail-on", choices=["error", "warning", "info", "never"],
                   default="error",
                   help="exit 1 if any diagnostic at or above this "
                        "severity fired (default: error)")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "verify",
        help="translation-validation verifier: staged IR checks, "
             "known-bits rewrite audit, task-graph hazard detection",
    )
    p.add_argument("sources", nargs="*", help="Verilog source files")
    p.add_argument("--top", default=None,
                   help="top module name (required with source files)")
    p.add_argument("--design", action="append", default=[],
                   metavar="NAME",
                   help="verify a bundled design ('all' for every one; "
                        "repeatable; see `repro designs`)")
    p.add_argument("--rules", default=None, metavar="ID[,ID...]",
                   help="run only these rule ids (default: the verify-* "
                        "rule pack)")
    p.add_argument("--target-weight", type=float, default=None,
                   help="partitioner target weight for the compile "
                        "under verification")
    p.add_argument("--selftest", action="store_true",
                   help="run the mutation self-test instead: inject "
                        "synthetic IR corruptions and require the "
                        "verifier to flag every one")
    p.add_argument("--json", action="store_true",
                   help="emit structured diagnostics as JSON")
    p.add_argument("--fail-on", choices=["error", "warning", "info", "never"],
                   default="error",
                   help="exit 1 if any diagnostic at or above this "
                        "severity fired (default: error)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("transpile", help="emit the batch kernel module")
    add_design_args(p)
    p.add_argument("--output", "-o", default="rtlflow_kernels.py")
    p.add_argument("--scalar-output", default=None,
                   help="also emit the Verilator-style scalar module")
    p.add_argument("--target-weight", type=float, default=64.0)
    p.set_defaults(fn=cmd_transpile)

    p = sub.add_parser("simulate", help="run a batch simulation")
    add_design_args(p)
    add_stim_args(p)
    add_executor_arg(p)
    p.add_argument("--vcd", default=None, help="dump one lane's VCD here")
    p.add_argument("--vcd-lane", type=int, default=0)
    add_telemetry_args(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("coverage", help="toggle-coverage a random campaign")
    add_design_args(p)
    add_stim_args(p)
    add_telemetry_args(p)
    p.add_argument("--ports-only", action="store_true")
    p.add_argument("--all-uncovered", action="store_true")
    p.add_argument("--threshold", type=float, default=0.0,
                   help="exit nonzero below this coverage percent")
    p.set_defaults(fn=cmd_coverage)

    p = sub.add_parser(
        "profile",
        help="profile a bundled design; emit Chrome-trace + metrics JSON",
    )
    p.add_argument("design", help="bundled design name (see `repro designs`)")
    p.add_argument("--batch", "-n", type=int, default=64)
    p.add_argument("--cycles", "-c", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    add_executor_arg(p)
    p.add_argument("--mcmc-iters", type=int, default=0,
                   help="MCMC partition-tuning iterations for a task-replay "
                        "--executor (default 0: no tuning)")
    p.add_argument("--top", type=int, default=12,
                   help="rows in the printed span table")
    p.add_argument("--timeline", action="store_true",
                   help="also print the ASCII swimlane timeline")
    p.add_argument("--trace-json", default=None, metavar="PATH",
                   help="trace output path (default <design>.trace.json)")
    p.add_argument("--metrics-json", default=None, metavar="PATH",
                   help="metrics output path (default <design>.metrics.json)")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser(
        "run",
        help="run a bundled design with fault isolation, durable "
             "checkpoints/resume, and deterministic fault injection",
    )
    p.add_argument("design", help="bundled design name (see `repro designs`)")
    p.add_argument("--batch", "-n", type=int, default=64)
    p.add_argument("--cycles", "-c", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    add_executor_arg(p)
    p.add_argument("--groups", type=int, default=1,
                   help="run through the pipeline scheduler with this many "
                        "stimulus groups (default: single simulator)")
    p.add_argument("--fault-isolation", action="store_true",
                   help="quarantine poisoned lanes instead of aborting "
                        "(implied by --inject-lane-fault)")
    p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="directory for durable checkpoints (atomic "
                        "temp+fsync+rename snapshots)")
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="K",
                   help="snapshot every K cycles")
    p.add_argument("--checkpoint-every-seconds", type=float, default=0.0,
                   metavar="T", help="snapshot every T seconds")
    p.add_argument("--keep-checkpoints", type=int, default=2,
                   help="retain this many newest snapshots (default 2)")
    p.add_argument("--resume", action="store_true",
                   help="restore the newest checkpoint in --checkpoint-dir "
                        "and continue from it")
    p.add_argument("--inject-lane-fault", action="append", default=[],
                   metavar="CYCLE:LANE[:REASON]",
                   help="deterministically quarantine LANE at CYCLE "
                        "(repeatable)")
    p.add_argument("--inject-checkpoint-failure", action="append", type=int,
                   default=[], metavar="IDX",
                   help="make the IDX-th checkpoint write fail (repeatable)")
    p.add_argument("--fault-report", default=None, metavar="PATH",
                   help="write the structured lane-fault report JSON here")
    p.add_argument("--verify", action="store_true",
                   help="statically verify the compiled IR first (fail on "
                        "any finding), then run under the runtime "
                        "sanitizer executor")
    add_telemetry_args(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "campaign",
        help="run a sharded multi-process campaign with crash recovery "
             "and merged outputs/coverage/faults/telemetry",
    )
    p.add_argument("design", help="bundled design name (see `repro designs`)")
    p.add_argument("--batch", "-n", type=int, default=256)
    p.add_argument("--cycles", "-c", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    add_executor_arg(p)
    p.add_argument("--workers", "-w", type=int, default=2,
                   help="worker processes (0 = run shards inline, no "
                        "multiprocessing)")
    p.add_argument("--shard-lanes", type=int, default=None, metavar="L",
                   help="lanes per shard (default: sized for ~4 shards "
                        "per worker)")
    p.add_argument("--coverage", action="store_true",
                   help="collect merged toggle coverage across all shards")
    p.add_argument("--fault-isolation", action="store_true",
                   help="quarantine poisoned lanes instead of aborting "
                        "(implied by --inject-lane-fault)")
    p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="root for mid-shard snapshots and, without "
                        "--store, the result store (enables crash "
                        "recovery: rerun with the same DIR)")
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="K",
                   help="snapshot each shard every K cycles")
    p.add_argument("--checkpoint-every-seconds", type=float, default=0.0,
                   metavar="T", help="snapshot each shard every T seconds")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="content-addressed result store: shards whose "
                        "content key is already stored are adopted "
                        "instead of simulated, and fresh results are "
                        "published back (shareable with `repro serve`)")
    p.add_argument("--heartbeat-timeout", type=float, default=None,
                   metavar="T",
                   help="declare a worker dead after T seconds of silence "
                        "on a dispatched shard; workers heartbeat every "
                        "min(0.25, T/4) s (default: process-death "
                        "detection only)")
    p.add_argument("--max-restarts", type=int, default=3,
                   help="restart budget per shard before the campaign "
                        "fails (default 3)")
    p.add_argument("--inject-lane-fault", action="append", default=[],
                   metavar="CYCLE:LANE[:REASON]",
                   help="deterministically quarantine a global LANE at "
                        "CYCLE (repeatable; routed to the owning shard)")
    p.add_argument("--inject-worker-crash", action="append", default=[],
                   metavar="SHARD:CYCLE",
                   help="SIGKILL the worker running SHARD after CYCLE "
                        "cycles, first attempt only (repeatable)")
    p.add_argument("--fault-report", default=None, metavar="PATH",
                   help="write the merged campaign fault-report JSON here")
    p.add_argument("--verify", action="store_true",
                   help="statically verify the design up front and have "
                        "every worker re-verify its rebuilt model")
    add_telemetry_args(p)
    p.set_defaults(fn=cmd_campaign)

    p = sub.add_parser(
        "serve",
        help="run the campaign service: HTTP job queue + multi-tenant "
             "fair scheduling + content-addressed result cache",
    )
    p.add_argument("--data-dir", required=True, metavar="DIR",
                   help="root for the result store and durable job records")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8463,
                   help="listen port (0 picks a free one; default 8463)")
    p.add_argument("--workers", "-w", type=int, default=2,
                   help="worker processes (0 = one in-process worker "
                        "thread, the deterministic debug mode)")
    p.add_argument("--shard-lanes", type=int, default=None, metavar="L",
                   help="lanes per shard (default: sized per campaign for "
                        "~4 shards per worker)")
    p.add_argument("--max-queued-shards", type=int, default=1024,
                   help="bounded-queue backpressure limit; submissions "
                        "past it get HTTP 429 (default 1024)")
    p.add_argument("--tenant-inflight-cap", type=int, default=None,
                   metavar="K",
                   help="at most K of one tenant's shards on workers at "
                        "once (default: no cap)")
    p.add_argument("--store-max-bytes", type=int, default=None,
                   help="evict least-recently-used store entries past "
                        "this many bytes (default: unbounded)")
    p.add_argument("--store-max-entries", type=int, default=None,
                   help="evict least-recently-used store entries past "
                        "this count (default: unbounded)")
    p.add_argument("--max-restarts", type=int, default=3,
                   help="per-shard worker-death retry budget (default 3)")
    p.set_defaults(fn=cmd_serve)

    def add_client_url(p):
        p.add_argument("--url", default="http://127.0.0.1:8463",
                       help="service base URL (default http://127.0.0.1:8463)")

    p = sub.add_parser(
        "submit", help="submit a campaign to a running `repro serve`"
    )
    p.add_argument("design", help="bundled design name (see `repro designs`)")
    p.add_argument("--batch", "-n", type=int, default=256)
    p.add_argument("--cycles", "-c", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    add_executor_arg(p)
    p.add_argument("--inject-lane-fault", action="append", default=[],
                   metavar="CYCLE:LANE[:REASON]",
                   help="deterministically quarantine a global LANE at "
                        "CYCLE (repeatable)")
    p.add_argument("--tenant", default="default",
                   help="tenant the job is accounted to (fair scheduling)")
    p.add_argument("--weight", type=float, default=1.0,
                   help="tenant scheduling weight (default 1.0)")
    p.add_argument("--wait", action="store_true",
                   help="block until the job finishes; exit 1 unless done")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="--wait timeout in seconds (default 300)")
    p.add_argument("--status-json", default=None, metavar="PATH",
                   help="write the final job-status JSON here")
    add_client_url(p)
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser("jobs", help="list a service's jobs")
    p.add_argument("--tenant", default=None, help="filter by tenant")
    p.add_argument("--json", action="store_true")
    add_client_url(p)
    p.set_defaults(fn=cmd_jobs)

    p = sub.add_parser(
        "result",
        help="fetch a finished job's merged outputs, digest and "
             "cache metrics",
    )
    p.add_argument("job", help="job id (see `repro jobs`)")
    p.add_argument("--json", action="store_true",
                   help="emit the full result payload as JSON")
    add_client_url(p)
    p.set_defaults(fn=cmd_result)

    p = sub.add_parser("cancel", help="cancel a queued/running job")
    p.add_argument("job", help="job id (see `repro jobs`)")
    add_client_url(p)
    p.set_defaults(fn=cmd_cancel)

    p = sub.add_parser("designs", help="list bundled designs")
    p.set_defaults(fn=cmd_designs)
    return ap


def _run_command(args) -> int:
    """Dispatch one parsed command, honouring the telemetry flags of
    commands that opted in via ``add_telemetry_args``."""
    if not getattr(args, "_auto_telemetry", False) or not (
        args.trace_json or args.metrics_json
    ):
        return args.fn(args)
    with obs.capture() as (tracer, metrics):
        rc = args.fn(args)
    if args.trace_json:
        tracer.write_chrome_trace(args.trace_json)
        print(f"wrote {args.trace_json} (Chrome trace; open in ui.perfetto.dev)")
    if args.metrics_json:
        metrics.write_json(
            args.metrics_json,
            extra={"kernels": obs.kernel_time_summary(tracer)},
        )
        print(f"wrote {args.metrics_json}")
    return rc


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run_command(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

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
           scheduling hazards.  ``--selftest`` runs the mutation harness.
           ``repro run --verify`` verifies statically, then runs the
           product's fused programs under runtime write-set checks;
           ``repro campaign --verify`` verifies up front and has every
           worker re-verify its rebuilt model.
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
import json
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


def _source_jobs(designs, sources, top) -> list:
    """The inputs of ``stats``/``lint``/``verify``: ``(filename, text,
    top)`` for each bundled design named, then one job for the Verilog
    ``sources`` (which need ``top``)."""
    from repro.designs import get_design

    if not (designs or sources) or (sources and not top):
        raise ReproError("pass Verilog source files with --top, or --design")
    jobs = []
    for name in designs:
        bundle = get_design(name)
        jobs.append((f"<design:{name}>", bundle.source, bundle.top))
    if sources:
        texts = []
        for path in sources:
            with open(path, "r", encoding="utf-8") as fh:
                texts.append(fh.read())
        filename = sources[0] if len(sources) == 1 else "<input>"
        jobs.append((filename, "\n".join(texts), top))
    return jobs


def cmd_stats(args) -> int:
    designs, sources = ([args.design], []) if args.design else ([], args.sources)
    filename, text, top = _source_jobs(designs, sources, args.top)[0]
    flow = RTLFlow.from_source(text, top, filename=filename)
    stats = flow.graph.stats()
    tg = flow.taskgraph()
    if args.json:
        # The size of the fused programs the product engine replays
        # (statements, temporaries, rolled-up runs, ...): CI asserts
        # these counts instead of regex-ing generated source.
        print(json.dumps(
            {"top": top, "graph": stats, "taskgraph": tg.stats(),
             "fused": flow.compile().fused().stats},
            indent=2, sort_keys=True, default=float,
        ))
        return 0
    rows = [[k, v] for k, v in stats.items()]
    print(format_table(["metric", "value"], rows,
                       title=f"RTL graph statistics: {top}"))
    print()
    print(format_table(
        ["metric", "value"],
        [[k, round(v, 2) if isinstance(v, float) else v]
         for k, v in tg.stats().items()],
        title="default task graph",
    ))
    return 0


def _check_sources(args, rules, check) -> int:
    """The ``lint``/``verify`` driver: run ``check(text, top, filename=,
    rules=)`` over each bundled ``--design`` and over the source files,
    print the reports as text or ``--json``, and exit 1 when a
    diagnostic at or above ``--fail-on`` fired."""
    from repro.designs import list_designs
    from repro.lint import RULES, Severity

    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = sorted(set(rules) - set(RULES))
        if unknown:
            raise ReproError(
                f"unknown rule(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(RULES))})"
            )

    designs = list_designs() if "all" in args.design else args.design
    reports = [check(text, top, filename=fname, rules=rules)
               for fname, text, top in _source_jobs(designs, args.sources,
                                                    args.top)]
    if args.json:
        payload = [r.to_dict() for r in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload,
                         indent=2, sort_keys=True))
    else:
        print("\n\n".join(r.format_text() for r in reports))

    if args.fail_on == "never":
        return 0
    threshold = Severity.parse(args.fail_on)
    return 1 if any(r.at_least(threshold) for r in reports) else 0


def cmd_lint(args) -> int:
    from repro.lint import lint_source

    return _check_sources(args, None, lint_source)


def cmd_verify(args) -> int:
    if args.selftest:
        from repro.verify.mutate import MUTATIONS, verify_selftest

        rows = verify_selftest()
        missed = [r for r in rows if not r["flagged"]]
        if args.json:
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

    from functools import partial

    from repro.verify import VERIFY_RULE_IDS, verify_source

    return _check_sources(
        args, list(VERIFY_RULE_IDS),
        partial(verify_source, target_weight=args.target_weight))


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


def _print_outputs(outputs, title: str) -> None:
    """The final-values table of ``simulate``/``run``/``campaign``/
    ``result``: each output's first eight lanes in hex."""
    rows = []
    for name, values in outputs.items():
        preview = " ".join(format(int(v), "x") for v in values[:8])
        more = " ..." if len(values) > 8 else ""
        rows.append([name, f"{preview}{more}"])
    print(format_table(["output", "final values (hex, first lanes)"], rows,
                       title=title))


def cmd_simulate(args) -> int:
    flow = _load_flow(args)
    stim = _make_stimulus(flow, args)
    sim = flow.simulator(n=stim.n, executor=args.executor)
    _apply_loads(flow, sim, args.load)
    if args.vcd is None:
        outs = sim.run(stim, cycles=args.cycles)
    else:
        from repro.waveform.vcd import VcdWriter

        # The VCD samples the lane after every cycle of the same run whose
        # final values are printed.
        widths = {s.name: s.width for s in sim.model.design.outputs}
        with VcdWriter(args.vcd, widths) as vcd:
            outs = sim.run(stim, cycles=args.cycles, progress=lambda c: (
                vcd.sample(c, {n: int(sim.get(n)[args.vcd_lane])
                               for n in widths})))
    _print_outputs(outs,
                   f"{args.top}: {stim.n} stimulus x {args.cycles} cycles")
    if args.vcd is not None:
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
    _write_telemetry(tracer, metrics,
                     args.trace_json or f"{args.design}.trace.json",
                     args.metrics_json or f"{args.design}.metrics.json")
    return 0


def _verify_preflight(design: str, report, outcome: str) -> None:
    """``--verify``: raise :class:`VerificationError` when the static
    ``report`` has an error, else note on stderr that ``design`` passed,
    followed by ``outcome`` (what the run does next)."""
    from repro.utils.errors import VerificationError

    if report.errors:
        raise VerificationError(
            f"{design}: verifier found {len(report.errors)} error(s):\n"
            + "\n".join(d.format() for d in report.sorted_diagnostics()),
            diagnostics=report.errors,
        )
    print(f"verify: {design} passed{outcome}", file=sys.stderr)


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


def _resilience_flags(args) -> list:
    """Check the resilience flags ``run`` and ``campaign`` share and return
    the lane faults to inject.  A checkpoint interval without a directory
    would be ignored (and, on ``campaign --store``, would still change
    every shard's content key), so it is an error."""
    if not args.checkpoint_dir and (args.checkpoint_every
                                    or args.checkpoint_every_seconds):
        flag = ("--checkpoint-every" if args.checkpoint_every
                else "--checkpoint-every-seconds")
        raise ReproError(f"{flag} requires --checkpoint-dir")
    return _lane_faults(args)


def _fault_report(args, report: dict, isolation: bool, **extra) -> int:
    """Print the quarantined lanes of ``report`` (a ``LaneQuarantine.
    report()``-shaped dict), write it with ``design`` and ``extra`` to
    ``--fault-report`` when asked (an empty ``faults`` list included), and
    return the exit code: 1 when every lane died, so nothing survived."""
    from repro import resilience as rz

    faulted = report["faulted_lanes"]
    if faulted:
        print(f"quarantined {len(faulted)}/{report['n']} lanes:")
        for f in report["faults"][:20]:
            print(f"  lane {f['lane']} @ cycle {f['cycle']}: {f['reason']}")
    elif isolation:
        print(f"all {report['n']} lanes healthy")
    if args.fault_report:
        rz.atomic_write_json(args.fault_report,
                             {**report, "design": args.design, **extra})
        print(f"wrote {args.fault_report}")
    return 1 if faulted and len(faulted) >= report["n"] else 0


def cmd_run(args) -> int:
    """Run a bundled design with the resilience harness: lane fault
    isolation, durable periodic checkpoints, resume, fault injection."""
    from repro import resilience as rz
    from repro.core.simulator import BatchSimulator
    from repro.designs import get_design

    lane_faults = _resilience_flags(args)
    if args.resume and not args.checkpoint_dir:
        raise ReproError("--resume requires --checkpoint-dir")
    bundle = get_design(args.design)
    model = RTLFlow.from_source(bundle.source, bundle.top).compile()

    executor = args.executor
    if args.verify:
        from repro.verify import verify_model

        # Statically verify the compiled model (its fused lowering
        # included), then run those same fused programs with every step
        # checked against its static write set.
        report = verify_model(model, filename=f"<design:{args.design}>")
        _verify_preflight(args.design, report,
                          f" ({len(report.diagnostics)} findings); "
                          "sanitizer enabled")
        executor = "sanitize"

    plan = None
    if lane_faults or args.inject_checkpoint_failure:
        plan = rz.FaultPlan(
            lane_faults=[rz.LaneFaultSpec(*f) for f in lane_faults],
            checkpoint_failures=set(args.inject_checkpoint_failure),
        )
    isolation = args.fault_isolation or bool(lane_faults)

    mgr = None
    if args.checkpoint_dir:
        policy = rz.CheckpointPolicy(
            every_cycles=args.checkpoint_every or None,
            every_seconds=args.checkpoint_every_seconds or None,
        )
        mgr = rz.CheckpointManager(
            args.checkpoint_dir, policy=policy, keep=args.keep_checkpoints,
            fault_plan=plan,
        )

    sim = BatchSimulator(model, args.batch, executor=executor,
                         fault_isolation=isolation)
    bundle.preload(sim)

    start = 0
    if args.resume:
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

    _print_outputs(
        outs, f"{args.design}: {args.batch} stimulus x {args.cycles} cycles "
              f"(executor={executor})")
    if mgr is not None:
        print(f"checkpoints: {mgr.writes} written, "
              f"{mgr.write_failures} failed, latest {mgr.latest_path()}")

    report = (sim.quarantine or rz.LaneQuarantine(args.batch)).report()
    return _fault_report(args, report, isolation,
                         fault_plan=plan.to_dict() if plan else None)


def _campaign_spec(args, bundle, lane_faults, isolation=False, **extra):
    """The :class:`CampaignSpec` a ``repro campaign``/``submit`` describes."""
    from repro.cluster import CampaignSpec

    return CampaignSpec(
        n=args.batch,
        cycles=args.cycles,
        design=args.design,
        seed=args.seed,
        executor=args.executor,
        watch=bundle.watch,
        fault_isolation=isolation or bool(lane_faults),
        lane_faults=lane_faults,
        **extra,
    )


def cmd_campaign(args) -> int:
    """Run a bundled design as a sharded multi-process campaign."""
    from repro.cluster import CampaignCoordinator
    from repro.designs import get_design

    lane_faults = _resilience_flags(args)
    bundle = get_design(args.design)
    if args.verify:
        from repro.verify import verify_source

        report = verify_source(bundle.source, bundle.top,
                               filename=f"<design:{args.design}>")
        _verify_preflight(args.design, report, "; workers will re-verify")

    crash = {}
    for s in args.inject_worker_crash:
        try:
            shard, cycle = map(int, s.split(":"))
        except ValueError:
            raise ReproError(
                f"worker crash spec must be SHARD:CYCLE, got {s!r}"
            ) from None
        crash[shard] = cycle

    if crash and not args.checkpoint_dir:
        print("note: --inject-worker-crash without --checkpoint-dir "
              "recomputes the killed shard from scratch", file=sys.stderr)

    spec = _campaign_spec(
        args, bundle, lane_faults, isolation=args.fault_isolation,
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

    _print_outputs(
        result.outputs,
        f"{args.design}: {args.batch} stimulus x {args.cycles} cycles "
        f"({len(result.shards)} shards, {args.workers} workers, "
        f"executor={spec.executor})")
    print(result.summary())
    if coord.store is not None:
        hits = sum(1 for o in result.shards if o.cache_hit)
        print(f"store: {hits}/{len(result.shards)} shard(s) served from "
              f"{coord.store.root} ({len(result.shards) - hits} simulated)")
    for o in result.shards:
        if o.attempts > 1:
            print(f"shard {o.id} [lanes {o.lo}:{o.hi}] needed {o.attempts} "
                  f"attempts (restarted from cycle {o.resumed_from})")
    return _fault_report(args, result.fault_report(), spec.fault_isolation,
                         shards=[o.to_dict() for o in result.shards],
                         restarts=result.restarts)


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
    from repro.designs import get_design
    from repro.serve import ServiceClient, spec_to_dict

    spec = _campaign_spec(args, get_design(args.design), _lane_faults(args))
    spec.validate()  # reject a bad spec before the POST
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
    from repro.serve import ServiceClient

    jobs = ServiceClient(args.url).jobs(tenant=args.tenant)
    if args.json:
        print(json.dumps({"jobs": jobs}, indent=1))
        return 0
    if not jobs:
        print("no jobs")
        return 0
    for job in jobs:
        _print_job_line(job)
    return 0


def cmd_result(args) -> int:
    from repro.serve import ServiceClient, decode_outputs

    res = ServiceClient(args.url).result(args.job)
    if args.json:
        print(json.dumps(res, indent=1))
        return 0
    job = res["job"]
    m = res["metrics"]
    _print_outputs(decode_outputs(res["outputs"]),
                   f"{job['id']}: {job['spec']['n']} lanes x "
                   f"{job['spec']['cycles']} cycles")
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

    def add_source_args(p, design_help, many=True):
        """Source files with ``--top``, or bundled designs (``--design``)."""
        p.add_argument("sources", nargs="*", help="Verilog source files")
        p.add_argument("--top", default=None,
                       help="top module name (required with source files)")
        p.add_argument("--design", metavar="NAME", help=design_help,
                       **({"action": "append", "default": []} if many
                          else {"default": None}))
        p.add_argument("--json", action="store_true",
                       help="emit JSON instead of text")

    def add_check_args(p, verb, default_rules):
        """The ``lint``/``verify`` inputs, rule filter and exit gate."""
        add_source_args(p, f"{verb} a bundled design ('all' for every one; "
                           "repeatable; see `repro designs`)")
        p.add_argument("--rules", default=None, metavar="ID[,ID...]",
                       help=f"run only these rule ids (default: "
                            f"{default_rules})")
        p.add_argument("--fail-on", choices=["error", "warning", "info", "never"],
                       default="error",
                       help="exit 1 if any diagnostic at or above this "
                            "severity fired (default: error)")

    def add_telemetry_args(p, auto=True):
        """``--trace-json``/``--metrics-json``; ``auto`` captures the run
        in ``_run_command`` (``profile`` captures its own)."""
        p.add_argument("--trace-json", default=None, metavar="PATH",
                       help="write a Chrome-trace/Perfetto JSON of the run"
                            + ("" if auto else " (default <design>.trace.json)"))
        p.add_argument("--metrics-json", default=None, metavar="PATH",
                       help="write a metrics snapshot JSON of the run"
                            + ("" if auto else " (default <design>.metrics.json)"))
        if auto:
            p.set_defaults(_auto_telemetry=True)

    def add_batch_args(p, batch, cycles, executor=True):
        p.add_argument("--batch", "-n", type=int, default=batch,
                       help=f"number of stimulus lanes (default {batch})")
        p.add_argument("--cycles", "-c", type=int, default=cycles)
        p.add_argument("--seed", type=int, default=0)
        if executor:
            p.add_argument("--executor", choices=list(EXECUTOR_CHOICES),
                           default=DEFAULT_EXECUTOR,
                           help="replay engine (default: the fused flat "
                                "programs; graph/stream are the paper's "
                                "Table 4 contrast — see docs/fusion.md)")

    def add_bundle_args(p, batch, cycles=200):
        """A bundled design and its batch: profile/run/campaign/submit."""
        p.add_argument("design", help="bundled design name (see `repro designs`)")
        add_batch_args(p, batch, cycles)

    def add_stim_args(p):
        p.add_argument("--stimulus", nargs="*", default=None,
                       help="stimulus files (one per lane) instead of random")
        p.add_argument("--load", action="append", default=[],
                       metavar="MEM=FILE.hex",
                       help="preload a memory from a $readmemh file "
                            "(repeatable)")

    def add_lane_fault_arg(p):
        p.add_argument("--inject-lane-fault", action="append", default=[],
                       metavar="CYCLE:LANE[:REASON]",
                       help="deterministically quarantine a global LANE at "
                            "CYCLE (repeatable)")

    def add_resilience_args(p, checkpoint_dir_help, verify_help):
        """The resilience flags ``run`` and ``campaign`` share (checked
        by ``_resilience_flags``)."""
        p.add_argument("--fault-isolation", action="store_true",
                       help="quarantine poisoned lanes instead of aborting "
                            "(implied by --inject-lane-fault)")
        add_lane_fault_arg(p)
        p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help=checkpoint_dir_help)
        p.add_argument("--checkpoint-every", type=int, default=0, metavar="K",
                       help="snapshot every K cycles (needs --checkpoint-dir)")
        p.add_argument("--checkpoint-every-seconds", type=float, default=0.0,
                       metavar="T",
                       help="snapshot every T seconds (needs --checkpoint-dir)")
        p.add_argument("--fault-report", default=None, metavar="PATH",
                       help="write the lane-fault report JSON here (an empty "
                            "fault list when no lane was quarantined)")
        p.add_argument("--verify", action="store_true", help=verify_help)

    def add_pool_args(p):
        """The shard runtime ``campaign`` and ``serve`` share."""
        p.add_argument("--workers", "-w", type=int, default=2,
                       help="worker processes (0 = run shards in-process, "
                            "the deterministic debug mode)")
        p.add_argument("--shard-lanes", type=int, default=None, metavar="L",
                       help="lanes per shard (default: sized per campaign "
                            "for ~4 shards per worker)")
        p.add_argument("--max-restarts", type=int, default=3,
                       help="restart budget per shard (default 3)")

    def add_client_url(p):
        p.add_argument("--url", default="http://127.0.0.1:8463",
                       help="service base URL (default http://127.0.0.1:8463)")

    p = sub.add_parser("stats", help="print RTL graph statistics")
    add_source_args(p, "a bundled design instead of source files "
                       "(see `repro designs`)", many=False)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser(
        "lint",
        help="static-analysis rule pack: comb loops, multiple drivers, "
             "width truncation, batch hazards, ...",
    )
    add_check_args(p, "lint", "all")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "verify",
        help="translation-validation verifier: staged IR checks, "
             "known-bits rewrite audit, task-graph hazard detection",
    )
    add_check_args(p, "verify", "the verify-* rule pack")
    p.add_argument("--target-weight", type=float, default=None,
                   help="partitioner target weight for the compile "
                        "under verification")
    p.add_argument("--selftest", action="store_true",
                   help="run the mutation self-test instead: inject "
                        "synthetic IR corruptions and require the "
                        "verifier to flag every one")
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
    add_batch_args(p, 256, 1000)
    add_stim_args(p)
    p.add_argument("--vcd", default=None, help="dump one lane's VCD here")
    p.add_argument("--vcd-lane", type=int, default=0)
    add_telemetry_args(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("coverage", help="toggle-coverage a random campaign")
    add_design_args(p)
    add_batch_args(p, 256, 1000, executor=False)
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
    add_bundle_args(p, 64, cycles=100)
    p.add_argument("--mcmc-iters", type=int, default=0,
                   help="MCMC partition-tuning iterations for a task-replay "
                        "--executor (default 0: no tuning)")
    p.add_argument("--top", type=int, default=12,
                   help="rows in the printed span table")
    p.add_argument("--timeline", action="store_true",
                   help="also print the ASCII swimlane timeline")
    add_telemetry_args(p, auto=False)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser(
        "run",
        help="run a bundled design with fault isolation, durable "
             "checkpoints/resume, and deterministic fault injection",
    )
    add_bundle_args(p, 64)
    add_resilience_args(
        p, "directory for durable checkpoints (atomic temp+fsync+rename "
           "snapshots)",
        "statically verify the compiled IR first (fail on any finding), "
        "then run the fused programs with each step's pool writes checked "
        "against its static write set")
    p.add_argument("--keep-checkpoints", type=int, default=2,
                   help="retain this many newest snapshots (default 2)")
    p.add_argument("--resume", action="store_true",
                   help="restore the newest checkpoint in --checkpoint-dir "
                        "and continue from it")
    p.add_argument("--inject-checkpoint-failure", action="append", type=int,
                   default=[], metavar="IDX",
                   help="make the IDX-th checkpoint write fail (repeatable)")
    add_telemetry_args(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "campaign",
        help="run a sharded multi-process campaign with crash recovery "
             "and merged outputs/coverage/faults/telemetry",
    )
    add_bundle_args(p, 256)
    add_pool_args(p)
    p.add_argument("--coverage", action="store_true",
                   help="collect merged toggle coverage across all shards")
    add_resilience_args(
        p, "root for mid-shard snapshots and, without --store, the result "
           "store (enables crash recovery: rerun with the same DIR)",
        "statically verify the design up front and have every worker "
        "re-verify its rebuilt model")
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
    p.add_argument("--inject-worker-crash", action="append", default=[],
                   metavar="SHARD:CYCLE",
                   help="SIGKILL the worker running SHARD after CYCLE "
                        "cycles, first attempt only (repeatable)")
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
    add_pool_args(p)
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
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "submit", help="submit a campaign to a running `repro serve`"
    )
    add_bundle_args(p, 256)
    add_lane_fault_arg(p)
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


def _write_telemetry(tracer, metrics, trace_path, metrics_path) -> None:
    """Write the Chrome trace and the metrics snapshot (with per-task
    kernel times) of a captured run; a ``None`` path skips that file."""
    if trace_path:
        tracer.write_chrome_trace(trace_path)
        print(f"wrote {trace_path} (Chrome trace; open in ui.perfetto.dev)")
    if metrics_path:
        metrics.write_json(
            metrics_path, extra={"kernels": obs.kernel_time_summary(tracer)})
        print(f"wrote {metrics_path}")


def _run_command(args) -> int:
    """Dispatch one parsed command, honouring the telemetry flags of
    commands that opted in via ``add_telemetry_args``."""
    if not getattr(args, "_auto_telemetry", False) or not (
        args.trace_json or args.metrics_json
    ):
        return args.fn(args)
    with obs.capture() as (tracer, metrics):
        rc = args.fn(args)
    _write_telemetry(tracer, metrics, args.trace_json, args.metrics_json)
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

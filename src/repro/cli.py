"""Command-line front end: inspect, validate, refine, and generate.

The §3 tool infrastructure, driveable from a shell::

    python -m repro.cli concerns
    python -m repro.cli info model.xmi
    python -m repro.cli validate model.xmi
    python -m repro.cli apply model.xmi --concern transactions \
        --params '{"transactional_ops": ["Account.withdraw"], "state_classes": ["Account"]}' \
        --out refined.xmi
    python -m repro.cli pipeline model.xmi --plan plan.json --out refined.xmi
    python -m repro.cli generate refined.xmi --out generated_app.py
    python -m repro.cli fingerprint refined.xmi
    python -m repro.cli simulate --scenario banking --clients 8 --seed 1
    python -m repro.cli simulate --scenario banking_elastic --serial --churn
    python -m repro.cli deploy --spec examples/deployment_spec.json --check
    python -m repro.cli deploy --spec base.json --diff target.json
    python -m repro.cli deploy --spec base.json --apply target.json

``apply`` runs the full engine path (OCL preconditions → rules →
postconditions) and reports the demarcation summary; ``pipeline`` runs a
multi-concern configuration plan through the plan → schedule → execute
pass-manager (batched, one savepoint per batch, cache stats reported);
``generate`` emits the functional module source.

A plan file is a JSON list of selections::

    [
      {"concern": "distribution",
       "params": {"server_classes": ["Account"], "registry_prefix": "bank"}},
      {"concern": "security",
       "params": {...},
       "after": ["distribution"]}
    ]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.codegen import generate_module
from repro.core.registry import default_registry
from repro.core.shipping import model_fingerprint
from repro.errors import ReproError
from repro.metamodel import validate as validate_model
from repro.repository import ModelRepository
from repro.transform import TransformationEngine
from repro.uml import UML, classes_of, owned_elements
from repro.workflow import ConcernWizard
from repro.xmi import read_xmi, write_xmi


def _load(path: str):
    return read_xmi(path, UML.package)


def _cmd_concerns(args) -> int:
    registry = default_registry()
    for concern_name in registry.concerns():
        wizard = ConcernWizard(registry.get(concern_name))
        print(wizard.transcript())
        print()
    return 0


def _cmd_info(args) -> int:
    resource = _load(args.model)
    model = resource.roots[0]
    classes = list(classes_of(model))
    packages = [
        e for e in owned_elements(model) if e.isinstance_of(UML.Package)
    ]
    operations = sum(len(list(c.operations)) for c in classes)
    attributes = sum(len(list(c.attributes)) for c in classes)
    total = sum(1 for _ in resource.all_contents())
    print(f"model {model.name!r}: {total} elements")
    print(f"  packages:   {len(packages)}")
    print(f"  classes:    {len(classes)}")
    print(f"  operations: {operations}")
    print(f"  attributes: {attributes}")
    for cls in classes:
        marks = ", ".join(s.name for s in cls.stereotypes)
        suffix = f"  <<{marks}>>" if marks else ""
        print(f"    class {cls.name}{suffix}")
    return 0


def _cmd_validate(args) -> int:
    resource = _load(args.model)
    diagnostics = validate_model(resource, raise_on_error=False)
    if not diagnostics:
        print("model is well-formed")
        return 0
    for diagnostic in diagnostics:
        print(f"violation: {diagnostic}")
    return 1


def _cmd_apply(args) -> int:
    resource = _load(args.model)
    try:
        parameters = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as exc:
        print(f"error: --params is not valid JSON: {exc}", file=sys.stderr)
        return 2
    registry = default_registry()
    engine = TransformationEngine(ModelRepository(resource))
    gmt = registry.get(args.concern)
    cmt = gmt.specialize(**parameters)
    result = engine.apply(cmt)
    print(f"applied {result.transformation}")
    print(f"  concern:          {result.concern}")
    print(f"  elements created: {result.created_elements}")
    print(f"  trace links:      {result.trace_links}")
    print(engine.repository.demarcation.report())
    if args.out:
        write_xmi(resource, args.out)
        print(f"refined model written to {args.out}")
    return 0


def _cmd_pipeline(args) -> int:
    from repro.pipeline import ConfigurationPlan, PipelineExecutor, Scheduler

    resource = _load(args.model)
    try:
        with open(args.plan, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except json.JSONDecodeError as exc:
        print(f"error: plan file is not valid JSON: {exc}", file=sys.stderr)
        return 2
    plan = ConfigurationPlan.from_config(config)
    steps = plan.bind(default_registry())
    schedule = Scheduler().schedule(steps)
    print(schedule.describe())
    repository = ModelRepository(resource)
    repository.commit("initial PIM")
    executor = PipelineExecutor(repository)
    result = executor.run(schedule)
    print(result.report())
    print(repository.demarcation.report())
    if args.out:
        write_xmi(resource, args.out)
        print(f"refined model written to {args.out}")
    return 0


def _cmd_generate(args) -> int:
    resource = _load(args.model)
    source = generate_module(resource.roots[0])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(source)
        print(f"functional module written to {args.out}")
    else:
        print(source)
    return 0


def _cmd_fingerprint(args) -> int:
    resource = _load(args.model)
    for line in model_fingerprint(resource):
        print(line)
    return 0


def _load_spec(path: str):
    from repro.deploy import DeploymentSpec

    with open(path, "r", encoding="utf-8") as handle:
        return DeploymentSpec.from_json(handle.read())


def _cmd_deploy(args) -> int:
    from repro.deploy import DeploymentCompiler, DeploymentDiff
    from repro.deploy import apply as apply_spec

    spec = _load_spec(args.spec)
    spec.validate()
    print(spec.describe())
    if args.check:
        print("spec is valid")
        return 0
    if args.diff:
        target = _load_spec(args.diff)
        diff = DeploymentDiff.between(spec, target)
        print(diff.describe())
        print(diff.plan().describe())
        return 0
    compiler = DeploymentCompiler()
    if args.apply:
        target = _load_spec(args.apply)
        federation = compiler.deploy(spec)
        try:
            plan = apply_spec(federation, target)
            print(plan.describe())
            drift = DeploymentDiff.between(
                federation.current_spec(), target
            )
            if not drift.empty:
                print("reconciliation did NOT converge:")
                print(drift.describe())
                return 1
            print(
                f"reconciled onto {target.name!r}: "
                f"{len(federation.nodes)} node(s), "
                f"epoch {federation.naming.epoch}, converged"
            )
        finally:
            federation.shutdown()
        return 0
    # default: dry-run compile — print the ordered bootstrap plan
    print(compiler.compile(spec).describe())
    return 0


def _cmd_simulate(args) -> int:
    from repro.runtime import RunConfig, ScenarioRunner

    open_loop = None
    overrides = {
        "users": args.users,
        "arrival": args.arrival,
        "zipf_s": args.zipf_s,
        "max_lateness_ms": args.max_lateness_ms,
        "service_time_ms": args.service_time_ms,
    }
    given = {key: value for key, value in overrides.items() if value is not None}
    if args.open_loop:
        open_loop = given
    elif given:
        flags = ", ".join(f"--{key.replace('_', '-')}" for key in sorted(given))
        print(f"error: {flags} only make sense with --open-loop", file=sys.stderr)
        return 2
    config = RunConfig(
        scenario=args.scenario,
        nodes=args.nodes,
        clients=args.clients,
        ops=args.ops,
        seed=args.seed,
        workers=args.workers,
        concurrent=not args.serial,
        sim_latency_ms=args.sim_latency_ms,
        real_latency_ms=args.latency_ms,
        faults=args.faults,
        entities_per_node=args.entities_per_node,
        window=args.window,
        delivery_workers=args.delivery_workers,
        transport=args.transport,
        churn=args.churn,
        trace=args.trace or bool(args.trace_out),
        open_loop=open_loop,
    )
    runner = ScenarioRunner(args.scenario, config)
    if args.describe:
        # validate + describe only: the full run configuration including
        # the deployment spec digest, without building or running
        print(json.dumps(config.describe(), indent=2))
        return 0
    result = runner.run()
    print(result.report())
    print(f"  digest:     {result.digest()}")
    if result.trace is not None:
        tracer = result.trace["tracer"]
        print(
            f"  trace:      {tracer['span_count']} span(s), "
            f"{tracer['slow_spans']} slow, {tracer['dropped']} dropped, "
            f"{len(result.trace['events'])} event(s)"
        )
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(result.trace, handle, indent=2)
        print(f"trace written to {args.trace_out}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result.to_dict(), handle, indent=2)
        print(f"results written to {args.json}")
    return 0 if result.passed else 1


def _render_span(span, depth: int) -> str:
    indent = "  " + "  " * depth
    where = f" @{span['target']}" if span.get("target") else ""
    attempt = f" attempt={span['attempt']}" if span.get("attempt") else ""
    status = span.get("status", "?")
    error = f" error={span['error']}" if span.get("error") else ""
    slow = " SLOW" if span.get("slow") else ""
    events = ""
    if span.get("events"):
        events = " [" + ", ".join(e.get("event", "?") for e in span["events"]) + "]"
    return (
        f"{indent}{span['name']} ({span['kind']}{where}){attempt} "
        f"{span['duration_ms']:.3f} ms {status}{error}{slow}{events}"
    )


def _render_trace(spans, trace_id: str) -> List[str]:
    """One trace's spans as an indented tree (orphans become roots)."""
    mine = [s for s in spans if s["trace_id"] == trace_id]
    by_id = {s["span_id"]: s for s in mine}
    children = {}
    roots = []
    for span in mine:
        parent = span.get("parent_id")
        if parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
    lines = [f"trace {trace_id}:"]

    def walk(span, depth):
        lines.append(_render_span(span, depth))
        for child in children.get(span["span_id"], []):
            walk(child, depth + 1)

    # client roots finish last but should print first: sort roots so the
    # span that *started* the trace (client kind, then hops) leads
    order = {"client": 0, "hop": 1, "bus": 2}
    for root in sorted(roots, key=lambda s: order.get(s["kind"], 3)):
        walk(root, 0)
    return lines


def _cmd_node(args) -> int:
    if args.node_command == "serve":
        from repro.runtime.procfed import serve_node

        return serve_node(
            args.name,
            endpoint=args.endpoint,
            workers=args.workers,
            seed=args.seed,
        )
    raise ReproError(f"unknown node command {args.node_command!r}")


def _cmd_trace(args) -> int:
    with open(args.results, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    # accept either a full simulate --json results file or a bare
    # --trace-out export; both carry the same observability payload
    payload = data.get("trace", data) if isinstance(data, dict) else None
    tracer = payload.get("tracer") if isinstance(payload, dict) else None
    if not tracer:
        print(
            "error: no trace data in file (run simulate with --trace)",
            file=sys.stderr,
        )
        return 2
    spans = tracer.get("spans", [])
    print(
        f"{tracer.get('span_count', len(spans))} span(s), "
        f"{tracer.get('slow_spans', 0)} slow, "
        f"{tracer.get('dropped', 0)} dropped, "
        f"{len(payload.get('events', []))} event(s)"
    )
    if args.trace_id:
        ids = [args.trace_id]
    elif args.errors:
        seen = {}
        for span in spans:
            if span.get("status") == "error":
                seen.setdefault(span["trace_id"], None)
        ids = list(seen)[-args.slowest:]
        if not ids:
            print("no erroring traces")
            return 0
    else:
        worst = {}
        for span in spans:
            if span["duration_ms"] > worst.get(span["trace_id"], -1.0):
                worst[span["trace_id"]] = span["duration_ms"]
        ids = sorted(worst, key=lambda t: worst[t], reverse=True)[:args.slowest]
    shown = 0
    for trace_id in ids:
        lines = _render_trace(spans, trace_id)
        if len(lines) == 1:
            print(f"trace {trace_id}: no spans in buffer")
            continue
        print("\n".join(lines))
        shown += 1
    return 0 if shown or not ids else 1


def _cmd_analyze(args) -> int:
    from repro.analysis.check import run_check

    paths = list(args.paths)
    if not paths:
        paths = [str(Path(__file__).resolve().parent)]
    baseline = args.baseline
    if baseline is None and not args.no_baseline:
        for candidate in (
            Path("tools/concurrency_baseline.json"),
            Path(__file__).resolve().parents[2] / "tools" / "concurrency_baseline.json",
        ):
            if candidate.exists():
                baseline = str(candidate)
                break
    return run_check(
        paths,
        baseline_path=None if args.no_baseline else baseline,
        update_baseline=args.update_baseline,
        show_graph=args.graph,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Concern-oriented MDA tooling (MIDDLEWARE'03 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "concerns",
        help="list registered concerns and their configuration wizards",
        description="Print every registered concern with its wizard "
        "transcript: the ordered questions whose answers form the "
        "parameter set Si of the concern's generic transformation.",
    )

    info = sub.add_parser(
        "info",
        help="summarize an XMI model",
        description="Load an XMI model and print its element counts "
        "(packages, classes, operations, attributes) plus the applied "
        "stereotypes per class.",
    )
    info.add_argument("model", help="path to the XMI model file")

    check = sub.add_parser(
        "validate",
        help="well-formedness check an XMI model",
        description="Run the metamodel validator; prints each violation "
        "and exits 1 if the model is not well-formed.",
    )
    check.add_argument("model", help="path to the XMI model file")

    apply_cmd = sub.add_parser(
        "apply",
        help="apply one concern's transformation to a model",
        description="Specialize the named concern's generic "
        "transformation with --params (the parameter set Si) and apply "
        "it through the full engine path: OCL preconditions, rules, "
        "postconditions, demarcation report.",
    )
    apply_cmd.add_argument("model", help="path to the XMI model file")
    apply_cmd.add_argument(
        "--concern",
        required=True,
        help="registered concern to apply (see the 'concerns' subcommand)",
    )
    apply_cmd.add_argument(
        "--params", default="", help="JSON object with the parameter set Si"
    )
    apply_cmd.add_argument(
        "--out", default="", help="write the refined model to this XMI file"
    )

    pipeline = sub.add_parser(
        "pipeline",
        help="apply a multi-concern plan through the batched pipeline",
        description="Run a JSON configuration plan through the "
        "plan/schedule/execute pass-manager: independent concerns are "
        "batched, each batch gets one demarcated savepoint, and cache "
        "statistics are reported.",
    )
    pipeline.add_argument("model", help="path to the XMI model file")
    pipeline.add_argument(
        "--plan",
        required=True,
        help="JSON file with the concern selections (list of "
        '{"concern", "params", "after"} objects)',
    )
    pipeline.add_argument(
        "--out", default="", help="write the refined model to this XMI file"
    )

    generate = sub.add_parser(
        "generate",
        help="emit the functional Python module for a model",
        description="Generate the concern-free functional Python module "
        "(classes, attributes, PythonBody operations) for the model.",
    )
    generate.add_argument("model", help="path to the XMI model file")
    generate.add_argument(
        "--out", default="", help="write the generated source here (default: stdout)"
    )

    fingerprint = sub.add_parser(
        "fingerprint",
        help="print the uuid-free structural fingerprint of a model",
        description="Print the sorted structural fingerprint used to "
        "verify that a replayed component package matches the shipped "
        "final model (stable across XMI re-exports).",
    )
    fingerprint.add_argument("model", help="path to the XMI model file")

    deploy = sub.add_parser(
        "deploy",
        help="validate, compile, diff, or apply a declarative deployment spec",
        description="Drive the declarative deployment API: load a "
        "DeploymentSpec JSON file and either validate it (--check), "
        "print the ordered bootstrap plan a deployment would execute "
        "(default dry-run), print the spec diff and migration plan "
        "against a second spec (--diff), or materialize the spec as a "
        "live simulated federation and reconcile it onto a target spec "
        "(--apply), verifying that the topology converged.",
    )
    deploy.add_argument("--spec", required=True, help="deployment spec JSON file")
    deploy_mode = deploy.add_mutually_exclusive_group()
    deploy_mode.add_argument(
        "--check",
        action="store_true",
        help="validate the spec and print its summary/digest, then exit",
    )
    deploy_mode.add_argument(
        "--diff",
        default="",
        metavar="TARGET_SPEC",
        help="print the structural diff and ordered migration plan from "
        "--spec to this target spec (no federation is built)",
    )
    deploy_mode.add_argument(
        "--apply",
        default="",
        metavar="TARGET_SPEC",
        help="deploy --spec as a live simulated federation, reconcile it "
        "onto this target spec (diff -> migration plan -> elastic "
        "actions), and verify the live topology converged",
    )

    simulate = sub.add_parser(
        "simulate",
        help="run a built-in scenario on a multi-node federation under load",
        description="Build an N-node ORB federation, deploy the "
        "scenario's configured application on every node, drive seeded "
        "concurrent clients against it (optionally with fault injection "
        "and membership churn), then check the scenario's invariants "
        "against the servants' actual state.  Exits 1 on any invariant "
        "violation.",
    )
    simulate.add_argument(
        "--scenario",
        required=True,
        help="scenario name: banking, banking_openloop, banking_async, "
        "banking_elastic, auction, medical_records, component_shipping",
    )
    simulate.add_argument(
        "--nodes", type=int, default=3, help="federation size (ORB nodes)"
    )
    simulate.add_argument(
        "--clients", type=int, default=8, help="closed-loop client count"
    )
    simulate.add_argument(
        "--ops",
        type=int,
        default=400,
        help="total operations, split evenly across clients",
    )
    simulate.add_argument(
        "--seed",
        type=int,
        default=1,
        help="RNG seed for client mixes and fault injection (sequential "
        "runs are digest-deterministic per seed)",
    )
    simulate.add_argument(
        "--workers", type=int, default=4, help="dispatcher worker threads per node"
    )
    simulate.add_argument(
        "--serial",
        action="store_true",
        help="sequential dispatch (deterministic baseline; one client "
        "thread, serial dispatchers)",
    )
    simulate.add_argument(
        "--faults",
        action="store_true",
        help="arm the scenario's fault campaign (wildcard sites such as "
        "bus.* at the scenario's probabilities)",
    )
    simulate.add_argument(
        "--churn",
        action="store_true",
        help="arm the scenario's churn plan: membership events (node "
        "kill with replicated failover, live join with shard migration, "
        "graceful retire) fired at fixed points in the op stream — "
        "scenarios without a churn plan reject this flag",
    )
    simulate.add_argument(
        "--latency-ms",
        type=float,
        default=0.3,
        dest="latency_ms",
        help="real (slept) transport latency per federation hop, in ms",
    )
    simulate.add_argument(
        "--sim-latency-ms",
        type=float,
        default=0.5,
        dest="sim_latency_ms",
        help="simulated-clock transport latency per federation hop, in ms",
    )
    simulate.add_argument(
        "--entities-per-node",
        type=int,
        default=2,
        dest="entities_per_node",
        help="scenario entities (branches, auctions, ...) created per node",
    )
    simulate.add_argument(
        "--window",
        type=int,
        default=4,
        help="max in-flight async replies per client before the oldest "
        "is resolved (async scenarios)",
    )
    simulate.add_argument(
        "--delivery-workers",
        type=int,
        default=2,
        dest="delivery_workers",
        help="delivery threads of the federation's queued (async) transport",
    )
    simulate.add_argument(
        "--transport",
        choices=("inproc", "socket"),
        default="inproc",
        help="how routed federation hops travel: 'inproc' calls the "
        "owner node directly (default), 'socket' sends every hop "
        "through a real wire connection to the owner node's listener "
        "(full marshalling, framing, and fault conversion — the same "
        "interceptor chain runs unmodified)",
    )
    simulate.add_argument(
        "--trace",
        action="store_true",
        help="enable distributed tracing: every logical client call gets "
        "a deterministic trace id and a span per federation hop, retry, "
        "and servant dispatch (run-level toggle — digests are unchanged)",
    )
    simulate.add_argument(
        "--trace-out",
        default="",
        dest="trace_out",
        metavar="PATH",
        help="write the observability export (spans, events, gauges) as "
        "JSON here; implies --trace (render it with the 'trace' command)",
    )
    simulate.add_argument(
        "--open-loop",
        action="store_true",
        dest="open_loop",
        help="drive the scenario open-loop on virtual time: an arrival "
        "schedule offers operations regardless of completions (simulated "
        "users, Zipf-hot shards, bounded-lateness admission — overload "
        "sheds instead of collapsing); --ops is the total offered "
        "arrivals and think time is rejected",
    )
    simulate.add_argument(
        "--users",
        type=int,
        default=None,
        help="simulated-user population for --open-loop (state machines, "
        "not threads — millions are fine)",
    )
    simulate.add_argument(
        "--arrival",
        default=None,
        help="offered-load shape for --open-loop: constant:RATE, "
        "poisson:RATE, bursty:BASE:BURST:PERIOD_MS[:DUTY], or "
        "diurnal:MEAN:AMPLITUDE:PERIOD_MS (rates in ops/s, periods in "
        "virtual ms)",
    )
    simulate.add_argument(
        "--zipf-s",
        type=float,
        default=None,
        dest="zipf_s",
        help="Zipf popularity exponent over the scenario's partitions "
        "for --open-loop (0 = uniform; larger = hotter hot shard)",
    )
    simulate.add_argument(
        "--max-lateness-ms",
        type=float,
        default=None,
        dest="max_lateness_ms",
        help="bounded-lateness admission for --open-loop: an arrival "
        "predicted to wait longer than this is shed, not queued",
    )
    simulate.add_argument(
        "--service-time-ms",
        type=float,
        default=None,
        dest="service_time_ms",
        help="modeled virtual service time per operation and dispatcher "
        "channel for --open-loop",
    )
    simulate.add_argument(
        "--json", default="", help="write the full machine-readable results here"
    )
    simulate.add_argument(
        "--describe",
        action="store_true",
        help="print the run configuration (including the deployment spec "
        "digest for spec-declared scenarios) as JSON and exit without "
        "running",
    )

    node_cmd = sub.add_parser(
        "node",
        help="worker node process management (multi-process federations)",
        description="Host one federation worker in this process: bind a "
        "wire listener, announce the endpoint on stdout as "
        "'REPRO-NODE <name> <endpoint>', and serve requests until a "
        "control 'stop' arrives.  The application arrives over the "
        "wire as a shipped component package — spawned and driven by "
        "ProcessFederation, or by hand for debugging.",
    )
    node_sub = node_cmd.add_subparsers(
        dest="node_command",
        required=True,
        metavar="ACTION",
        help="node action: 'serve' hosts one worker in this process",
    )
    node_serve = node_sub.add_parser(
        "serve",
        help="serve one worker node until stopped over the wire",
    )
    node_serve.add_argument(
        "--name", required=True, help="federation node name"
    )
    node_serve.add_argument(
        "--endpoint",
        default="tcp://127.0.0.1:0",
        help="listen endpoint: tcp://host:port (port 0 = OS-assigned) "
        "or unix:///path/to.sock (default tcp://127.0.0.1:0)",
    )
    node_serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="dispatcher worker threads (0 = serial dispatch)",
    )
    node_serve.add_argument(
        "--seed", type=int, default=0, help="node middleware services seed"
    )

    trace_cmd = sub.add_parser(
        "trace",
        help="render span trees from a traced simulate run",
        description="Read the results of a traced run (simulate --trace "
        "--json FILE, or the bare export from --trace-out) and render "
        "the span trees of the slowest calls — or of erroring calls "
        "with --errors, or of one specific call with --trace-id.  Each "
        "line shows the span's name, kind, serving node, attempt "
        "number, duration, status, and recorded events (retries, "
        "failover promotions, migration-gate waits, batch membership).",
    )
    trace_cmd.add_argument(
        "results",
        help="JSON file from 'simulate --trace --json FILE' or '--trace-out PATH'",
    )
    trace_cmd.add_argument(
        "--slowest",
        type=int,
        default=3,
        help="how many traces to render, ranked by slowest span (default 3)",
    )
    trace_cmd.add_argument(
        "--errors",
        action="store_true",
        help="render traces containing at least one error span instead "
        "of the slowest ones",
    )
    trace_cmd.add_argument(
        "--trace-id",
        default="",
        dest="trace_id",
        help="render exactly this trace id",
    )

    analyze = sub.add_parser(
        "analyze",
        help="static lock-order + guarded-by concurrency analysis",
        description="Scan Python packages for lock declarations, build "
        "the interprocedural acquired-while-holding graph, and report "
        "potential deadlock cycles, guarded-by violations, and drift "
        "against the checked-in lock-hierarchy baseline "
        "(tools/concurrency_baseline.json).  Exits 0 when clean, 1 on "
        "findings, 2 on usage errors.",
    )
    analyze.add_argument(
        "paths",
        nargs="*",
        help="packages or files to analyze (default: the installed "
        "repro package)",
    )
    analyze.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON (default: tools/concurrency_baseline.json "
        "when it exists)",
    )
    analyze.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip baseline drift checking (cycles + guarded-by only)",
    )
    analyze.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline's edge set from the current tree",
    )
    analyze.add_argument(
        "--graph",
        action="store_true",
        help="print the acquired-while-holding graph before findings",
    )
    return parser


_COMMANDS = {
    "concerns": _cmd_concerns,
    "info": _cmd_info,
    "validate": _cmd_validate,
    "apply": _cmd_apply,
    "pipeline": _cmd_pipeline,
    "generate": _cmd_generate,
    "fingerprint": _cmd_fingerprint,
    "simulate": _cmd_simulate,
    "deploy": _cmd_deploy,
    "node": _cmd_node,
    "trace": _cmd_trace,
    "analyze": _cmd_analyze,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

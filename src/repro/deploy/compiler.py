"""Compile a :class:`~repro.deploy.spec.DeploymentSpec` into a running federation.

The compiler is the single seam between the declarative model and the
runtime: ``deploy(spec) -> Federation``.  Lowering happens in two
phases, mirroring the configuration pipeline's plan/schedule/execute
split:

1. :meth:`DeploymentCompiler.compile` — *no side effects*: validate the
   spec, resolve the application PIM (builder registry or XMI file),
   bind the concern selections as a
   :class:`~repro.pipeline.ConfigurationPlan`, and schedule them through
   the pipeline's precedence DAG.  The result is a
   :class:`BootstrapPlan` — the ordered step list a deployment will
   execute, inspectable before anything runs (the CLI's dry-run).

2. :meth:`DeploymentCompiler.deploy` — execute the bootstrap plan:
   create the federation, refine the application *once* on a vendor
   lifecycle (driven through the batched pipeline executor), ship it as
   a :class:`~repro.core.shipping.ComponentPackage`, and replay that
   package on every node — so all members (including any node that
   joins later) host the byte-identical artifact.  Then materialize
   servants from their :class:`~repro.deploy.spec.ServantSpec` state,
   provision users, register read-only operation classifications
   (mutation tracking for replication narrowing), declare per-binding
   QoS defaults, arm the fault campaign, and enable replication.

``extract_spec`` is the inverse projection: a live federation back into
a :class:`DeploymentSpec` (``Federation.current_spec()``), which is what
the reconciler diffs a target spec against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.deploy.spec import (
    ApplicationSpec,
    DeploymentSpec,
    FaultCampaignSpec,
    FaultSiteSpec,
    NodeSpec,
    ObservabilitySpec,
    PartitionSpec,
    ReplicationSpec,
    ServantSpec,
    UserSpec,
)
from repro.errors import DeploymentError, ReproError

#: registered application builders: name -> () -> ModelResource
_BUILDERS: Dict[str, Callable[[], Any]] = {}

SCENARIO_BUILDER_PREFIX = "scenario:"


def register_application(name: str, builder: Callable[[], Any]) -> None:
    """Register a PIM builder under ``name`` for specs to reference."""
    _BUILDERS[name] = builder


def resolve_application(app: ApplicationSpec):
    """The application's PIM resource (builder registry, scenario, or XMI)."""
    if app.builder is not None:
        builder = _BUILDERS.get(app.builder)
        if builder is not None:
            return builder()
        if app.builder.startswith(SCENARIO_BUILDER_PREFIX):
            from repro.runtime.scenarios import get_scenario

            scenario_name = app.builder[len(SCENARIO_BUILDER_PREFIX):]
            try:
                return get_scenario(scenario_name).build_pim()
            except ReproError as exc:
                raise DeploymentError(
                    f"application builder {app.builder!r} failed: {exc}"
                ) from exc
        raise DeploymentError(
            f"unknown application builder {app.builder!r} "
            f"(register one, or use '{SCENARIO_BUILDER_PREFIX}<name>')"
        )
    from repro.uml import UML
    from repro.xmi import read_xmi

    try:
        return read_xmi(app.model_xmi, UML.package)
    except (OSError, ReproError) as exc:
        raise DeploymentError(
            f"application model {app.model_xmi!r} could not be loaded: {exc}"
        ) from exc


def concern_plan(app: ApplicationSpec):
    """Lower the concern selections into the pipeline's plan IR."""
    from repro.pipeline import ConfigurationPlan

    plan = ConfigurationPlan()
    for concern in app.concerns:
        plan.select(concern.concern, after=concern.after, **concern.params)
    return plan


@dataclass
class BootstrapStep:
    """One ordered action of a deployment bootstrap."""

    kind: str
    detail: str

    def __str__(self):
        return f"{self.kind}: {self.detail}"


@dataclass
class BootstrapPlan:
    """The executable lowering of a spec — inspectable before it runs."""

    spec: DeploymentSpec
    steps: List[BootstrapStep] = field(default_factory=list)
    #: the scheduled concern batches (pipeline Schedule), for reporting
    schedule: Any = None
    #: the resolved PIM resource and bound concern plan — deploy()
    #: refines exactly these, so the (possibly expensive) application
    #: resolution happens once per deployment, not once per phase
    resource: Any = None
    concern_plan: Any = None

    def add(self, kind: str, detail: str) -> None:
        self.steps.append(BootstrapStep(kind, detail))

    def describe(self) -> str:
        lines = [f"bootstrap plan for {self.spec.name!r} ({len(self.steps)} steps):"]
        lines.extend(f"  {i + 1:2d}. {step}" for i, step in enumerate(self.steps))
        return "\n".join(lines)


class DeploymentCompiler:
    """Turns a validated spec into a bootstrap plan and a live federation."""

    def __init__(self, registry=None):
        if registry is None:
            from repro.core.registry import default_registry

            registry = default_registry()
        self.registry = registry

    # -- phase 1: lowering (no side effects) ------------------------------------

    def compile(self, spec: DeploymentSpec) -> BootstrapPlan:
        """Validate + lower: application resolved, concerns scheduled,
        bootstrap steps ordered.  Touches nothing live."""
        spec.validate()
        from repro.pipeline import Scheduler

        resource = resolve_application(spec.application)
        plan = BootstrapPlan(spec)
        cplan = concern_plan(spec.application)
        steps = cplan.bind(self.registry)
        schedule = Scheduler().schedule(steps)
        plan.schedule = schedule
        plan.resource = resource
        plan.concern_plan = cplan
        model = resource.roots[0]
        plan.add(
            "application",
            f"refine {model.name!r} through {len(spec.application.concerns)} "
            f"concern(s) in {len(schedule.batches)} pipeline batch(es); "
            "ship once, replay per node",
        )
        for node in spec.nodes:
            mode = f"{node.workers} workers" if node.workers else "serial"
            plan.add("node", f"create {node.name!r} ({mode})")
        for partition in spec.partitions:
            plan.add(
                "partition",
                f"bind {len(partition.servants)} servant(s) under "
                f"{partition.key!r}",
            )
        for user in spec.users:
            plan.add("user", f"provision {user.name!r} roles={list(user.roles)}")
        read_only = spec.read_only_by_type()
        if any(read_only.values()):
            plan.add(
                "classification",
                "mark read-only ops: "
                + ", ".join(
                    f"{type_name}={sorted(ops)}"
                    for type_name, ops in sorted(read_only.items())
                    if ops
                ),
            )
        for pattern, profile in self._binding_qos(spec):
            plan.add("qos", f"default {profile.name!r} for bindings {pattern!r}")
        for site in spec.faults.effective_sites():
            plan.add("fault", f"arm {site.site!r} p={site.probability}")
        if spec.replication.count > 0:
            plan.add(
                "replication",
                f"enable {spec.replication.count} standby(s) per partition, "
                f"log (snapshot every {spec.replication.snapshot_every})",
            )
        obs = spec.observability
        plan.add(
            "observability",
            f"sample {obs.sample_rate:.0%} of traces, slow-call threshold "
            f"{obs.slow_call_ms:g} ms, event log <= {obs.event_log_capacity}, "
            f"span ring <= {obs.span_capacity}",
        )
        return plan

    @staticmethod
    def _binding_qos(spec: DeploymentSpec):
        """(binding pattern, QoSProfile) pairs declared by servant specs."""
        pairs = []
        for _partition, servant in spec.servants():
            if servant.qos is not None:
                pairs.append((servant.name, spec.profile(servant.qos)))
        return pairs

    # -- phase 2: materialization -------------------------------------------------

    def deploy(self, spec: DeploymentSpec, metrics=None):
        """Materialize ``spec`` as a live :class:`Federation`."""
        from repro.runtime.federation import Federation

        bootstrap = self.compile(spec)
        federation = Federation(
            seed=spec.seed,
            latency_ms=spec.sim_latency_ms,
            real_latency_s=spec.real_latency_ms / 1000.0,
            metrics=metrics,
            delivery_workers=spec.delivery_workers,
            transport=spec.transport,
        )
        try:
            for index, node_spec in enumerate(spec.nodes):
                federation.add_node(
                    node_spec.name,
                    workers=node_spec.workers,
                    seed=self.node_seed(spec, index),
                )
            self.populate(federation, bootstrap)
            return federation
        except BaseException:
            federation.shutdown()
            raise

    @staticmethod
    def node_seed(spec: DeploymentSpec, index: int) -> int:
        """The seed of ``spec.nodes[index]`` (derived unless pinned)."""
        node_spec = spec.nodes[index]
        if node_spec.seed is not None:
            return node_spec.seed
        return spec.seed * 31 + index

    def populate(self, federation, bootstrap: BootstrapPlan) -> None:
        """Run ``bootstrap`` on a federation whose nodes already exist —
        in-process nodes or worker processes alike."""
        from repro.core import MdaLifecycle, MiddlewareServices, ship

        spec = bootstrap.spec
        # the vendor side refines once, through the pipeline — on the
        # resource the compile phase already resolved; every node
        # replays the shipped package against its own services
        vendor = MdaLifecycle(
            bootstrap.resource,
            registry=self.registry,
            services=MiddlewareServices.create(),
        )
        if spec.application.concerns:
            vendor.apply_plan(bootstrap.concern_plan)
        federation.app_package = ship(vendor)
        for node in federation.nodes.values():
            self.deploy_node(federation, node)
        for type_name, ops in sorted(spec.read_only_by_type().items()):
            if ops:
                federation.mark_read_only(type_name, ops)
        for partition in spec.partitions:
            owner = federation.node_for(partition.key)
            for servant in partition.servants:
                owner.create(servant.name, servant.type_name, servant.state)
        for user in spec.users:
            federation.add_user(user.name, user.password, roles=user.roles)
        federation.replace_binding_qos(
            [
                (pattern, profile.to_qos())
                for pattern, profile in self._binding_qos(spec)
            ],
            client=(
                spec.profile(spec.client_qos).to_qos()
                if spec.client_qos is not None
                else None
            ),
        )
        for site in spec.faults.effective_sites():
            federation.configure_fault(site.site, site.probability)
        if spec.replication.count > 0:
            federation.enable_replication(
                spec.replication.count,
                snapshot_every=spec.replication.snapshot_every,
            )
        federation.observability.configure(spec.observability)
        federation.spec = spec
        federation.bootstrap_plan = bootstrap

    @staticmethod
    def deploy_node(federation, node) -> None:
        """Replay the federation's shipped application onto one node."""
        if federation.app_package is None:
            raise DeploymentError(
                "federation has no shipped application package to replay"
            )
        node.install(federation.app_package)


# ---------------------------------------------------------------------------
# live topology -> spec (the reconciler's "current" side)
# ---------------------------------------------------------------------------


def extract_spec(federation, include_state: bool = False) -> DeploymentSpec:
    """Project a live federation back into a :class:`DeploymentSpec`.

    Structure (nodes, partitions, servant names/types/classification,
    replication, armed fault sites, users) is re-read from the live
    topology; the application section and QoS declarations are taken
    from the spec the federation was compiled from (they cannot drift at
    runtime).  ``include_state`` snapshots each servant's attribute dict
    — useful as a manifest view, but mutable state never participates
    in structural diffs.
    """
    from repro.runtime.federation import ShardedNamingService

    deployed: Optional[DeploymentSpec] = federation.spec
    if deployed is not None:
        application = deployed.application
        qos_profiles = deployed.qos_profiles
        client_qos = deployed.client_qos
        name = deployed.name
        servant_qos = {
            servant.name: servant.qos
            for _partition, servant in deployed.servants()
        }
    else:
        application = ApplicationSpec(name="adopted", builder="adopted")
        qos_profiles = ()
        client_qos = None
        name = "extracted"
        servant_qos = {}

    nodes = tuple(
        NodeSpec(name=node.name, workers=node.workers, seed=node.seed)
        for node in sorted(federation.nodes.values(), key=lambda n: n.name)
    )
    grouped: Dict[str, List[str]] = {}
    for bound in federation.naming.list():
        grouped.setdefault(
            ShardedNamingService.partition_key(bound), []
        ).append(bound)
    read_only = {
        type_name: tuple(sorted(ops))
        for type_name, ops in federation.read_only_ops.items()
    }
    partitions = []
    for key in sorted(grouped):
        servants = []
        for bound in sorted(grouped[key]):
            servant = federation.servant(bound)
            type_name = type(servant).__name__
            state: Dict[str, Any] = {}
            if include_state:
                state = dict(servant.__dict__)
            servants.append(
                ServantSpec(
                    name=bound,
                    type_name=type_name,
                    state=state,
                    read_only_ops=read_only.get(type_name, ()),
                    qos=servant_qos.get(bound),
                )
            )
        partitions.append(
            PartitionSpec(
                key=key,
                servants=tuple(servants),
                node=federation.naming.owner_of(key),
            )
        )
    return DeploymentSpec(
        name=name,
        application=application,
        nodes=nodes,
        partitions=tuple(partitions),
        replication=(
            ReplicationSpec(
                count=federation.replicas.count,
                snapshot_every=federation.replicas.snapshot_every,
            )
            if federation.replicas
            else ReplicationSpec()
        ),
        # the federation's fault log is append-only (reconfigured sites
        # are re-appended); collapse it last-wins so the extracted spec
        # has unique sites and passes its own validate()
        faults=FaultCampaignSpec(
            sites=tuple(
                FaultSiteSpec(site=site, probability=probability)
                for site, probability in {
                    site: probability
                    for site, probability, _kwargs in federation._fault_sites
                }.items()
            ),
            armed=bool(federation._fault_sites),
        ),
        users=tuple(
            UserSpec(name=user, password=password, roles=tuple(roles))
            for user, password, roles in federation._provisioned_users
        ),
        qos_profiles=qos_profiles,
        client_qos=client_qos,
        observability=ObservabilitySpec(
            sample_rate=federation.observability.tracer.sample_rate,
            slow_call_ms=federation.observability.tracer.slow_call_ms,
            event_log_capacity=federation.observability.events.capacity,
            span_capacity=federation.observability.tracer.capacity,
        ),
        sim_latency_ms=federation.latency_ms,
        real_latency_ms=federation.real_latency_s * 1000.0,
        delivery_workers=federation.delivery_workers,
        seed=deployed.seed if deployed is not None else federation.seed,
        transport=federation.transport_mode,
    )


def timed_deploy(spec: DeploymentSpec, registry=None):
    """(federation, compile_s, bootstrap_s) — the benchmark's view."""
    compiler = DeploymentCompiler(registry=registry)
    started = time.perf_counter()
    compiler.compile(spec)
    compiled = time.perf_counter()
    federation = compiler.deploy(spec)
    deployed = time.perf_counter()
    return federation, compiled - started, deployed - compiled

"""Reconfiguration as data: spec diff → ordered migration plan.

Changing a running federation used to be hand-sequenced method calls
(``join``/``retire``/``enable_replication`` in the right order, with the
operator responsible for not stranding a partition).  The reconciler
replaces that with one entry point::

    plan = apply(federation, target_spec)

``DeploymentDiff.between(current, target)`` compares two specs
*structurally* — topology, servant placement and classification,
replication, effective fault sites — and compiles the difference into a
:class:`MigrationPlan`: an ordered list of elastic actions executed
through the existing migration-gate machinery (frozen partitions,
quiesced in-flight envelopes, atomic epoch swaps), so applying a plan
under live traffic fails no in-flight calls.

Plan order is canonical and capacity-safe: **additions before
removals**.  Joins run first and retires run last, so a diff that both
adds and removes nodes never shrinks the federation below the capacity
the surviving partitions (and replica placement) need — the
"retire-before-join strands a partition" failure mode is impossible by
construction.  Replication changes run after joins (standbys are placed
on the final ring) and before retires (the retiree's partitions are
already covered elsewhere).

Not every difference is migratable: a changed application (different
PIM source or concern plan), changed node workers, or a servant whose
type changed under the same name require a redeploy — the diff refuses
them with :class:`~repro.errors.DeploymentError` instead of guessing.
Mutable servant *state* and the advisory partition owner hints are
ignored: they describe runtime history, not desired topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.deploy.compiler import DeploymentCompiler
from repro.deploy.spec import DeploymentSpec, ServantSpec
from repro.errors import DeploymentError


@dataclass
class MigrationAction:
    """One step of a migration plan (kind + payload)."""

    kind: str
    detail: str
    payload: Dict[str, Any] = field(default_factory=dict)

    def __str__(self):
        return f"{self.kind}: {self.detail}"


@dataclass
class MigrationPlan:
    """Ordered elastic actions lowering one spec diff onto a federation."""

    current_digest: str
    target_digest: str
    actions: List[MigrationAction] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.actions

    def add(self, kind: str, detail: str, **payload) -> None:
        self.actions.append(MigrationAction(kind, detail, payload))

    def describe(self) -> str:
        if self.empty:
            return "migration plan: specs converge; nothing to do"
        lines = [f"migration plan ({len(self.actions)} action(s)):"]
        lines.extend(
            f"  {i + 1:2d}. {action}" for i, action in enumerate(self.actions)
        )
        return "\n".join(lines)

    # -- execution ----------------------------------------------------------------

    def execute(self, federation) -> None:
        """Run every action against ``federation``, in plan order, via
        the elastic machinery (gated migrations, epoch swaps)."""
        for action in self.actions:
            self._execute_one(federation, action)

    @staticmethod
    def _execute_one(federation, action: MigrationAction) -> None:
        payload = action.payload
        if action.kind == "join":
            federation.join(
                payload["node"],
                workers=payload["workers"],
                seed=payload["seed"],
                deploy=lambda node: DeploymentCompiler.deploy_node(
                    federation, node
                ),
            )
        elif action.kind == "retire":
            federation.retire(payload["node"])
        elif action.kind == "bind_servants":
            # classification is NOT touched here: the plan's
            # mark_read_only actions (ordered before the binds) carry
            # the per-type sets, spec-wide — a single servant's view
            # must never replace its type's classification
            for entry in payload["servants"]:
                servant_spec = ServantSpec.from_dict(entry)
                owner = federation.node_for(
                    federation.naming.partition_key(servant_spec.name)
                )
                owner.create(
                    servant_spec.name, servant_spec.type_name, servant_spec.state
                )
        elif action.kind == "unbind_servants":
            for name in payload["servants"]:
                node, ref = federation.resolve(name)
                node.services.naming.unbind(name)
                node.services.orb.unregister(
                    node.services.bus.servant(ref.object_id)
                )
        elif action.kind == "set_observability":
            from repro.deploy.spec import ObservabilitySpec

            federation.observability.configure(
                ObservabilitySpec.from_dict(payload["observability"])
            )
        elif action.kind == "set_replication":
            federation.set_replication(
                payload["count"],
                snapshot_every=payload.get("snapshot_every"),
            )
        elif action.kind == "set_binding_qos":
            from repro.deploy.spec import QoSProfile

            client = payload.get("client")
            federation.replace_binding_qos(
                (
                    (pattern, QoSProfile.from_dict(profile).to_qos())
                    for pattern, profile in payload["pairs"]
                ),
                client=(
                    QoSProfile.from_dict(client).to_qos()
                    if client is not None
                    else None
                ),
            )
        elif action.kind == "configure_fault":
            federation.configure_fault(
                payload["site"], payload["probability"]
            )
        elif action.kind == "mark_read_only":
            federation.mark_read_only(payload["type"], payload["ops"])
        elif action.kind == "add_user":
            federation.add_user(
                payload["name"], payload["password"], roles=payload["roles"]
            )
        else:  # pragma: no cover - plans are built by between()
            raise DeploymentError(f"unknown migration action {action.kind!r}")


class DeploymentDiff:
    """The structural difference between two deployment specs."""

    def __init__(self, current: DeploymentSpec, target: DeploymentSpec):
        self.current = current
        self.target = target
        self.added_nodes: List = []
        self.removed_nodes: List = []
        self.added_servants: List[ServantSpec] = []
        self.removed_servants: List[str] = []
        self.replication_change: Optional[Tuple[int, int]] = None
        #: the full target replication policy when anything about it
        #: changed (count raise or log snapshot-threshold retune)
        self.replication_target = None
        self.fault_changes: List[Tuple[str, float]] = []
        #: (type name, target read-only set) — one entry per type whose
        #: classification differs (replace semantics: an empty target
        #: set *clears* the type's classification)
        self.read_only_changes: List[Tuple[str, Tuple[str, ...]]] = []
        #: True when the resolved QoS declarations (per-binding defaults
        #: or the client profile) differ; the plan re-declares the table
        self.qos_changed = False
        #: users present only in the target (removals/changes are
        #: refused — credential revocation has no live migration path)
        self.added_users: List = []
        #: the target observability knobs when they differ (all four are
        #: live-tunable: sampling, slow-call threshold, ring capacities)
        self.observability_change = None

    # -- construction -------------------------------------------------------------

    @classmethod
    def between(
        cls, current: DeploymentSpec, target: DeploymentSpec
    ) -> "DeploymentDiff":
        """Compare ``current`` → ``target``; raises
        :class:`DeploymentError` for differences with no migration path."""
        target.validate()
        diff = cls(current, target)
        if current.application.to_dict() != target.application.to_dict():
            raise DeploymentError(
                "application changed between specs (PIM source or concern "
                "plan); reconfiguration cannot migrate code — redeploy"
            )
        current_nodes = {node.name: node for node in current.nodes}
        target_nodes = {node.name: node for node in target.nodes}
        for name in sorted(set(target_nodes) - set(current_nodes)):
            diff.added_nodes.append(target_nodes[name])
        for name in sorted(set(current_nodes) - set(target_nodes)):
            diff.removed_nodes.append(current_nodes[name])
        for name in sorted(set(current_nodes) & set(target_nodes)):
            if current_nodes[name].workers != target_nodes[name].workers:
                raise DeploymentError(
                    f"node {name!r} changed workers "
                    f"({current_nodes[name].workers} -> "
                    f"{target_nodes[name].workers}); dispatcher pools "
                    "cannot be resized live — retire and rejoin the node"
                )
        current_servants = {
            servant.name: servant for _p, servant in current.servants()
        }
        target_servants = {
            servant.name: servant for _p, servant in target.servants()
        }
        for name in sorted(set(target_servants) - set(current_servants)):
            diff.added_servants.append(target_servants[name])
        for name in sorted(set(current_servants) - set(target_servants)):
            diff.removed_servants.append(name)
        for name in sorted(set(current_servants) & set(target_servants)):
            before, after = current_servants[name], target_servants[name]
            if before.type_name != after.type_name:
                raise DeploymentError(
                    f"servant {name!r} changed type "
                    f"({before.type_name!r} -> {after.type_name!r}); "
                    "replace it (remove + add under a new name) instead"
                )
        # classification is per *type* (the bus granularity): one entry
        # per type whose union over the whole spec differs — including a
        # narrowed or cleared set, which must take effect on apply
        current_read_only = current.read_only_by_type()
        target_read_only = target.read_only_by_type()
        for type_name in sorted(set(current_read_only) | set(target_read_only)):
            if current_read_only.get(type_name, frozenset()) != (
                target_read_only.get(type_name, frozenset())
            ):
                diff.read_only_changes.append(
                    (
                        type_name,
                        tuple(sorted(target_read_only.get(type_name, ()))),
                    )
                )
        if cls._qos_table(current) != cls._qos_table(target):
            diff.qos_changed = True
        if (
            current.replication != target.replication
            and (current.replication.count or target.replication.count)
        ):
            if target.replication.count < current.replication.count:
                raise DeploymentError(
                    "replication count cannot be lowered live "
                    f"({current.replication.count} -> "
                    f"{target.replication.count}); standby state would be "
                    "dropped under traffic"
                )
            diff.replication_change = (
                current.replication.count,
                target.replication.count,
            )
            diff.replication_target = target.replication
        current_users = {user.name: user for user in current.users}
        target_users = {user.name: user for user in target.users}
        for name in sorted(set(target_users) - set(current_users)):
            diff.added_users.append(target_users[name])
        removed_users = sorted(set(current_users) - set(target_users))
        if removed_users:
            raise DeploymentError(
                f"user(s) {removed_users} removed between specs; credential "
                "revocation has no live migration path — redeploy"
            )
        for name in sorted(set(current_users) & set(target_users)):
            if current_users[name] != target_users[name]:
                raise DeploymentError(
                    f"user {name!r} changed password or roles between "
                    "specs; credential rotation has no live migration "
                    "path — redeploy"
                )
        for attr in ("sim_latency_ms", "real_latency_ms", "delivery_workers"):
            if getattr(current, attr) != getattr(target, attr):
                raise DeploymentError(
                    f"{attr} changed between specs "
                    f"({getattr(current, attr)} -> {getattr(target, attr)}); "
                    "transport parameters cannot be changed live — redeploy"
                )
        current_faults = {
            site.site: site.probability
            for site in current.faults.effective_sites()
        }
        target_faults = {
            site.site: site.probability
            for site in target.faults.effective_sites()
        }
        for site in sorted(set(target_faults) | set(current_faults)):
            before = current_faults.get(site, 0.0)
            after = target_faults.get(site, 0.0)
            if before != after:
                diff.fault_changes.append((site, after))
        if current.observability != target.observability:
            diff.observability_change = target.observability
        return diff

    @staticmethod
    def _qos_table(spec: DeploymentSpec):
        """The spec's resolved QoS declarations, comparable by value."""
        return {
            "bindings": {
                servant.name: spec.profile(servant.qos).to_dict()
                for _partition, servant in spec.servants()
                if servant.qos is not None
            },
            "client": (
                spec.profile(spec.client_qos).to_dict()
                if spec.client_qos is not None
                else None
            ),
        }

    @property
    def empty(self) -> bool:
        return not (
            self.added_nodes
            or self.removed_nodes
            or self.added_servants
            or self.removed_servants
            or self.replication_change
            or self.fault_changes
            or self.read_only_changes
            or self.qos_changed
            or self.added_users
            or self.observability_change
        )

    # -- lowering ----------------------------------------------------------------

    def plan(self) -> MigrationPlan:
        """Compile the diff into the canonically ordered migration plan:
        joins → servant/classification additions → replication → fault
        changes → servant removals → retires (additions strictly before
        removals, so capacity never shrinks before demand does)."""
        plan = MigrationPlan(
            current_digest=self.current.digest(),
            target_digest=self.target.digest(),
        )
        target_seed = self.target.seed
        for user in self.added_users:
            # ordered first: provisioning is remembered by the
            # federation, so nodes joined later in this same plan are
            # provisioned identically
            plan.add(
                "add_user",
                f"provision user {user.name!r} roles={list(user.roles)}",
                name=user.name,
                password=user.password,
                roles=list(user.roles),
            )
        for index, node in enumerate(self.added_nodes):
            plan.add(
                "join",
                f"join node {node.name!r} "
                f"({node.workers or 'serial'} workers)",
                node=node.name,
                workers=node.workers,
                seed=(
                    node.seed
                    if node.seed is not None
                    else target_seed * 31 + 97 + index
                ),
            )
        for type_name, ops in self.read_only_changes:
            plan.add(
                "mark_read_only",
                f"classify {type_name!r} read-only ops {sorted(ops)}",
                type=type_name,
                ops=list(ops),
            )
        if self.added_servants:
            plan.add(
                "bind_servants",
                f"bind {len(self.added_servants)} new servant(s): "
                + ", ".join(s.name for s in self.added_servants[:4])
                + ("..." if len(self.added_servants) > 4 else ""),
                servants=[s.to_dict() for s in self.added_servants],
            )
        if self.replication_change is not None:
            before, after = self.replication_change
            target = self.replication_target
            if after != before:
                detail = f"raise replication {before} -> {after} standby(s)"
            else:
                detail = (
                    "retune replication snapshot threshold -> "
                    f"{target.snapshot_every}"
                )
            plan.add(
                "set_replication",
                detail,
                count=after,
                snapshot_every=target.snapshot_every,
            )
        if self.qos_changed:
            from repro.deploy.compiler import DeploymentCompiler

            pairs = [
                [pattern, profile.to_dict()]
                for pattern, profile in DeploymentCompiler._binding_qos(
                    self.target
                )
            ]
            client_qos = self.target.client_qos
            plan.add(
                "set_binding_qos",
                f"re-declare per-binding QoS defaults ({len(pairs)} binding(s))",
                pairs=pairs,
                client=(
                    self.target.profile(client_qos).to_dict()
                    if client_qos is not None
                    else None
                ),
            )
        for site, probability in self.fault_changes:
            plan.add(
                "configure_fault",
                f"set fault site {site!r} p={probability}",
                site=site,
                probability=probability,
            )
        if self.observability_change is not None:
            obs = self.observability_change
            plan.add(
                "set_observability",
                f"retune observability (sample {obs.sample_rate:.0%}, "
                f"slow >= {obs.slow_call_ms:g} ms, events <= "
                f"{obs.event_log_capacity}, spans <= {obs.span_capacity})",
                observability=obs.to_dict(),
            )
        if self.removed_servants:
            plan.add(
                "unbind_servants",
                f"unbind {len(self.removed_servants)} servant(s)",
                servants=list(self.removed_servants),
            )
        for node in self.removed_nodes:
            plan.add("retire", f"retire node {node.name!r}", node=node.name)
        return plan

    def describe(self) -> str:
        if self.empty:
            return "specs converge: no structural difference"
        lines = ["spec diff:"]
        for node in self.added_nodes:
            lines.append(f"  + node {node.name}")
        for node in self.removed_nodes:
            lines.append(f"  - node {node.name}")
        for servant in self.added_servants:
            lines.append(f"  + servant {servant.name} ({servant.type_name})")
        for name in self.removed_servants:
            lines.append(f"  - servant {name}")
        if self.replication_change:
            before, after = self.replication_change
            lines.append(f"  ~ replication {before} -> {after}")
        for site, probability in self.fault_changes:
            lines.append(f"  ~ fault {site} -> p={probability}")
        for type_name, ops in self.read_only_changes:
            lines.append(f"  ~ read-only {type_name} -> {sorted(ops)}")
        if self.qos_changed:
            lines.append("  ~ QoS declarations changed")
        for user in self.added_users:
            lines.append(f"  + user {user.name}")
        if self.observability_change is not None:
            obs = self.observability_change
            lines.append(
                f"  ~ observability -> sample {obs.sample_rate:.0%}, "
                f"slow >= {obs.slow_call_ms:g} ms"
            )
        return "\n".join(lines)


def apply(federation, target: DeploymentSpec) -> MigrationPlan:
    """Reconcile a live federation onto ``target``: extract the current
    spec, diff, execute the migration plan, and adopt the target as the
    federation's declared spec.  Returns the executed plan (possibly
    empty — applying a converged spec is a no-op)."""
    current = federation.current_spec()
    diff = DeploymentDiff.between(current, target)
    plan = diff.plan()
    plan.execute(federation)
    federation.spec = target
    return plan

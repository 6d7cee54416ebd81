"""The declarative deployment model: what a federation *should* look like.

A :class:`DeploymentSpec` is the middleware configuration reified as
data — the paper's "configure from declarative models" claim applied to
deployment itself.  Where the PR 1 pipeline declares *which concerns*
refine an application, the deployment spec declares *where and how the
refined application runs*:

* topology — :class:`NodeSpec` per federation member;
* state placement — :class:`PartitionSpec`/:class:`ServantSpec`: every
  named servant with its type, initial state, and read-only operation
  classification (the dispatch layer's mutation-tracking input);
* the application — :class:`ApplicationSpec`: a PIM source (builder name
  or XMI path) plus the ordered :class:`ConcernSpec` selections lowered
  through the configuration pipeline;
* policies — :class:`ReplicationSpec` (standby count, log snapshot
  threshold),
  :class:`FaultCampaignSpec` (site probabilities), named
  :class:`QoSProfile` s with per-binding defaults, and provisioned
  :class:`UserSpec` s.

Specs are **lossless JSON**: ``from_dict(to_dict(s)) == s``, and
:meth:`DeploymentSpec.digest` is a stable content hash (advisory fields
— the expected-owner hint on a partition — are excluded, since placement
is derived from consistent hashing, not declared).  ``validate()``
checks referential integrity before anything is materialized; the
compiler (:mod:`repro.deploy.compiler`) turns a valid spec into a live
federation, and the reconciler (:mod:`repro.deploy.reconcile`) turns a
spec *difference* into an ordered migration plan.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import DeploymentError
from repro.middleware.envelope import QoS

SPEC_FORMAT = "repro-deployment-spec/1"


def _freeze(instance, **tuple_fields) -> None:
    """Coerce list-valued constructor arguments into tuples (frozen
    dataclasses cannot reassign in ``__post_init__`` directly)."""
    for name, value in tuple_fields.items():
        object.__setattr__(instance, name, tuple(value))


@dataclass(frozen=True)
class QoSProfile:
    """A named quality-of-service policy (timeout / retry budget)."""

    name: str
    timeout_ms: Optional[float] = None
    retries: int = 0
    oneway: bool = False

    def to_qos(self) -> QoS:
        return QoS(
            oneway=self.oneway, timeout_ms=self.timeout_ms, retries=self.retries
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "timeout_ms": self.timeout_ms,
            "retries": self.retries,
            "oneway": self.oneway,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "QoSProfile":
        return cls(
            name=data["name"],
            timeout_ms=data.get("timeout_ms"),
            retries=data.get("retries", 0),
            oneway=data.get("oneway", False),
        )


@dataclass(frozen=True)
class NodeSpec:
    """One federation member: a named ORB endpoint.

    ``workers == 0`` means serial dispatch (the deterministic baseline);
    ``seed`` parameterizes the node's private middleware services (fault
    RNG); ``None`` lets the compiler derive one from the spec seed.
    """

    name: str
    workers: int = 0
    seed: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "workers": self.workers, "seed": self.seed}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "NodeSpec":
        return cls(
            name=data["name"],
            workers=data.get("workers", 0),
            seed=data.get("seed"),
        )


@dataclass(frozen=True)
class ServantSpec:
    """One named servant: type, initial state, operation classification.

    ``name`` is the full federation binding name
    (``<partition>/<Type>/<index>``); ``state`` is the constructor
    keyword dict (JSON-shaped — it travels in spec files and shard
    manifests); ``read_only_ops`` classifies operations whose dispatch
    mutates no servant state, which lets replication skip
    the sync for routed calls that touched nothing mutable; ``qos``
    names a :class:`QoSProfile` used as this binding's default policy.
    """

    name: str
    type_name: str
    state: Dict[str, Any] = field(default_factory=dict)
    read_only_ops: Tuple[str, ...] = ()
    qos: Optional[str] = None

    def __post_init__(self):
        _freeze(self, read_only_ops=self.read_only_ops)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "type": self.type_name,
            "state": dict(self.state),
            "read_only_ops": list(self.read_only_ops),
            "qos": self.qos,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ServantSpec":
        return cls(
            name=data["name"],
            type_name=data["type"],
            state=dict(data.get("state", {})),
            read_only_ops=tuple(data.get("read_only_ops", ())),
            qos=data.get("qos"),
        )


@dataclass(frozen=True)
class PartitionSpec:
    """One co-location unit: the servants sharing a partition key.

    ``node`` is an *advisory* expected-owner hint (useful in extracted
    specs for drift inspection); ownership is always derived from the
    consistent-hash ring, so the hint is excluded from the digest and
    from structural diffs.
    """

    key: str
    servants: Tuple[ServantSpec, ...] = ()
    node: Optional[str] = None

    def __post_init__(self):
        _freeze(self, servants=self.servants)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "servants": [servant.to_dict() for servant in self.servants],
            "node": self.node,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PartitionSpec":
        return cls(
            key=data["key"],
            servants=tuple(
                ServantSpec.from_dict(entry) for entry in data.get("servants", ())
            ),
            node=data.get("node"),
        )


@dataclass(frozen=True)
class ReplicationSpec:
    """Standby copies per partition (0 = replication disabled).

    Standbys replay a sequenced per-partition op log;
    ``snapshot_every`` is its truncation threshold: after that many
    retained entries the tail is folded into a base snapshot.

    ``mode`` selects nothing.  It is still accepted, so spec files
    written when ``"full"`` (write-through) and ``"log"`` were
    alternatives keep parsing; both values mean the log, any other
    value fails :meth:`DeploymentSpec.validate`.  It is neither
    serialized nor compared, so it moves no digest and no diff.
    """

    count: int = 0
    mode: str = field(default="log", compare=False)
    snapshot_every: int = 64

    def to_dict(self) -> Dict[str, Any]:
        return {"count": self.count, "snapshot_every": self.snapshot_every}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ReplicationSpec":
        return cls(
            count=data.get("count", 0),
            mode=data.get("mode", "log"),
            snapshot_every=data.get("snapshot_every", 64),
        )


@dataclass(frozen=True)
class ObservabilitySpec:
    """The instrumentation knobs compiled onto a federation.

    ``sample_rate`` is the fraction of logical client calls traced when
    tracing is on (the run-level ``--trace`` switch decides *whether*;
    the spec decides *how much*); ``slow_call_ms`` flags spans at least
    that slow; the capacities bound the span ring buffer and the
    structured event log.  All four are live-tunable: the reconciler
    applies observability-only diffs to a running federation.  Old spec
    files without this section parse as the defaults.
    """

    sample_rate: float = 1.0
    slow_call_ms: float = 50.0
    event_log_capacity: int = 1024
    span_capacity: int = 4096

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sample_rate": self.sample_rate,
            "slow_call_ms": self.slow_call_ms,
            "event_log_capacity": self.event_log_capacity,
            "span_capacity": self.span_capacity,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ObservabilitySpec":
        return cls(
            sample_rate=data.get("sample_rate", 1.0),
            slow_call_ms=data.get("slow_call_ms", 50.0),
            event_log_capacity=data.get("event_log_capacity", 1024),
            span_capacity=data.get("span_capacity", 4096),
        )


@dataclass(frozen=True)
class FaultSiteSpec:
    """One fault-injection site (pattern allowed) with its probability."""

    site: str
    probability: float

    def to_dict(self) -> Dict[str, Any]:
        return {"site": self.site, "probability": self.probability}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSiteSpec":
        return cls(site=data["site"], probability=data["probability"])


@dataclass(frozen=True)
class FaultCampaignSpec:
    """The declared fault campaign; ``armed`` decides whether the
    compiler actually configures the sites (scenarios arm it only for
    ``--faults`` runs, but the campaign itself is part of the spec)."""

    sites: Tuple[FaultSiteSpec, ...] = ()
    armed: bool = False

    def __post_init__(self):
        _freeze(self, sites=self.sites)

    def effective_sites(self) -> Tuple[FaultSiteSpec, ...]:
        """The sites that materialize on a deployed federation."""
        return self.sites if self.armed else ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sites": [site.to_dict() for site in self.sites],
            "armed": self.armed,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultCampaignSpec":
        return cls(
            sites=tuple(
                FaultSiteSpec.from_dict(entry) for entry in data.get("sites", ())
            ),
            armed=data.get("armed", False),
        )


@dataclass(frozen=True)
class ConcernSpec:
    """One concern selection (the pipeline's ``Si``) in spec form."""

    concern: str
    params: Dict[str, Any] = field(default_factory=dict)
    after: Tuple[str, ...] = ()

    def __post_init__(self):
        _freeze(self, after=self.after)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "concern": self.concern,
            "params": dict(self.params),
            "after": list(self.after),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ConcernSpec":
        return cls(
            concern=data["concern"],
            params=dict(data.get("params", {})),
            after=tuple(data.get("after", ())),
        )


@dataclass(frozen=True)
class ApplicationSpec:
    """The application every node hosts: PIM source + concern plan.

    Exactly one of ``builder`` (a registered application-builder name;
    ``scenario:<name>`` resolves to that scenario's PIM) or
    ``model_xmi`` (path to an XMI model file) must be set.
    """

    name: str
    builder: Optional[str] = None
    model_xmi: Optional[str] = None
    concerns: Tuple[ConcernSpec, ...] = ()

    def __post_init__(self):
        _freeze(self, concerns=self.concerns)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "builder": self.builder,
            "model_xmi": self.model_xmi,
            "concerns": [concern.to_dict() for concern in self.concerns],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ApplicationSpec":
        return cls(
            name=data["name"],
            builder=data.get("builder"),
            model_xmi=data.get("model_xmi"),
            concerns=tuple(
                ConcernSpec.from_dict(entry) for entry in data.get("concerns", ())
            ),
        )


@dataclass(frozen=True)
class UserSpec:
    """A provisioned principal (credential store entry on every node)."""

    name: str
    password: str
    roles: Tuple[str, ...] = ()

    def __post_init__(self):
        _freeze(self, roles=self.roles)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "password": self.password,
            "roles": list(self.roles),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "UserSpec":
        return cls(
            name=data["name"],
            password=data["password"],
            roles=tuple(data.get("roles", ())),
        )


@dataclass(frozen=True)
class DeploymentSpec:
    """The whole desired deployment, as one JSON-round-trippable value."""

    name: str
    application: ApplicationSpec
    nodes: Tuple[NodeSpec, ...] = ()
    partitions: Tuple[PartitionSpec, ...] = ()
    replication: ReplicationSpec = ReplicationSpec()
    faults: FaultCampaignSpec = FaultCampaignSpec()
    users: Tuple[UserSpec, ...] = ()
    qos_profiles: Tuple[QoSProfile, ...] = ()
    client_qos: Optional[str] = None
    observability: ObservabilitySpec = ObservabilitySpec()
    sim_latency_ms: float = 0.5
    real_latency_ms: float = 0.0
    delivery_workers: int = 2
    seed: int = 0
    #: how routed hops travel ("inproc" or "socket"); the
    #: default is omitted from the serialized form and the digest, so a
    #: spec that never mentions transports hashes exactly as before
    transport: str = "inproc"

    def __post_init__(self):
        _freeze(
            self,
            nodes=self.nodes,
            partitions=self.partitions,
            users=self.users,
            qos_profiles=self.qos_profiles,
        )

    # -- introspection ----------------------------------------------------------

    @property
    def node_names(self) -> List[str]:
        return [node.name for node in self.nodes]

    def servants(self) -> List[Tuple[str, ServantSpec]]:
        """Every (partition key, servant spec) pair, in declaration order."""
        return [
            (partition.key, servant)
            for partition in self.partitions
            for servant in partition.servants
        ]

    def profile(self, name: str) -> QoSProfile:
        for profile in self.qos_profiles:
            if profile.name == name:
                return profile
        raise DeploymentError(f"spec {self.name!r} has no QoS profile {name!r}")

    def read_only_by_type(self) -> Dict[str, frozenset]:
        """Read-only operations unioned per servant type — the bus-level
        classification granularity (migrated and promoted servant copies
        keep their classification because it follows the type)."""
        merged: Dict[str, set] = {}
        for _partition, servant in self.servants():
            merged.setdefault(servant.type_name, set()).update(
                servant.read_only_ops
            )
        return {name: frozenset(ops) for name, ops in merged.items()}

    # -- validation ---------------------------------------------------------------

    def problems(self) -> List[str]:
        """Every referential-integrity violation (empty = valid)."""
        problems: List[str] = []
        if not self.name:
            problems.append("spec name must be non-empty")
        if not self.nodes:
            problems.append("spec declares no nodes")
        node_names = [node.name for node in self.nodes]
        for name in sorted({n for n in node_names if node_names.count(n) > 1}):
            problems.append(f"duplicate node name {name!r}")
        for node in self.nodes:
            if node.workers < 0:
                problems.append(
                    f"node {node.name!r}: workers must be >= 0, "
                    f"got {node.workers}"
                )
        app = self.application
        if (app.builder is None) == (app.model_xmi is None):
            problems.append(
                f"application {app.name!r} must set exactly one of "
                "'builder' or 'model_xmi'"
            )
        concern_names = [concern.concern for concern in app.concerns]
        for name in sorted(
            {c for c in concern_names if concern_names.count(c) > 1}
        ):
            problems.append(f"duplicate concern selection {name!r}")
        for concern in app.concerns:
            for dep in concern.after:
                if dep not in concern_names:
                    problems.append(
                        f"concern {concern.concern!r} is ordered after "
                        f"unknown concern {dep!r}"
                    )
        profile_names = [profile.name for profile in self.qos_profiles]
        for name in sorted(
            {p for p in profile_names if profile_names.count(p) > 1}
        ):
            problems.append(f"duplicate QoS profile {name!r}")
        if self.client_qos is not None and self.client_qos not in profile_names:
            problems.append(
                f"client_qos references unknown QoS profile {self.client_qos!r}"
            )
        known_nodes = set(node_names)
        seen_partitions: set = set()
        seen_servants: set = set()
        for partition in self.partitions:
            if not partition.key or "/" in partition.key:
                problems.append(
                    f"partition key {partition.key!r} must be a non-empty "
                    "single path segment"
                )
            if partition.key in seen_partitions:
                problems.append(f"duplicate partition key {partition.key!r}")
            seen_partitions.add(partition.key)
            if partition.node is not None and partition.node not in known_nodes:
                problems.append(
                    f"partition {partition.key!r} names unknown node "
                    f"{partition.node!r}"
                )
            for servant in partition.servants:
                if servant.name in seen_servants:
                    problems.append(f"duplicate servant name {servant.name!r}")
                seen_servants.add(servant.name)
                if not servant.name.startswith(f"{partition.key}/"):
                    problems.append(
                        f"servant {servant.name!r} is not under its "
                        f"partition key {partition.key!r}"
                    )
                if not servant.type_name:
                    problems.append(
                        f"servant {servant.name!r} has an empty type name"
                    )
                if servant.qos is not None and servant.qos not in profile_names:
                    problems.append(
                        f"servant {servant.name!r} references unknown QoS "
                        f"profile {servant.qos!r}"
                    )
                try:
                    round_tripped = json.loads(json.dumps(servant.state))
                except (TypeError, ValueError):
                    problems.append(
                        f"servant {servant.name!r} state is not JSON-shaped"
                    )
                else:
                    if round_tripped != servant.state:
                        problems.append(
                            f"servant {servant.name!r} state does not "
                            "survive a JSON round-trip"
                        )
        if self.replication.count < 0:
            problems.append(
                f"replication count must be >= 0, got {self.replication.count}"
            )
        elif self.replication.count >= max(len(self.nodes), 1):
            if self.replication.count > 0:
                problems.append(
                    f"replication count {self.replication.count} must be "
                    f"smaller than the node count {len(self.nodes)} "
                    "(every standby needs a distinct successor node)"
                )
        if self.replication.mode not in ("full", "log"):
            problems.append(
                f"replication mode must be 'full' or 'log', "
                f"got {self.replication.mode!r}"
            )
        if self.replication.snapshot_every < 1:
            problems.append(
                f"replication snapshot_every must be >= 1, "
                f"got {self.replication.snapshot_every}"
            )
        fault_sites = [site.site for site in self.faults.sites]
        for name in sorted({s for s in fault_sites if fault_sites.count(s) > 1}):
            problems.append(f"duplicate fault site {name!r}")
        for site in self.faults.sites:
            if not 0.0 <= site.probability <= 1.0:
                problems.append(
                    f"fault site {site.site!r}: probability "
                    f"{site.probability} out of [0, 1]"
                )
        user_names = [user.name for user in self.users]
        for name in sorted({u for u in user_names if user_names.count(u) > 1}):
            problems.append(f"duplicate user {name!r}")
        if not 0.0 <= self.observability.sample_rate <= 1.0:
            problems.append(
                f"observability sample_rate {self.observability.sample_rate} "
                "out of [0, 1]"
            )
        if self.observability.slow_call_ms < 0:
            problems.append(
                f"observability slow_call_ms must be >= 0, "
                f"got {self.observability.slow_call_ms}"
            )
        if self.observability.event_log_capacity < 1:
            problems.append(
                f"observability event_log_capacity must be >= 1, "
                f"got {self.observability.event_log_capacity}"
            )
        if self.observability.span_capacity < 1:
            problems.append(
                f"observability span_capacity must be >= 1, "
                f"got {self.observability.span_capacity}"
            )
        if self.sim_latency_ms < 0 or self.real_latency_ms < 0:
            problems.append("latencies must be >= 0")
        if self.delivery_workers < 1:
            problems.append(
                f"delivery_workers must be >= 1, got {self.delivery_workers}"
            )
        transports = ("inproc", "socket")
        if self.transport not in transports:
            problems.append(
                f"transport must be one of {transports}, got {self.transport!r}"
            )
        return problems

    def validate(self) -> "DeploymentSpec":
        """Raise :class:`DeploymentError` listing every violation."""
        problems = self.problems()
        if problems:
            raise DeploymentError(
                f"deployment spec {self.name!r} is invalid:\n  - "
                + "\n  - ".join(problems)
            )
        return self

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON form (``from_dict`` restores an equal spec)."""
        data = {
            "format": SPEC_FORMAT,
            "name": self.name,
            "application": self.application.to_dict(),
            "nodes": [node.to_dict() for node in self.nodes],
            "partitions": [partition.to_dict() for partition in self.partitions],
            "replication": self.replication.to_dict(),
            "faults": self.faults.to_dict(),
            "users": [user.to_dict() for user in self.users],
            "qos_profiles": [profile.to_dict() for profile in self.qos_profiles],
            "client_qos": self.client_qos,
            "observability": self.observability.to_dict(),
            "sim_latency_ms": self.sim_latency_ms,
            "real_latency_ms": self.real_latency_ms,
            "delivery_workers": self.delivery_workers,
            "seed": self.seed,
        }
        if self.transport != "inproc":
            # omit-when-default: transport choice must not perturb the
            # digest of a spec that never mentions it
            data["transport"] = self.transport
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DeploymentSpec":
        if not isinstance(data, dict):
            raise DeploymentError(
                f"deployment spec must be a JSON object, got {type(data).__name__}"
            )
        declared = data.get("format", SPEC_FORMAT)
        if declared != SPEC_FORMAT:
            raise DeploymentError(
                f"unsupported spec format {declared!r} (expected {SPEC_FORMAT!r})"
            )
        try:
            return cls(
                name=data["name"],
                application=ApplicationSpec.from_dict(data["application"]),
                nodes=tuple(
                    NodeSpec.from_dict(entry) for entry in data.get("nodes", ())
                ),
                partitions=tuple(
                    PartitionSpec.from_dict(entry)
                    for entry in data.get("partitions", ())
                ),
                replication=ReplicationSpec.from_dict(
                    data.get("replication", {})
                ),
                faults=FaultCampaignSpec.from_dict(data.get("faults", {})),
                users=tuple(
                    UserSpec.from_dict(entry) for entry in data.get("users", ())
                ),
                qos_profiles=tuple(
                    QoSProfile.from_dict(entry)
                    for entry in data.get("qos_profiles", ())
                ),
                client_qos=data.get("client_qos"),
                observability=ObservabilitySpec.from_dict(
                    data.get("observability", {})
                ),
                sim_latency_ms=data.get("sim_latency_ms", 0.5),
                real_latency_ms=data.get("real_latency_ms", 0.0),
                delivery_workers=data.get("delivery_workers", 2),
                seed=data.get("seed", 0),
                transport=data.get("transport", "inproc"),
            )
        except KeyError as exc:
            raise DeploymentError(
                f"deployment spec is missing required key {exc.args[0]!r}"
            ) from None

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DeploymentSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DeploymentError(f"spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    # -- identity -----------------------------------------------------------------

    def canonical(self) -> Dict[str, Any]:
        """The digest input: ``to_dict`` minus advisory placement hints
        (partition ``node`` is derived from the ring, not declared)."""
        data = self.to_dict()
        for partition in data["partitions"]:
            partition.pop("node", None)
        return data

    def digest(self) -> str:
        """Stable content hash of the declared deployment."""
        canon = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """A short human summary (the CLI's --check output)."""
        servant_count = sum(len(p.servants) for p in self.partitions)
        lines = [
            f"deployment spec {self.name!r}:",
            f"  application: {self.application.name} "
            f"({'builder ' + repr(self.application.builder) if self.application.builder else 'xmi ' + repr(self.application.model_xmi)}, "
            f"{len(self.application.concerns)} concern(s))",
            f"  nodes:       {len(self.nodes)} "
            f"({', '.join(self.node_names)})",
            f"  partitions:  {len(self.partitions)} "
            f"({servant_count} servant(s))",
            f"  replication: {self.replication.count} standby(s)/partition"
            + (
                f", log (snapshot every {self.replication.snapshot_every})"
                if self.replication.count
                else ""
            ),
            f"  faults:      {len(self.faults.sites)} site(s), "
            f"{'armed' if self.faults.armed else 'disarmed'}",
            f"  users:       {len(self.users)}",
            f"  qos:         {len(self.qos_profiles)} profile(s)"
            + (f", client default {self.client_qos!r}" if self.client_qos else ""),
            f"  observe:     sample {self.observability.sample_rate:.0%}, "
            f"slow >= {self.observability.slow_call_ms:g} ms, "
            f"events <= {self.observability.event_log_capacity}, "
            f"spans <= {self.observability.span_capacity}",
            f"  digest:      {self.digest()}",
        ]
        return "\n".join(lines)

"""One run description: :class:`Scenario`.

The paper's evaluation is a grid over one value — resource manager ×
workload mix × arrival trace × cluster × seed.  Every way into this
package (``run_policy``, ``run_sharded_policy``, ``serve_trace``, the
experiment runner, ``python -m repro``) builds that value and calls
:meth:`Scenario.run`.  Which plane runs it, what that plane refuses,
the typed config, the pre-trained forecaster, the per-shard derivation
and the cache key are each derived on it exactly once, and
:meth:`Scenario.system` / :meth:`Scenario.runtime` are the only places
a run is assembled — the sharded plane assembles each shard through
them too (DESIGN.md "Scenario").
"""

from __future__ import annotations

import enum
import numbers
import typing
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from repro.cluster.faults import ContainerFaultModel, FaultTimeline
from repro.core.policies import RMConfig, make_policy_config
from repro.prediction.base import Predictor
from repro.prediction.guarded import DivergentPredictor
from repro.runtime.system import (
    _UNTRAINED_PREDICTORS,
    ClusterSpec,
    ServerlessSystem,
)
from repro.sim.engine import ENGINE_VECTOR, resolve_engine
from repro.traces.base import ArrivalTrace
from repro.workloads.mixes import WorkloadMix, get_mix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.config import ServeOptions
    from repro.serve.runtime import ServingRuntime

# repro.serve, repro.shard and repro.experiments are imported inside the
# methods that need them: an unsharded simulated run loads none of them.

#: Bump when the summary format or run semantics change incompatibly;
#: invalidates every existing cache entry.
CACHE_FORMAT_VERSION = 2

#: The keys ``Scenario.faults`` may carry.
FAULT_KEYS = frozenset((
    "crash_probability", "crash_point", "hang_probability", "timeline",
    "diverge_after", "diverge_factor", "diverge_mode",
))

#: The experiments' scaled-down idle-container timeout: the paper's
#: 10 min shrinks with the run length (hours → minutes) so scale-down
#: dynamics still appear.  Applied by :meth:`Scenario.config`.
SCALED_IDLE_TIMEOUT_MS = 60_000.0

Overrides = Tuple[Tuple[str, object], ...]

#: The members :meth:`Scenario.canonical` can name.
_KEYED = frozenset((
    "policy", "mix", "trace_kind", "rate_rps", "duration_s", "seed",
    "cluster", "overrides", "faults", "shed_expired", "engine"))

class PlaneRefusal(ValueError):
    """A scenario member the derived plane cannot honour."""

    def __init__(self, member: str, plane: str) -> None:
        super().__init__(f"{member} is not supported on the {plane} plane")
        self.member = member


_FIELD_TYPES = typing.get_type_hints(RMConfig)


def _coerce(name: str, value):
    """*value* as ``RMConfig.<name>``'s declared type.  Strings are read
    the way the command line spells values (an enum's ``.value``,
    ``none``, a number); whatever the type does not admit is a
    ValueError, never a truthy string."""
    kind = _FIELD_TYPES[name]
    if typing.get_origin(kind) is Union:  # Optional[T]
        if value is None or value == "none":
            return None
        kind = next(a for a in typing.get_args(kind) if a is not type(None))
    if issubclass(kind, enum.Enum):
        expected = "|".join(member.value for member in kind)
        try:
            return kind(getattr(value, "value", value))
        except ValueError:
            pass
    elif kind is str:
        expected = "a string"
        if isinstance(value, str):
            return value
    else:
        expected = "an integer" if kind is int else "a number"
        if isinstance(value, str):
            for parse in (int, float):
                try:
                    value = parse(value)
                    break
                except ValueError:
                    continue
        admitted = numbers.Integral if kind is int else numbers.Real
        if isinstance(value, admitted) and not isinstance(value, bool):
            return value
    raise ValueError(
        f"bad value {value!r} for RMConfig field {name!r} "
        f"(expected {expected})")


def _scalar(name: str, value):
    """The JSON-scalar spelling of an override: coerced to its field's
    type, an enum by its ``.value``.  A name ``RMConfig`` does not have
    passes through for :meth:`Scenario.config` to refuse."""
    if name not in _FIELD_TYPES:
        return value
    typed = _coerce(name, value)
    return typed.value if isinstance(typed, enum.Enum) else typed


def fault_pairs(fault_model: Optional[ContainerFaultModel] = None,
                timeline: FaultTimeline = FaultTimeline()) -> Overrides:
    """The ``Scenario.faults`` spelling of the entry points' fault
    arguments (a per-task fate model, a scripted timeline)."""
    pairs: Dict[str, object] = {}
    if fault_model is not None:
        pairs["crash_probability"] = fault_model.crash_probability
        pairs["crash_point"] = fault_model.crash_point
        if fault_model.hang_probability:
            pairs["hang_probability"] = fault_model.hang_probability
    if timeline:
        pairs["timeline"] = timeline
    return tuple(pairs.items())


@dataclass(frozen=True)
class Shards:
    """The sharding block: how many gateway shards and how the plane
    over them is run.  ``n=1`` — the default — is the exact
    single-gateway path; ``None`` leaves a knob at the plane's default.
    Only the simulated plane shards: the live plane is one gateway and
    refuses every member set here.
    """

    n: int = 1
    rebalance_interval_ms: Optional[float] = None
    initial_node_grants: Optional[Tuple[int, ...]] = None
    skew_threshold: Optional[float] = None
    #: Model-ms between shard liveness beats (the sim-sharded failover
    #: health monitor's cadence once the timeline scripts a shard kill).
    heartbeat_interval_ms: float = 1_000.0
    heartbeat_miss_threshold: int = 3
    failover_hysteresis: int = 2

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("shards must be >= 1")
        for name in ("heartbeat_miss_threshold", "failover_hysteresis"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        if self.heartbeat_interval_ms <= 0:
            raise ValueError("heartbeat_interval_ms must be positive")
        # ``not x > bound`` also refuses NaN.
        if self.rebalance_interval_ms is not None \
                and not self.rebalance_interval_ms > 0:
            raise ValueError(f"rebalance_interval_ms must be positive, got "
                             f"{self.rebalance_interval_ms}")
        if self.skew_threshold is not None and not self.skew_threshold >= 1.0:
            raise ValueError(f"skew_threshold must be >= 1.0, got "
                             f"{self.skew_threshold}")
        if self.initial_node_grants is not None:
            object.__setattr__(self, "initial_node_grants",
                               tuple(self.initial_node_grants))


#: What each plane's run body does not consume: refused on that plane
#: when set — a member when the scenario is built, a collaborator
#: (``tracer``, ``work``) when ``run`` is called.  DESIGN.md "Scenario"
#: has the reason per cell.
_DIVERGE = ("diverge_after", "diverge_factor", "diverge_mode")
_REFUSES: Dict[str, Tuple[str, ...]] = {
    "sim": ("work", "hang_probability"),
    "vector": ("work", "hang_probability"),
    "sim-sharded": ("work", "tracer", "hang_probability") + _DIVERGE,
    # One gateway: every ``Shards`` member, as ``shards.<name>``.
    "live": ("engine",) + _DIVERGE + tuple(
        f"shards.{f.name}" for f in fields(Shards)),
}


@dataclass(frozen=True)
class Scenario:
    """One run, fully determined by its members; frozen and picklable
    (DESIGN.md "Scenario" has the member-by-member table).

    The arrivals are generated from ``(trace_kind, rate_rps, duration_s,
    seed)`` unless a *trace* object is handed in, which keeps
    ``trace_kind`` / ``rate_rps`` as its *nominal* workload.  A scenario
    that names its workload is an experiment at the paper's scaled-down
    shape: its forecaster is pre-trained on that kind and rate
    (:meth:`pretrained`) and its idle timeout defaults to
    :data:`SCALED_IDLE_TIMEOUT_MS`; ``trace_kind=None`` — what the three
    ``(policy, mix, trace)`` entry points pass — takes the policy config
    and the caller's predictor as given.

    ``overrides`` are ``RMConfig`` fields as sorted pairs, coerced to
    the field's type and stored as JSON scalars (an enum by its
    ``.value``), so every spelling of one config is one cache key.
    ``faults`` carries what is not policy config, as its own sorted
    pairs (:data:`FAULT_KEYS`; any other key raises): the per-task fate
    model (``crash_probability``, ``crash_point``, and the live-only
    ``hang_probability``), predictor divergence (``diverge_after``
    monitor ticks, ``diverge_factor``, ``diverge_mode`` ``"scale"`` |
    ``"nan"``) and ``timeline``, a
    :class:`~repro.cluster.faults.FaultTimeline` or its spec string.
    ``faults``, ``shed_expired`` and ``drain_ms`` mean the same on every
    plane: a live run reads them from here, not from its ``live`` block.

    ``live=None`` is a simulated run; a
    :class:`~repro.serve.config.ServeOptions` serves the arrivals on the
    wall clock.  ``engine`` ("fast" | "vector" | None for the default)
    is deliberately NOT part of :meth:`canonical` — every engine
    produces a bit-identical summary (``tests/test_vector_parity.py``),
    so trials share cache entries across engines.  A sharded plane keeps
    that premise by having one driver, the event loop: it refuses
    ``engine="vector"``.
    """

    policy: str
    mix: Union[str, WorkloadMix] = "heavy"
    trace_kind: Optional[str] = "step-poisson"
    rate_rps: float = 50.0
    duration_s: float = 300.0
    seed: int = 5
    cluster: ClusterSpec = ClusterSpec()
    overrides: Overrides = ()
    faults: Overrides = ()
    shed_expired: bool = False
    engine: Optional[str] = None
    trace: Optional[ArrivalTrace] = field(
        default=None, compare=False, repr=False)
    drain_ms: float = 120_000.0
    #: A forecaster to use instead of the pre-training rule's; each
    #: per-shard scenario carries the plane's.
    predictor: Optional[Predictor] = field(
        default=None, compare=False, repr=False)
    shards: Shards = Shards()
    live: Optional["ServeOptions"] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "overrides", tuple(sorted(
            (name, _scalar(name, value))
            for name, value in dict(self.overrides).items())))
        object.__setattr__(
            self, "faults", tuple(sorted(dict(self.faults).items())))
        unknown = sorted(set(dict(self.faults)) - FAULT_KEYS)
        if unknown:
            # A typo'd key would otherwise run fault-free and be cached
            # under a key that looks like a fault trial.
            raise ValueError(
                f"unknown faults key(s) {unknown}; known: "
                f"{sorted(FAULT_KEYS)}")
        self._check()

    @staticmethod
    def make(policy: str, **kwargs) -> "Scenario":
        """Build a scenario, folding unknown keywords into ``overrides``
        (``nodes=N`` is short for ``cluster=ClusterSpec(n_nodes=N)``)."""
        own = {f.name for f in fields(Scenario)}
        overrides = dict(kwargs.pop("overrides", ()))
        if "nodes" in kwargs:
            kwargs["cluster"] = ClusterSpec(n_nodes=kwargs.pop("nodes"))
        for key in list(kwargs):
            if key not in own:
                overrides[key] = kwargs.pop(key)
        return Scenario(
            policy=policy, overrides=tuple(overrides.items()), **kwargs)

    @staticmethod
    def of(policy: str, mix, trace: ArrivalTrace, cluster_spec: ClusterSpec,
           seed: int, **members) -> "Scenario":
        """What the three ``(policy, mix, trace)`` entry points build: the
        trace as handed in, with no nominal workload — so the policy
        config and the caller's predictor are taken as given."""
        return Scenario.make(
            policy, mix=mix, trace=trace, trace_kind=None,
            cluster=cluster_spec, seed=seed, **members)

    # -- derived, once ------------------------------------------------------

    @property
    def plane(self) -> str:
        """Which plane runs this scenario (a :data:`PLANE_KINDS` name)."""
        if self.live is not None:
            return "live"
        if self.shards.n > 1:
            return "sim-sharded"
        vector = resolve_engine(self.engine) == ENGINE_VECTOR
        return "vector" if vector else "sim"

    @property
    def timeline(self) -> FaultTimeline:
        """The run's one scripted-fault timeline (the ``timeline`` pair)."""
        script = dict(self.faults).get("timeline")
        if isinstance(script, FaultTimeline):
            return script
        return FaultTimeline.parse(script) if script else FaultTimeline()

    @property
    def fault_model(self) -> Optional[ContainerFaultModel]:
        """The run's one per-task fate model, or None when neither a
        crash nor a hang can be drawn."""
        faults = dict(self.faults)
        model = ContainerFaultModel(**{
            f.name: float(faults[f.name])
            for f in fields(ContainerFaultModel) if f.name in faults})
        fires = model.crash_probability > 0.0 or model.hang_probability > 0.0
        return model if fires else None

    def _set(self) -> Tuple[str, ...]:
        """The members that differ from their defaults."""
        return tuple(f.name for f in fields(self)
                     if getattr(self, f.name) != f.default)

    def refuse(self, **members) -> None:
        """Raise :class:`PlaneRefusal` for the first of *members* (name
        → value, ``None`` = unset) this scenario's plane cannot honour."""
        plane = self.plane
        for member in _REFUSES[plane]:
            if members.get(member) is not None:
                raise PlaneRefusal(member, plane)

    def _check(self) -> None:
        """The one build-time check: nothing this plane cannot enact or
        honour survives construction."""
        plane, shards = self.plane, self.shards
        self.refuse(**dict(self.faults), **dict.fromkeys(self._set(), True),
                    **{f"shards.{f.name}": True for f in fields(shards)
                       if getattr(shards, f.name) != f.default})
        self.timeline.validate(
            plane, n_nodes=self.cluster.n_nodes, n_shards=shards.n,
            journaled=self.live is None or bool(self.live.journal_dir))
        # Built for its range checks: a bad probability is refused now,
        # not after the forecaster is trained.
        _ = self.fault_model
        if self.drain_ms < 0:
            raise ValueError("drain_ms must be >= 0")
        if (plane == "sim-sharded"
                and resolve_engine(self.engine) == ENGINE_VECTOR):
            # The plane's one driver is the event loop.
            raise PlaneRefusal("engine", plane)

    def config(self) -> RMConfig:
        """The policy's config with the typed overrides applied."""
        overrides = {}
        for name, value in self.overrides:
            if name not in _FIELD_TYPES:
                raise ValueError(
                    f"{name!r} is not an RMConfig field; known: "
                    f"{sorted(_FIELD_TYPES)}")
            overrides[name] = _coerce(name, value)
        if self.trace_kind is not None:
            overrides.setdefault("idle_timeout_ms", SCALED_IDLE_TIMEOUT_MS)
        return make_policy_config(self.policy, **overrides)

    def pretrained(self) -> Optional[Predictor]:
        """The forecaster the run is handed — the one pre-training rule:
        the caller's, else (for a scenario that names its workload and a
        policy whose forecaster needs training) one trained offline on
        the nominal trace kind and rate, else None (the system builds
        the untrained kinds itself)."""
        wanted = self.config().proactive_predictor
        if (self.predictor is not None or self.trace_kind is None
                or wanted is None or wanted.lower() in _UNTRAINED_PREDICTORS):
            return self.predictor
        from repro.experiments.predictors import predictor_for_run

        return predictor_for_run(wanted, self.trace_kind, self.rate_rps)

    def workload_mix(self) -> WorkloadMix:
        return get_mix(self.mix) if isinstance(self.mix, str) else self.mix

    def arrivals(self) -> ArrivalTrace:
        """The arrival trace: the object handed in, else the named one."""
        if self.trace is not None:
            return self.trace
        from repro.traces.factory import cached_trace

        return cached_trace(
            self.trace_kind, self.rate_rps, self.duration_s, self.seed)

    def for_shard(self, shard_id: int) -> "Scenario":
        """The unsharded scenario shard *shard_id* of this plane runs:
        decorrelated seed (shards must not clone RNG streams), the
        full-size cluster (a shard cordons what it was not granted), the
        predictor carried.  A shard replays no script: the sim-sharded
        plane enacts the shard kinds itself."""
        return replace(
            self,
            seed=self.seed + 7919 * (shard_id + 1),
            faults=tuple(
                pair for pair in self.faults if pair[0] != "timeline"),
            shards=Shards(),
        )

    def canonical(self) -> Dict:
        """JSON-stable representation used for hashing and cache files.

        Only a scenario the key can name has one: everything by name, on
        a default-shaped cluster, simulated and unsharded."""
        unkeyed = set(self._set()) - _KEYED
        if (unkeyed or not isinstance(self.mix, str) or self.trace_kind is None
                or self.cluster != ClusterSpec(n_nodes=self.cluster.n_nodes)):
            raise ValueError(
                "this scenario has members the cache key cannot name: "
                f"{sorted(unkeyed) or 'an object for a name, or a cluster shape'}")
        return {
            "version": CACHE_FORMAT_VERSION,
            "policy": self.policy,
            "mix": self.mix,
            "trace_kind": self.trace_kind,
            "rate_rps": self.rate_rps,
            "duration_s": self.duration_s,
            "seed": self.seed,
            "nodes": self.cluster.n_nodes,
            "overrides": [[k, v] for k, v in self.overrides],
            "faults": [
                [k, str(v) if isinstance(v, FaultTimeline) else v]
                for k, v in self.faults],
            "shed_expired": self.shed_expired,
        }

    # -- assembly and execution --------------------------------------------

    def _assembly(self, tracer) -> Dict:
        """What both planes' constructors take from the scenario: the
        config, the forecaster (wrapped to diverge when the faults say
        so), the fate model and the timeline are each built here once."""
        config = self.config()
        faults = dict(self.faults)
        predictor = self.pretrained()
        if "diverge_after" in faults and config.proactive_predictor is not None:
            if predictor is None:
                predictor = _UNTRAINED_PREDICTORS[
                    config.proactive_predictor.lower()]()
            predictor = DivergentPredictor(
                predictor,
                diverge_after=int(faults["diverge_after"]),
                factor=float(faults.get("diverge_factor", 25.0)),
                mode=str(faults.get("diverge_mode", "scale")),
            )
        return dict(
            config=config, mix=self.workload_mix(), cluster_spec=self.cluster,
            predictor=predictor, seed=self.seed, tracer=tracer,
            fault_model=self.fault_model, faults=self.timeline,
            shed_expired=self.shed_expired, drain_ms=self.drain_ms)

    def system(self, tracer=None, cls=ServerlessSystem) -> ServerlessSystem:
        """Assemble the simulated system this scenario describes (*cls*:
        the sharded plane's per-shard subclass)."""
        return cls(engine=self.engine, **self._assembly(tracer))

    def runtime(self, tracer=None, work=None) -> "ServingRuntime":
        """Assemble the live serving runtime this scenario describes."""
        from repro.serve.runtime import ServingRuntime

        return ServingRuntime(
            options=self.live, work=work, **self._assembly(tracer))

    def run(self, tracer=None, predictor=None, work=None):
        """Run the scenario on its plane.  Returns a
        :class:`~repro.metrics.collector.RunResult`, or the sharded
        plane's aggregate of one per shard.  *tracer*, *predictor* and
        *work* are the run's collaborators; one the plane cannot hand to
        every shard is refused before anything is trained or run."""
        self.refuse(tracer=tracer, work=work)
        plane = self.plane
        scenario = replace(
            self,
            predictor=predictor if predictor is not None else self.pretrained())
        if plane == "sim-sharded":
            from repro.shard.sim import run_plane

            return run_plane(scenario)
        if plane == "live":
            return scenario.runtime(tracer, work).run(scenario.arrivals())
        return scenario.system(tracer).run(scenario.arrivals())

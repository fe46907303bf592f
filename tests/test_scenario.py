"""The one run description: cache keys, the plane table, per-shard
derivation, typed overrides, the refusal rule — and the guards that
moving every entry point and experiment loop onto
:class:`~repro.scenario.Scenario` moved no figure."""

import ast
import dataclasses
import json
import pathlib
import re
import subprocess
import sys

import pytest

from repro.cli import main
from repro.cluster.faults import ContainerFaultModel, FaultTimeline
from repro.core.policies import Provisioning
from repro.core.slack import SlackDivision
from repro.experiments.runner import ExperimentRunner, config_hash
from repro.obs.trace import Tracer
from repro.prediction.classical import EWMAPredictor
from repro.runtime.system import ClusterSpec, ServerlessSystem
from repro.runtime.vector import VectorEngineUnsupported
from repro.scenario import (
    _REFUSES,
    CACHE_FORMAT_VERSION,
    FAULT_KEYS,
    PlaneRefusal,
    Scenario,
    Shards,
    fault_pairs,
)
from repro.serve import ServeOptions
from repro.sim.engine import Simulator
from repro.traces import poisson_trace
from repro.workloads import get_mix

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
GOLDEN = pathlib.Path(__file__).parent / "golden" / "experiment_summaries.json"


# ---------------------------------------------------------------------------
# (a) cache keys: recorded from TrialSpec at the parent commit


def test_cache_keys_are_stable():
    assert CACHE_FORMAT_VERSION == 2
    assert config_hash(Scenario("fifer")) == (
        "fec1f49736acc39778a4e6276e5cb7b212353f9d3e9ceecc04401ad8397e828b")
    faulted = Scenario.make(
        "rscale", mix="medium", trace_kind="wits", rate_rps=20.0,
        duration_s=60.0, seed=7, nodes=3, max_surge=8,
        faults=(("timeline", "kill-node@20=0;recover-node@40=0"),),
        shed_expired=True)
    assert config_hash(faulted) == (
        "bc5737db9053dba9209bd80610090c2f286afd8cffb160df26e20c3422c0ad76")
    assert "engine" not in faulted.canonical()
    # A timeline object keys like its spec string.
    assert config_hash(dataclasses.replace(faulted, faults=(("timeline", (
        FaultTimeline.parse("kill-node@20=0;recover-node@40=0"))),))
    ) == config_hash(faulted)


@pytest.mark.parametrize("members", [
    dict(trace=poisson_trace(2.0, 2.0, seed=1)),
    dict(mix=get_mix("light")),
    dict(trace_kind=None, trace=poisson_trace(2.0, 2.0, seed=1)),
    dict(cluster=ClusterSpec(n_nodes=5, cores_per_node=1.0)),
    dict(drain_ms=1.0),
    dict(shards=Shards(n=2)),
    dict(live=ServeOptions()),
    dict(predictor=EWMAPredictor()),
], ids=lambda members: "+".join(members))
def test_only_what_the_key_can_name_is_hashed(members):
    with pytest.raises(ValueError, match="cache key cannot name"):
        config_hash(Scenario.make("rscale", **members))


# ---------------------------------------------------------------------------
# (b) the plane table, and the one build-time check

LIVE = ServeOptions()


@pytest.mark.parametrize("engine, shards, live, plane, foreign_kind", [
    (None, 1, None, "sim", "crash-gateway@1"),
    ("fast", 1, None, "sim", "brownout@1:2x2"),
    ("vector", 1, None, "vector", "kill-node@1=0"),
    (None, 2, None, "sim-sharded", "kill-node@1=0"),
    ("vector", 2, None, "sim-sharded", "blackout@1:2"),
    (None, 1, LIVE, "live", "blackout@1:2"),
])
def test_plane_is_derived_and_refuses_what_it_does_not_enact(
        engine, shards, live, plane, foreign_kind):
    members = dict(engine=engine, shards=Shards(n=shards), live=live)
    if engine == "vector" and shards > 1:
        # The sharded plane's one driver is the event loop.
        with pytest.raises(PlaneRefusal, match=f"engine .* {plane} plane"):
            Scenario.make("rscale", **members)
    else:
        assert Scenario.make("rscale", **members).plane == plane
    members["faults"] = (("timeline", FaultTimeline.parse(foreign_kind)),)
    with pytest.raises(ValueError, match=f"{plane} plane does not enact"):
        Scenario.make("rscale", **members)


@pytest.mark.parametrize("members, refused", [
    (dict(shards=Shards(n=2), faults=(("diverge_after", 3),)),
     "diverge_after is not supported on the sim-sharded plane"),
    (dict(live=LIVE, engine="vector"),
     "engine is not supported on the live plane"),
    (dict(faults=(("hang_probability", 0.1),)),
     "hang_probability is not supported on the sim plane"),
])
def test_members_a_plane_cannot_honour_are_refused_when_built(
        members, refused):
    with pytest.raises(ValueError, match=refused):
        Scenario.make("rscale", **members)


#: One non-default setting of every ``Shards`` member.
SHARD_SETTINGS = [
    ("n", 2), ("rebalance_interval_ms", 500.0),
    ("initial_node_grants", (3, 2)),
    ("skew_threshold", 2.0), ("heartbeat_interval_ms", 250.0),
    ("heartbeat_miss_threshold", 2), ("failover_hysteresis", 1)]


@pytest.mark.parametrize("member, value", SHARD_SETTINGS)
def test_shard_members_the_live_plane_never_reads_are_refused(member, value):
    # The live plane is one gateway: any sharding setting, the shard
    # count included, would be ignored, so each is refused.
    assert sorted(dict(SHARD_SETTINGS)) == sorted(
        f.name for f in dataclasses.fields(Shards))
    shards = Shards(**{member: value})
    with pytest.raises(PlaneRefusal, match=(
            f"shards.{member} is not supported on the live plane")):
        Scenario.make("rscale", live=LIVE, shards=shards)
    sharded = dataclasses.replace(shards, n=2)
    assert Scenario.make("rscale", shards=sharded).plane == "sim-sharded"


#: How to reach each plane, and a scripted fault it enacts.
PLANES = {
    "sim": (dict(), "blackout@1:2"),
    "vector": (dict(engine="vector"), "blackout@1:2"),
    "sim-sharded": (dict(shards=Shards(n=2)), "kill-shard@1=0"),
    "live": (dict(live=LIVE), "brownout@1:2x2"),
}
#: One non-default setting of each run member that is spelled once for
#: every plane, and where an assembled run shows it: the attribute both
#: ``ServerlessSystem`` and ``ServingRuntime`` keep it under, and its value.
CRASHY = ("crash_probability", 0.2)
RUN_MEMBERS = {
    "shed_expired": (
        dict(shed_expired=True), "shed_expired", True),
    "drain_ms": (
        dict(drain_ms=4_321.0), "drain_ms", 4_321.0),
    "crash_probability": (
        dict(faults=(CRASHY,)), "fault_model",
        ContainerFaultModel(crash_probability=0.2)),
    "crash_point": (
        dict(faults=(CRASHY, ("crash_point", 0.25))), "fault_model",
        ContainerFaultModel(crash_probability=0.2, crash_point=0.25)),
    "hang_probability": (
        dict(faults=(("hang_probability", 0.3),)), "fault_model",
        ContainerFaultModel(hang_probability=0.3)),
    "timeline": (None, "faults", None),   # per plane: PLANES' script
}


def _built(assembled):
    """What one assembled run wires from its members into the request
    path: (lifecycle's shedding switch, every pool's fate model)."""
    if isinstance(assembled, ServerlessSystem):
        assembled._build(Simulator())
        lifecycle = assembled.lifecycle
    else:
        assembled._build(lane=None)   # no slot is spawned: never used
        lifecycle = assembled.gateway.lifecycle
    return lifecycle.shed_expired, [
        pool.fault_model for pool in assembled.pools.values()]


@pytest.mark.parametrize("member", sorted(RUN_MEMBERS))
@pytest.mark.parametrize("plane", sorted(PLANES))
def test_a_run_member_is_honoured_or_refused_on_every_plane(plane, member):
    assert member in FAULT_KEYS or member in {
        f.name for f in dataclasses.fields(Scenario)}
    where, script = PLANES[plane]
    setting, attribute, expected = RUN_MEMBERS[member]
    if member == "timeline":
        setting = dict(faults=(("timeline", script),))
        expected = FaultTimeline.parse(script)
    if member in _REFUSES[plane]:
        with pytest.raises(ValueError, match=f"{member} .* {plane} plane"):
            Scenario.make("rscale", **where, **setting)
        return
    scenario = Scenario.make("rscale", **where, **setting)
    assert scenario.plane == plane
    sharded = scenario.shards.n > 1
    shards = ([scenario.for_shard(i) for i in range(2)] if sharded
              else [scenario])
    if plane == "sim-sharded" and member == "timeline":
        # The plane enacts the shard kinds itself (§17): the
        # script stays on the plane's scenario, no shard replays it.
        assert scenario.timeline == expected
        expected = FaultTimeline()
    for shard in shards:
        assembled = (shard.runtime() if shard.live is not None
                     else shard.system())
        assert getattr(assembled, attribute) == expected
        if plane == "vector" and attribute == "fault_model":
            # The one member a plane refuses when *run*: the vector
            # engine has no per-task fate draw (DESIGN §13).
            with pytest.raises(VectorEngineUnsupported, match="fault"):
                assembled.run(poisson_trace(2.0, 2.0, seed=1))
            continue
        shedding, fate_models = _built(assembled)
        assert shedding is shard.shed_expired
        assert fate_models and all(
            model == shard.fault_model for model in fate_models)


def test_collaborators_are_refused_before_anything_runs():
    trace = poisson_trace(2.0, 2.0, seed=1)
    with pytest.raises(ValueError, match="work .* sim plane"):
        Scenario.make("rscale", trace=trace).run(work=lambda task, s: None)
    with pytest.raises(ValueError, match="tracer .* sim-sharded plane"):
        Scenario.make("fifer", trace=trace,
                      shards=Shards(n=2)).run(tracer=Tracer())


# ---------------------------------------------------------------------------
# (c) per-shard derivation


@pytest.mark.parametrize("n_shards, grants", [
    (1, [8]), (2, [5, 3]), (4, [2, 2, 2, 2])])
def test_for_shard_reproduces_the_per_shard_stamping(n_shards, grants):
    cluster = ClusterSpec(
        n_nodes=8, cores_per_node=2.0, memory_per_node_mb=4096.0)
    predictor = EWMAPredictor()
    plane = Scenario.make(
        "bpred", cluster=cluster, seed=11, predictor=predictor,
        shards=Shards(n=n_shards, initial_node_grants=grants))
    for shard_id in range(n_shards):
        shard = plane.for_shard(shard_id)
        assert shard.seed == 11 + 7919 * (shard_id + 1)
        # Full size: a shard cordons the nodes it was not granted.
        assert shard.cluster == cluster
        assert shard.shards == Shards() and shard.plane == "sim"
        assert shard.predictor is predictor


def test_a_simulated_shard_keeps_its_crash_model_and_replays_no_script():
    plane = Scenario.make(
        "rscale", nodes=4, seed=3, shards=Shards(n=2),
        faults=(("crash_probability", 0.2), ("timeline", "kill-shard@1=0")))
    shard = plane.for_shard(1)
    assert (shard.plane, shard.seed, shard.cluster) == (
        "sim", 3 + 7919 * 2, ClusterSpec(n_nodes=4))
    assert shard.faults == (("crash_probability", 0.2),)
    assert not shard.timeline


@pytest.mark.parametrize("member, value", [
    ("rebalance_interval_ms", -5_000.0), ("rebalance_interval_ms", 0.0),
    ("rebalance_interval_ms", float("nan")), ("skew_threshold", 0.5)])
def test_a_shard_cadence_or_threshold_out_of_range_is_refused(member, value):
    with pytest.raises(ValueError, match=member):
        Shards(n=2, **{member: value})


def test_a_negative_rebalance_interval_is_a_usage_error_not_a_hang(
        monkeypatch):
    # A rebalance loop once counted such an interval down forever; now
    # the scenario is refused before any plane is entered.
    import repro.shard.sim

    monkeypatch.setattr(repro.shard.sim, "run_plane",
                        lambda *args: pytest.fail("the plane ran"))
    with pytest.raises(SystemExit, match="run: rebalance_interval_ms must "
                                         "be positive, got -5000.0"):
        main(["run", "rscale", "--shards", "2",
              "--rebalance-interval", "-5", "--duration", "10",
              "--rate", "5", "--trace", "poisson"])


@pytest.mark.parametrize("member", [
    "heartbeat_miss_threshold", "failover_hysteresis"])
def test_a_shard_count_below_one_is_refused(member):
    with pytest.raises(ValueError, match=f"{member} must be >= 1, got 0"):
        Shards(n=2, **{member: 0})


def test_in_process_vector_shards_are_refused_when_built():
    with pytest.raises(
            PlaneRefusal, match="engine is not supported on the sim-sharded"):
        Scenario.make("rscale", engine="vector", shards=Shards(n=2))
    assert Scenario.make("rscale", engine="fast", shards=Shards(
        n=2)).plane == "sim-sharded"
    with pytest.raises(SystemExit, match="run: --engine is not supported "
                                         "with --shards > 1"):
        main(["run", "rscale", "--shards", "2", "--engine", "vector",
              "--duration", "10", "--rate", "5", "--trace", "poisson"])


# ---------------------------------------------------------------------------
# typed overrides (all three fail at the parent commit)

SWEEP = ["sweep", "rscale", "--duration", "40"]


def _direct(**overrides):
    return Scenario.make("rscale", duration_s=40.0, **overrides)


@pytest.mark.parametrize("field, values, typed", [
    ("provisioning", ["rscale", "on-demand"],
     [Provisioning.RSCALE, Provisioning.ON_DEMAND]),
    ("slack_division", ["equal", "proportional"],
     [SlackDivision.EQUAL, SlackDivision.PROPORTIONAL]),
])
def test_a_swept_string_is_the_typed_value(field, values, typed, tmp_path,
                                           capsys):
    assert main(SWEEP + ["--field", field, "--values", *values,
                         "--cache-dir", str(tmp_path)]) == 0
    table = capsys.readouterr().out
    replay = ExperimentRunner(cache_dir=tmp_path)
    cached = replay.run([_direct(**{field: value}) for value in typed])
    # The typed spelling finds the entries the command line wrote ...
    assert replay.cache_hits == len(typed)
    rows = [r.summary for r in cached]
    # ... they hold what the directly-constructed configs produce ...
    assert rows == [_direct(**{field: v}).run().summary() for v in typed]
    assert rows[0] != rows[1]
    # ... and those are the rows that were printed.
    for value, row in zip(values, rows):
        assert re.search(
            rf"^{value} .* {row['p99_latency_ms']:.0f} ", table, re.M), table


@pytest.mark.parametrize("argv, message", [
    (["--field", "provisioning", "--values", "maybe"],
     "sweep: bad value 'maybe' for RMConfig field 'provisioning'"),
    (["--field", "slack_division", "--values", "equal", "sideways"],
     "sweep: bad value 'sideways' for RMConfig field 'slack_division'"),
    (["--field", "max_batch", "--values", "2.5"],
     "sweep: bad value 2.5 for RMConfig field 'max_batch'"),
    (["--field", "warp_factor", "--values", "1"],
     "sweep: 'warp_factor' is not an RMConfig field"),
])
def test_an_untypable_override_is_a_usage_error(argv, message, tmp_path):
    with pytest.raises(SystemExit) as refusal:
        main(SWEEP + argv + ["--cache-dir", str(tmp_path / "cache")])
    assert str(refusal.value).startswith(message)
    assert "\n" not in str(refusal.value)
    assert not (tmp_path / "cache").exists()   # nothing run, nothing cached


def test_enum_overrides_hash_and_round_trip(tmp_path):
    typed = Scenario.make(
        "rscale", trace_kind="poisson", rate_rps=15.0, duration_s=20.0,
        nodes=2, slack_division=SlackDivision.EQUAL,
        provisioning=Provisioning.RSCALE)
    spelled = dataclasses.replace(typed, overrides=(
        ("slack_division", "equal"), ("provisioning", "rscale")))
    assert typed == spelled and config_hash(typed) == config_hash(spelled)
    assert json.loads(json.dumps(typed.canonical())) == typed.canonical()
    assert typed.config().slack_division is SlackDivision.EQUAL
    assert typed.config().provisioning is Provisioning.RSCALE
    cold = ExperimentRunner(cache_dir=tmp_path).run([typed])
    warm = ExperimentRunner(cache_dir=tmp_path).run([spelled])
    assert warm[0].from_cache and warm[0].summary == cold[0].summary
    assert Scenario.make("fifer", mape_threshold="none").config() \
        .mape_threshold is None


# ---------------------------------------------------------------------------
# nothing the caller passes is dropped on a sharded plane (before the fix:
# 0 crashes, 0 spans, exit clean)


def _sharded(policy="bline", fault_model=None, tracer=None):
    return Scenario.of(
        policy, get_mix("medium"), poisson_trace(20.0, 20.0, seed=5),
        ClusterSpec(n_nodes=4), 5, shards=Shards(n=2),
        faults=fault_pairs(fault_model)).run(tracer=tracer)


@pytest.mark.parametrize("argument", ["fault_model", "tracer"])
def test_no_argument_is_dropped_on_the_sharded_plane(argument):
    if argument == "tracer":
        with pytest.raises(
                ValueError,
                match="tracer is not supported on the sim-sharded plane"):
            _sharded(tracer=Tracer())
    else:
        result = _sharded(
            fault_model=ContainerFaultModel(crash_probability=0.3))
        assert all(r.container_crashes for r in result.per_shard.values())


# ---------------------------------------------------------------------------
# (d) the ported experiment loops: summaries recorded at the parent commit
# (sharing the training rule and the assembly moved no figure)


def _summaries(results):
    return {str(key): result.summary() for key, result in results.items()}


def _entry_points():
    from repro.experiments import ablations
    from repro.experiments.prototype import run_prototype
    from repro.experiments.simulation import run_trace_simulation
    from repro.experiments.sweeps import sweep_config_field

    return {
        "run_prototype": lambda: _summaries(run_prototype(
            policies=["rscale", "fifer"], duration_s=40.0)),
        "run_trace_simulation": lambda: _summaries(run_trace_simulation(
            "wits", policies=["bpred", "fifer"], duration_s=40.0)),
        "sweep_config_field": lambda: _summaries(
            sweep_config_field("fifer", "max_batch", [2, 8])),
        "slack_division_ablation": lambda: _summaries(
            ablations.slack_division_ablation(duration_s=40.0)),
        "scheduling_ablation": lambda: _summaries(
            ablations.scheduling_ablation(duration_s=40.0)),
    }


@pytest.mark.parametrize("name", sorted(_entry_points()))
def test_ported_experiment_returns_the_parent_summaries(name, update_golden):
    summaries = json.loads(json.dumps(_entry_points()[name]()))
    golden = json.loads(GOLDEN.read_text())
    if update_golden:
        golden[name] = summaries
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    assert summaries == golden[name]


# ---------------------------------------------------------------------------
# (e) structure: where a run is assembled, and what a plain run imports

#: file -> the classes it constructs, and why it may.
ASSEMBLY_SITES = {
    # Scenario.runtime; Scenario.system constructs ``cls`` (ServerlessSystem
    # or the sharded plane's _ShardSystem) — the two assemblies every
    # entry point, experiment loop, CLI command and shard goes through.
    "scenario.py": {"ServingRuntime"},
    # ServingRuntime's planner: the offline step (stage plans, shares,
    # predictor resolution) shared verbatim with the simulator.
    "serve/runtime.py": {"ServerlessSystem"},
}


def test_runs_are_assembled_in_one_place():
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        classes = set(re.findall(
            r"(?<!class )\b(ServerlessSystem|ServingRuntime|_ShardSystem)\(",
            path.read_text()))
        if classes:
            found[str(path.relative_to(SRC / "repro"))] = classes
    assert found == ASSEMBLY_SITES
    scenario = (SRC / "repro" / "scenario.py").read_text()
    assert scenario.count("cls(") == 1   # Scenario.system, and only it


def _dotted(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _has_main_guard(path):
    return any(isinstance(node, ast.If) and "__main__" in ast.unparse(node.test)
               for node in ast.parse(path.read_text()).body)


def test_every_module_is_reached():
    """Every module is reached by the program: imported by another
    module or by a bench, used in code by a package ``__init__`` (as
    ``default_predictors`` uses the forecasters), or run as a script.
    A module that only its own tests and examples import is an extension
    without a verdict — adopt it into a plane, or delete it."""
    sources = sorted((SRC / "repro").rglob("*.py"))
    modules = {_dotted(path) for path in sources}
    inits = [path for path in sources if path.name == "__init__.py"]
    # package -> {name: the module the package imports it from}
    exports = {_dotted(path): {name: module
                               for module, name in _imported_names(path) if name}
               for path in inits}

    def home(module, name):
        """The module ``from module import name`` reaches, following
        package re-exports."""
        while name is not None:
            if f"{module}.{name}" in modules:
                return f"{module}.{name}"
            source = exports.get(module, {}).get(name)
            if source in (None, module):
                break
            module = source
        return module

    reached = set()
    users = [path for path in sources if path.name != "__init__.py"]
    for path in users + sorted((SRC.parent / "benchmarks").rglob("*.py")):
        me = _dotted(path) if SRC in path.parents else None
        reached |= {home(*pair) for pair in _imported_names(path)} - {me}
    for path in inits:
        origin = {name: module for module, name in _imported_names(path) if name}
        reached |= {home(origin[node.id], node.id)
                    for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Name) and node.id in origin}
    reached |= {_dotted(path) for path in users if _has_main_guard(path)}
    unreached = sorted(_dotted(path) for path in users
                       if path.name != "__main__.py"
                       and _dotted(path) not in reached)
    assert unreached == []


#: The public constructors and entry points whose keyword parameters
#: and dataclass fields are knobs, by the file that defines them.
KNOB_OWNERS = {
    "core/policies.py": ("RMConfig",),
    "scenario.py": ("Scenario", "Shards"),
    "serve/config.py": ("ServeOptions",),
    "serve/retry.py": ("RetryPolicy",),
    "runtime/system.py": ("ServerlessSystem", "run_policy"),
    "serve/runtime.py": ("ServingRuntime", "serve_trace"),
    "runtime/vector.py": ("VectorEngine",),
    "core/poolsurface.py": ("PoolSurface",),
    "serve/gateway.py": ("Gateway",),
    "core/controlplane.py": ("ControlPlane",),
    "core/scaling.py": (
        "SpawnGovernor", "ReactiveScaler", "ProactiveScaler", "HPAScaler"),
    "shard/failover.py": ("ShardHealthMonitor",),
    "prediction/guarded.py": (
        "ForecastHealthMonitor", "GuardedPredictor", "DivergentPredictor"),
    "serve/journal.py": ("RequestJournal",),
    "serve/checkpoint.py": ("CheckpointManager",),
    "shard/orchestrator.py": ("GlobalOrchestrator",),
    "shard/sim.py": ("run_sharded_policy",),
    "workflow/job.py": ("Job",),
}
#: Knobs nothing sets, and why none needs to.
_SETTLED = "run state the lifecycle writes when a job settles, not a setting"
KNOBS_WITHOUT_A_CALLER = {
    "completion_ms": _SETTLED,
    "failed_ms": _SETTLED,
}


def _callee(call):
    return ast.unparse(call.func).rsplit(".", 1)[-1]


def _params(fn):
    return [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]


def _defaulted(arguments):
    positional = arguments.posonlyargs + arguments.args
    named = positional[len(positional) - len(arguments.defaults):] + [
        arg for arg, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
        if default is not None]
    return [arg.arg for arg in named]


def _init(node):
    return next((item for item in node.body if isinstance(item, ast.FunctionDef)
                 and item.name == "__init__"), None)


def _knobs(node):
    """The parameters of *node* that carry a default — for a dataclass,
    its fields with a default (a ``default_factory`` field is each
    instance's own value, an id or a container, not a setting)."""
    if isinstance(node, ast.FunctionDef):
        return _defaulted(node.args)
    if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
        return [item.target.id for item in node.body
                if isinstance(item, ast.AnnAssign) and item.value is not None
                and "default_factory" not in ast.unparse(item.value)]
    return _defaulted(_init(node).args)


def _forwarders(trees):
    """The knob owners, ``replace``, and every function or class that
    hands its ``**kwargs`` on to one of them (a subclass's constructor, a
    factory such as ``Scenario.make``): the calls whose keywords reach a
    knob."""
    found = {owner for defined in KNOB_OWNERS.values() for owner in defined}
    found.add("replace")
    defs = [node for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))]
    while True:
        more = {node.name for node in defs
                if node.name not in found and _hands_on(node, found)}
        if not more:
            return found
        found |= more


def _hands_on(node, found):
    function = _init(node) if isinstance(node, ast.ClassDef) else node
    if function is None or function.args.kwarg is None:
        return False
    if isinstance(node, ast.ClassDef):
        return any(ast.unparse(base) in found for base in node.bases)
    kwargs = function.args.kwarg.arg
    return any(isinstance(call, ast.Call) and _callee(call) in found
               and any(kw.arg is None and ast.unparse(kw.value) == kwargs
                       for kw in call.keywords)
               for call in ast.walk(function))


def _settings(node, callees, fn=None, cls=None, inside=()):
    """Every ``(name, value, fn, cls, inside)`` by which the code under
    *node* hands a value on under a name: a keyword of a call to one of
    *callees* (by its last dotted part), a string key of a dict display
    or of a subscript assignment.  *fn* / *cls* are the innermost
    function and class around it, *inside* the names of every
    definition around it."""
    if isinstance(node, ast.ClassDef):
        cls, inside = node, inside + (node.name,)
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        fn, inside = node, inside + (node.name,)
    pairs = []
    if isinstance(node, ast.Call):
        if _callee(node) in callees:
            pairs = [(kw.arg, kw.value) for kw in node.keywords if kw.arg]
    elif isinstance(node, ast.Dict):
        pairs = [(key.value, value)
                 for key, value in zip(node.keys, node.values)
                 if isinstance(key, ast.Constant)]
    elif isinstance(node, ast.Assign):
        pairs = [(target.slice.value, node.value) for target in node.targets
                 if isinstance(target, ast.Subscript)
                 and isinstance(target.slice, ast.Constant)]
    for name, value in pairs:
        yield name, value, fn, cls, inside
    for child in ast.iter_child_nodes(node):
        yield from _settings(child, callees, fn, cls, inside)


def _own_value(value, name, fn, cls, forwarders):
    """Whether *value*, handed on as *name*, is a value of its own rather
    than a copy of a same-named knob (``x=x``, ``x=self.x``, ``x=other.x``
    where ``x`` is a parameter or field of a forwarder).  A local, a
    constant, any other expression, a property, an attribute computed
    from something else and a parameter of a function no keyword reaches
    through are each a value of their own."""
    forwarding = cls is not None and cls.name in forwarders
    if isinstance(value, ast.Name) and value.id == name:
        return not (fn is not None
                    and name in {arg.arg for arg in _params(fn)}
                    and (fn.name in forwarders
                         or (fn.name == "__init__" and forwarding)))
    if not (isinstance(value, ast.Attribute) and value.attr == name):
        return True
    if ast.unparse(value.value) != "self":
        return False
    for node in ast.walk(cls):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return True   # a property
        if isinstance(node, ast.Assign) and f"self.{name}" in map(
                ast.unparse, node.targets):
            return not forwarding or not any(
                isinstance(n, ast.Name) and n.id == name
                for n in ast.walk(node.value))
    return not forwarding  # a field


def _flag_dest(call):
    flags = [arg.value for arg in call.args]
    dest = next((kw.value.value for kw in call.keywords if kw.arg == "dest"),
                ([f for f in flags if f.startswith("--")] or flags)[0])
    return dest.lstrip("-").replace("-", "_")


def test_every_knob_has_a_caller():
    """Every knob of the public constructors and entry points is set by
    the program, not only by tests: under ``src/`` (outside the knob's
    own definition), ``benchmarks/`` or ``examples/``, a call passes it a
    value of its own by keyword (to the owner, to anything that hands
    ``**kwargs`` on, or through ``replace`` / ``dict`` / ``update``), an
    override dict names it as a string key, ``sweep_config_field`` names
    it, or a CLI flag sets it.  Reachability is per name: a same-named
    copy (``x=x``, ``x=self.x``) forwards a knob to its namesake and
    reaches exactly what that source does — so a property or computed
    attribute (``Scenario.fault_model``) is a source of its own.  A knob
    only a test sets is dead: it becomes the constant it defaults to, or
    is deleted."""
    sources = [ast.parse(path.read_text()) for root in (
        SRC / "repro", SRC.parent / "benchmarks", SRC.parent / "examples")
        for path in sorted(root.rglob("*.py"))]
    owners = {}
    for name, defined in KNOB_OWNERS.items():
        for node in ast.parse((SRC / "repro" / name).read_text()).body:
            if getattr(node, "name", None) in defined:
                for knob in _knobs(node):
                    owners.setdefault(knob, set()).add(node.name)
    forwarders = _forwarders(sources)
    callees = forwarders | {"dict", "update"}
    reached = set()
    for tree in sources:
        for node in ast.walk(tree):
            called = isinstance(node, ast.Call) and _callee(node)
            if called == "add_argument":
                reached.add(_flag_dest(node))
            elif called == "sweep_config_field":
                reached |= {arg.value for arg in node.args
                            if isinstance(arg, ast.Constant)}
        reached |= {name for name, value, fn, cls, inside in _settings(
                        tree, callees)
                    if name in owners and not owners[name] & set(inside)
                    and _own_value(value, name, fn, cls, forwarders)}
    unreached = set(owners) - reached
    dead = sorted(f"{name} ({', '.join(sorted(owners[name]))})"
                  for name in unreached - set(KNOBS_WITHOUT_A_CALLER))
    assert not dead, "knobs only tests set: " + "; ".join(dead)
    assert set(KNOBS_WITHOUT_A_CALLER) <= unreached   # no stale entry


def _references(tree, skip=(), all_counts=True):
    """Every name *tree* refers to — a ``Name``, an attribute, an
    imported alias, an exact string literal — outside the subtrees in
    *skip*.  With *all_counts* false a module's ``__all__`` list names
    nothing (a package's re-export list is not a use)."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip or (not all_counts and isinstance(node, ast.Assign)
                            and "__all__" in map(ast.unparse, node.targets)):
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_name_has_a_caller():
    """Every top-level function and class under ``src/repro`` is used by
    the program, not only by tests: code under ``src/`` refers to it
    outside its own definition (an import or a package's ``__all__``
    alone is not a use — ``repro/__init__``'s ``__all__`` is, being the
    documented API), or ``benchmarks/`` or ``examples/`` refer to it, or
    a string literal names it exactly.  A definition only tests reach is
    a test helper (it moves to ``tests/``) or dead (it is deleted)."""
    defined, used = {}, set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text())
        tops = [node for node in tree.body if isinstance(node, (
            ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        for node in tops:
            defined.setdefault(node.name, []).append(
                str(path.relative_to(SRC / "repro")))
        imports = {node for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))}
        used |= _references(
            tree, skip=imports | set(tops),
            all_counts=path == SRC / "repro" / "__init__.py")
        for node in tops:
            # A definition may use the others, never itself.
            used |= _references(node, skip=imports) - {node.name}
    for root in ("benchmarks", "examples"):
        for path in sorted((SRC.parent / root).rglob("*.py")):
            used |= _references(ast.parse(path.read_text()))
    unused = sorted(f"{name} ({', '.join(files)})"
                    for name, files in defined.items() if name not in used)
    assert not unused, "names only tests use: " + "; ".join(unused)


def test_one_definition_per_decision():
    sources = {
        str(path.relative_to(SRC / "repro")): path.read_text()
        for path in (SRC / "repro").rglob("*.py")}

    def sites(pattern):
        return sorted(name for name, text in sources.items()
                      if re.search(pattern, text))

    assert sites(r'proactive_predictor == "lstm"') == []
    # The shard-seed rule lives in for_shard.
    assert sites(r"7919") == ["scenario.py"]
    # Plane names reach ``validate`` from the scenario's derivation and
    # the two constructors callable without one.
    assert sites(r"\.validate\(") == [
        "runtime/system.py", "scenario.py", "serve/runtime.py"]
    # No entry point delegates to another.
    for name in ("runtime/system.py", "serve/runtime.py", "shard/sim.py"):
        others = {"run_policy", "run_sharded_policy", "serve_trace"}
        called = set(re.findall(r"\b(\w+)\(", sources[name])) & others
        defined = set(re.findall(r"^def (\w+)\(", sources[name], re.M))
        assert called <= defined, (name, called - defined)
    cli = sources["cli.py"]
    for call in ("run_sharded_policy", "ServingRuntime(",
                 "make_policy_config(", "predictor_for_run(", "make_trace(args",
                 "ClusterSpec("):
        assert call not in cli, call


def _imported_names(path):
    """``(module, name)`` for every import in *path*, at any depth
    (function-local imports included), read from its AST — nothing is
    executed.  *name* is None for a plain ``import module``."""
    package = (list(path.relative_to(SRC).with_suffix("").parts[:-1])
               if SRC in path.parents else [])
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield from ((module, alias.name) for alias in node.names)


def _imports(path):
    """Every module *path* imports (see :func:`_imported_names`)."""
    return {module for module, _ in _imported_names(path)}


def test_imports_point_down_the_layers():
    """``experiments`` is the top layer and ``shard`` sits on ``serve``:
    nothing below reaches up for a helper."""
    upward = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        name = str(path.relative_to(SRC / "repro"))
        for module in _imports(path):
            if (module.startswith("repro.experiments")
                    and not name.startswith("experiments/")
                    and name != "cli.py") or (
                    module.startswith("repro.shard")
                    and name.startswith("serve/")):
                upward.setdefault(name, set()).add(module)
    # The one pre-training rule is an experiment's; the scenario reaches
    # it lazily, and only for a policy whose forecaster needs training.
    assert upward == {"scenario.py": {"repro.experiments.predictors"}}


def test_a_plain_simulated_run_imports_no_other_plane():
    code = (
        "import sys, repro\n"
        "from repro import run_policy, get_mix, poisson_trace\n"
        "run_policy('rscale', get_mix('light'), poisson_trace(5, 5))\n"
        "print(sorted(m for m in sys.modules if m.startswith(("
        "'repro.serve', 'repro.shard', 'repro.experiments'))))\n")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC)}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"

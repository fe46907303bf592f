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
from repro.cluster.coldstart import ColdStartModel
from repro.cluster.energy import NodePowerModel
from repro.cluster.faults import ContainerFaultModel, FaultTimeline
from repro.core.slack import SlackDivision
from repro.experiments.runner import ExperimentRunner, config_hash
from repro.obs.trace import Tracer
from repro.prediction.classical import EWMAPredictor
from repro.runtime.system import ClusterSpec, ServerlessSystem, run_policy
from repro.runtime.vector import VectorEngineUnsupported
from repro.scenario import (
    _REFUSES,
    CACHE_FORMAT_VERSION,
    FAULT_KEYS,
    Scenario,
    Shards,
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
    (None, 2, LIVE, "live-sharded", "kill-node@1=0"),
])
def test_plane_is_derived_and_refuses_what_it_does_not_enact(
        engine, shards, live, plane, foreign_kind):
    members = dict(engine=engine, shards=Shards(n=shards), live=live)
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
    (dict(live=LIVE, shards=Shards(n=2), engine="fast"),
     "engine is not supported on the live-sharded plane"),
])
def test_members_a_plane_cannot_honour_are_refused_when_built(
        members, refused):
    with pytest.raises(ValueError, match=refused):
        Scenario.make("rscale", **members)


#: How to reach each plane, and a scripted fault it enacts.
PLANES = {
    "sim": (dict(), "blackout@1:2"),
    "vector": (dict(engine="vector"), "blackout@1:2"),
    "sim-sharded": (dict(shards=Shards(n=2)), "kill-shard@1=0"),
    "live": (dict(live=LIVE), "brownout@1:2x2"),
    "live-sharded": (dict(live=LIVE, shards=Shards(n=2)), "brownout@1:2x2"),
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
        assembled._build(executor=None)   # no slot is spawned: never used
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
    shards = ([scenario.for_shard(i, 2) for i in range(2)] if sharded
              else [scenario])
    if plane == "sim-sharded" and member == "timeline":
        # The plane enacts its plane-wide kinds itself (§17): the
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
    with pytest.raises(ValueError, match="tracer .* live-sharded plane"):
        Scenario.make("fifer", trace=trace, live=LIVE,
                      shards=Shards(n=2)).run(tracer=Tracer())


# ---------------------------------------------------------------------------
# (c) per-shard derivation


@pytest.mark.parametrize("n_shards, grants", [
    (1, [8]), (2, [5, 3]), (4, [2, 2, 2, 2])])
def test_for_shard_reproduces_the_per_shard_stamping(n_shards, grants, tmp_path):
    cluster = ClusterSpec(
        n_nodes=8, cores_per_node=2.0, memory_per_node_mb=4096.0)
    options = ServeOptions(time_scale=0.05, journal_dir=str(tmp_path))
    predictor = EWMAPredictor()
    plane = Scenario.make(
        "bpred", cluster=cluster, seed=11, live=options, predictor=predictor,
        shards=Shards(n=n_shards, initial_node_grants=grants))
    for shard_id, grant in enumerate(grants):
        shard = plane.for_shard(shard_id, grant)
        assert shard.seed == 11 + 7919 * (shard_id + 1)
        assert shard.cluster == ClusterSpec(
            n_nodes=grant, cores_per_node=2.0, memory_per_node_mb=4096.0)
        assert shard.live == dataclasses.replace(
            options, shard_id=shard_id, n_shards=n_shards)
        assert shard.shards == Shards() and shard.plane == "live"
        assert shard.predictor is predictor


def test_for_shard_stamps_the_liveness_cadence_once_a_kill_is_scripted(
        tmp_path):
    options = ServeOptions(journal_dir=str(tmp_path))
    plane = Scenario.make(
        "rscale", live=options, faults=(("timeline", "kill-shard@1=1"),),
        shards=Shards(n=2, heartbeat_interval_ms=250.0))
    assert plane.for_shard(0, 2).live == dataclasses.replace(
        options, shard_id=0, n_shards=2, heartbeat_interval_ms=250.0)


def test_a_simulated_shard_keeps_its_crash_model_and_replays_no_script():
    plane = Scenario.make(
        "rscale", nodes=4, seed=3, shards=Shards(n=2),
        faults=(("crash_probability", 0.2), ("timeline", "kill-shard@1=0")))
    shard = plane.for_shard(1)
    assert (shard.plane, shard.seed, shard.cluster) == (
        "sim", 3 + 7919 * 2, ClusterSpec(n_nodes=4))
    assert shard.faults == (("crash_probability", 0.2),)
    assert not shard.timeline


# ---------------------------------------------------------------------------
# typed overrides (all three fail at the parent commit)

SWEEP = ["sweep", "rscale", "--duration", "40"]


def _direct(**overrides):
    return Scenario.make("rscale", duration_s=40.0, **overrides)


@pytest.mark.parametrize("field, values, typed", [
    ("batching", ["true", "false"], [True, False]),
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
    (["--field", "batching", "--values", "maybe"],
     "sweep: bad value 'maybe' for RMConfig field 'batching'"),
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


def test_enum_and_bool_overrides_hash_and_round_trip(tmp_path):
    typed = Scenario.make(
        "rscale", trace_kind="poisson", rate_rps=15.0, duration_s=20.0,
        nodes=2, slack_division=SlackDivision.EQUAL, batching=True)
    spelled = dataclasses.replace(typed, overrides=(
        ("slack_division", "equal"), ("batching", "true")))
    assert typed == spelled and config_hash(typed) == config_hash(spelled)
    assert json.loads(json.dumps(typed.canonical())) == typed.canonical()
    assert typed.config().slack_division is SlackDivision.EQUAL
    assert typed.config().batching is True
    cold = ExperimentRunner(cache_dir=tmp_path).run([typed])
    warm = ExperimentRunner(cache_dir=tmp_path).run([spelled])
    assert warm[0].from_cache and warm[0].summary == cold[0].summary
    assert Scenario.make("fifer", mape_threshold="none").config() \
        .mape_threshold is None


# ---------------------------------------------------------------------------
# nothing the caller passes is dropped on a sharded plane (at the parent:
# 0 crashes, 0 spans, the stock models, exit clean)


def _sharded(policy="bline", **kwargs):
    return run_policy(
        policy, get_mix("medium"), poisson_trace(20.0, 20.0, seed=5),
        cluster_spec=ClusterSpec(n_nodes=4), seed=5, shards=2, **kwargs)


def _total(result, field):
    return sum(getattr(r, field) for r in result.per_shard.values())


@pytest.mark.parametrize("argument", [
    "fault_model", "tracer", "cold_start_model", "power_model"])
def test_no_argument_is_dropped_on_the_sharded_plane(argument):
    if argument == "tracer":
        with pytest.raises(
                ValueError,
                match="tracer is not supported on the sim-sharded plane"):
            _sharded(tracer=Tracer())
    elif argument == "fault_model":
        result = _sharded(
            fault_model=ContainerFaultModel(crash_probability=0.3))
        assert all(r.container_crashes for r in result.per_shard.values())
    elif argument == "cold_start_model":
        slow = _sharded(cold_start_model=ColdStartModel(base_spawn_ms=20_000.0))
        assert min(r.p99_latency_ms for r in slow.per_shard.values()) \
            > 3 * max(r.p99_latency_ms for r in _sharded().per_shard.values())
    else:
        hungry = _sharded(power_model=NodePowerModel(idle_w=300.0))
        assert _total(hungry, "energy_joules") \
            > 2 * _total(_sharded(), "energy_joules")


# ---------------------------------------------------------------------------
# (d) the ported experiment loops: summaries recorded at the parent commit
# (sharing the training rule and the assembly moved no figure)


def _summaries(results):
    return {str(key): result.summary() for key, result in results.items()}


def _entry_points():
    from repro.experiments import ablations
    from repro.experiments.prototype import run_prototype
    from repro.experiments.repeats import repeated_runs
    from repro.experiments.scaling_study import run_scaling_study
    from repro.experiments.simulation import run_trace_simulation
    from repro.experiments.sweeps import sweep_config_field

    return {
        "run_prototype": lambda: _summaries(run_prototype(
            policies=["rscale", "fifer"], duration_s=40.0)),
        "run_trace_simulation": lambda: _summaries(run_trace_simulation(
            "wits", policies=["bpred", "fifer"], duration_s=40.0)),
        "run_scaling_study": lambda: {
            str(scale): _summaries(results)
            for scale, results in run_scaling_study(
                scales=((1.0, 50.0, 5),), duration_s=40.0).items()},
        "repeated_runs": lambda: [
            r.summary() for r in repeated_runs("fifer", seeds=(1, 2))],
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


def test_one_definition_per_decision():
    sources = {
        str(path.relative_to(SRC / "repro")): path.read_text()
        for path in (SRC / "repro").rglob("*.py")}

    def sites(pattern):
        return sorted(name for name, text in sources.items()
                      if re.search(pattern, text))

    assert sites(r'proactive_predictor == "lstm"') == []
    # The shard-seed rule, and the identity stamping, live in for_shard.
    assert sites(r"7919") == ["scenario.py"]
    assert sites(r"replace\(\s*\w+,\s*shard_id=") == ["scenario.py"]
    # Plane names reach ``validate`` from the scenario's derivation and
    # the two constructors callable without one.
    assert sites(r"\.validate\(") == [
        "runtime/system.py", "scenario.py", "serve/runtime.py"]
    # No entry point delegates to another.
    for name in ("runtime/system.py", "serve/runtime.py", "shard/sim.py",
                 "shard/live.py"):
        others = {"run_policy", "run_sharded_policy", "serve_trace",
                  "serve_sharded"}
        called = set(re.findall(r"\b(\w+)\(", sources[name])) & others
        defined = set(re.findall(r"^def (\w+)\(", sources[name], re.M))
        assert called <= defined, (name, called - defined)
    cli = sources["cli.py"]
    for call in ("run_sharded_policy", "serve_sharded", "ServingRuntime(",
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

"""The fault timeline: one event type, one grammar, one replay driver
per plane — and every entry point refuses, when the run is built, what
its plane cannot enact."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import build_parser, main
from repro.cluster.faults import KINDS, PLANE_KINDS, FaultEvent, FaultTimeline
from repro.core.policies import make_policy_config
from repro.experiments.runner import ExperimentRunner
from repro.runtime.system import ClusterSpec, ServerlessSystem, run_policy
from repro.scenario import Scenario
from repro.serve import ServingRuntime
from repro.serve import faults as serve_faults
from repro.shard import run_sharded_policy
from repro.traces import poisson_trace
from repro.workloads import get_mix

ALL_KINDS = (
    "kill-node@30=0,1;recover-node@60=0,1;kill-shard@6=1;recover-shard@9=1;"
    "blackout@20:35;brownout@10:20x3;kill-workers@5;crash-gateway@4;"
    "crash-control@4.5"
)


# ---------------------------------------------------------------------------
# grammar


def test_round_trip_covers_every_kind():
    timeline = FaultTimeline.parse(ALL_KINDS)
    assert {e.kind for e in timeline.events} == set(KINDS)
    assert FaultTimeline.parse(str(timeline)) == timeline
    assert str(timeline.window("brownout")) == "brownout@10:20x3"
    assert FaultTimeline.parse("BLACKOUT@5:INF").window("blackout") \
        .until_ms == float("inf")


# Half-second instants: exact in binary, so seconds <-> ms is lossless.
_MS = st.integers(min_value=0, max_value=20_000).map(lambda n: n * 500.0)
_IDS = st.lists(st.integers(0, 63), min_size=1, max_size=4, unique=True) \
    .map(tuple)


@st.composite
def _events(draw):
    kind = draw(st.sampled_from(KINDS))
    at_ms = draw(_MS)
    ids = draw(_IDS) if kind.endswith(("-node", "-shard")) else ()
    until_ms = factor = None
    if kind in ("blackout", "brownout"):
        until_ms = at_ms + draw(st.integers(1, 2_000)) * 500.0
    if kind == "brownout":
        factor = draw(st.floats(1.0, 50.0))
    return FaultEvent(at_ms, kind, ids, until_ms, factor)


@settings(max_examples=150, deadline=None)
@given(st.lists(_events(), max_size=8), st.randoms())
def test_timelines_are_canonical_and_round_trip(events, rnd):
    timeline = FaultTimeline(events)
    times = [e.at_ms for e in timeline.events]
    assert times == sorted(times)
    # Same-instant order is a property of the events, not of how the
    # script was spelled.
    shuffled = list(events)
    rnd.shuffle(shuffled)
    assert FaultTimeline(shuffled) == timeline
    if events:
        assert FaultTimeline.parse(str(timeline)) == timeline


@pytest.mark.parametrize("corrupt", [
    lambda chunk: chunk.replace("@", "#"),          # no @START
    lambda chunk: "melt" + chunk,                   # unknown kind
    lambda chunk: chunk.replace("@", "@-1"),        # negative time
    lambda chunk: chunk.replace("@", "@soon"),      # not a number
    lambda chunk: chunk + "x0.5",                   # factor < 1 / misplaced
    lambda chunk: chunk + "=7",                     # a second / stray id list
])
@settings(max_examples=25, deadline=None)
@given(st.lists(_events(), min_size=1, max_size=4), st.data())
def test_malformed_chunk_is_rejected_and_quoted(corrupt, events, data):
    chunks = [str(e) for e in FaultTimeline(events).events]
    victim = data.draw(st.integers(0, len(chunks) - 1))
    bad = corrupt(chunks[victim])
    chunks[victim] = bad
    with pytest.raises(ValueError) as exc:
        FaultTimeline.parse(";".join(chunks))
    assert repr(bad) in str(exc.value)


# ---------------------------------------------------------------------------
# kind x plane: what each plane enacts, written out cell by cell

ENACTS = {
    #                     sim    vector sim-sh live
    "kill-node":         (True,  False, False, True),
    "recover-node":      (True,  False, False, True),
    "kill-shard":        (False, False, True,  False),
    "recover-shard":     (False, False, True,  False),
    "blackout":          (True,  True,  False, False),
    "brownout":          (False, False, False, True),
    "kill-workers":      (False, False, False, True),
    "crash-gateway":     (False, False, False, True),
    "crash-control":     (False, False, False, True),
}
PLANES = ("sim", "vector", "sim-sharded", "live")


def _one(kind):
    return next(e for e in FaultTimeline.parse(ALL_KINDS).events
                if e.kind == kind)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("plane", PLANES)
def test_kind_plane_cell(plane, kind):
    timeline = FaultTimeline((_one(kind),))
    if ENACTS[kind][PLANES.index(plane)]:
        assert timeline.validate(plane, n_nodes=4, n_shards=4) is timeline
    else:
        with pytest.raises(ValueError, match=f"{plane} plane does not enact"):
            timeline.validate(plane, n_nodes=4, n_shards=4)


def test_the_table_above_is_the_whole_table():
    assert set(PLANE_KINDS) == set(PLANES) and set(ENACTS) == set(KINDS)


def test_validate_refuses_ids_windows_and_lone_shards():
    parse = FaultTimeline.parse
    with pytest.raises(ValueError, match="out of range: the run has 2 nodes"):
        parse("kill-node@0.5=9").validate("sim", n_nodes=2)
    with pytest.raises(ValueError, match="out of range: the run has 3 shards"):
        parse("kill-shard@1=3").validate("sim-sharded", n_shards=3)
    with pytest.raises(ValueError, match="at most one blackout"):
        parse("blackout@1:2;blackout@5:6").validate("sim")
    with pytest.raises(ValueError, match="at most one brownout"):
        parse("brownout@1:2x2;brownout@5:6x2").validate("live")
    with pytest.raises(ValueError, match="lone shard"):
        parse("kill-shard@1=0").validate("sim", n_shards=1)


# ---------------------------------------------------------------------------
# every entry point validates when the run is built

TINY_TRACE = poisson_trace(2.0, 2.0, seed=1)


def test_entry_points_refuse_at_build_time(tmp_path):
    mix = get_mix("light")
    config = make_policy_config("rscale")
    with pytest.raises(ValueError, match="out of range"):
        ServerlessSystem(config, mix, ClusterSpec(n_nodes=2),
                         faults=FaultTimeline.parse("kill-node@0.5=9"))
    with pytest.raises(ValueError, match="sim plane does not enact"):
        run_policy("rscale", mix, TINY_TRACE,
                   faults=FaultTimeline.parse("crash-gateway@1"))
    with pytest.raises(ValueError, match="vector plane does not enact"):
        run_policy("rscale", mix, TINY_TRACE, engine="vector",
                   faults=FaultTimeline.parse("recover-node@1=0"))
    # The sharded plane once dropped node schedules silently.
    with pytest.raises(ValueError, match="sim-sharded plane does not enact"):
        run_sharded_policy("rscale", mix, TINY_TRACE, shards=2,
                           faults=FaultTimeline.parse("kill-node@1=0"))
    with pytest.raises(ValueError, match="live plane does not enact"):
        ServingRuntime(config, mix, faults=FaultTimeline.parse("blackout@1:2"))
    with pytest.raises(ValueError, match="out of range"):
        ServingRuntime(config, mix, ClusterSpec(n_nodes=2),
                       faults=FaultTimeline.parse("kill-node@0.5=9"))


def test_trial_spec_rejects_unknown_fault_keys():
    with pytest.raises(ValueError, match="node_fault_schedul.*timeline"):
        Scenario.make(
            "rscale", faults=(("node_fault_schedul", "kill-node@1=0"),))


def test_no_fault_cache_keys_are_unchanged():
    from repro.experiments.runner import config_hash

    # Computed at the parent commit: specs without a scripted timeline
    # keep their cache entries (no CACHE_FORMAT_VERSION bump).
    assert config_hash(Scenario.make("rscale")) == (
        "b0cd21059f9ddb74dc5365f6a665ee3b0cc79a46bb217db2a2aef8cca666b5a5")
    assert config_hash(Scenario.make(
        "fifer", faults=(("diverge_after", 3),), mape_threshold=0.5, seed=9,
    )) == "75eb3844a268aeb212c9987e8d3b8b1ee691d01bdf54dc2df8c534e29f1cc927"


# ---------------------------------------------------------------------------
# the live driver: one task, and a dead injector fails the run


def test_a_raising_fault_action_fails_the_run(monkeypatch):
    async def boom(runtime, event):
        raise RuntimeError("injector died")

    monkeypatch.setitem(serve_faults.ACTIONS, "kill-workers", boom)
    runtime = ServingRuntime(
        make_policy_config("rscale", idle_timeout_ms=60_000.0),
        get_mix("light"), seed=1,
        faults=FaultTimeline.parse("kill-workers@0.5"))
    with pytest.raises(RuntimeError, match="injector died"):
        runtime.run(TINY_TRACE)


def test_live_replay_applies_every_event_in_order(monkeypatch):
    seen = []

    async def record(runtime, event):
        seen.append((event.kind, event.ids, runtime.clock.now >= event.at_ms))

    for kind in ("kill-node", "recover-node"):
        monkeypatch.setitem(serve_faults.ACTIONS, kind, record)
    runtime = ServingRuntime(
        make_policy_config("rscale", idle_timeout_ms=60_000.0),
        get_mix("light"), ClusterSpec(n_nodes=3), seed=1,
        faults=FaultTimeline.parse(
            "recover-node@1=0;kill-node@0.5=0;kill-node@1=1;kill-node@900=2"))
    # TINY_TRACE drains before 1 s; this one still arrives at 3.4 s.
    runtime.run(poisson_trace(2.0, 5.0, seed=1))
    # Sorted by time, node kills before recoveries at one instant; the
    # event scripted past the drain never fires and fails nothing.
    assert seen == [("kill-node", (0,), True), ("kill-node", (1,), True),
                    ("recover-node", (0,), True)]


# ---------------------------------------------------------------------------
# CLI: --faults reaches what gets built


def _spy_init(monkeypatch, cls, seen, pick):
    real = cls.__init__

    def spy(self, *args, **kwargs):
        seen.append(pick(kwargs))
        real(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", spy)


RUN = ["run", "rscale", "--mix", "light", "--trace", "poisson",
       "--rate", "3", "--duration", "3", "--nodes", "2"]
SERVE = ["serve", "--policy", "rscale", "--mix", "light", "--trace",
         "poisson", "--rate", "3", "--duration", "2", "--nodes", "2"]


@pytest.mark.parametrize("extra, n_systems", [([], 1), (["--repeats", "2"], 2)])
def test_cli_run_faults_reach_the_system(monkeypatch, capsys, extra, n_systems):
    seen = []
    _spy_init(monkeypatch, ServerlessSystem, seen, lambda kw: kw["faults"])
    spec = "kill-node@1=1;blackout@1.5:2"
    assert main(RUN + ["--faults", spec] + extra) == 0
    assert seen == [FaultTimeline.parse(spec)] * n_systems


def test_cli_run_shards_faults_reach_the_plane(monkeypatch, capsys):
    import repro.shard.sim

    seen = []
    real = repro.shard.sim.run_plane

    def spy(scenario):
        seen.append(scenario.timeline)
        return real(scenario)

    monkeypatch.setattr(repro.shard.sim, "run_plane", spy)
    spec = "kill-shard@1=1;recover-shard@2=1"
    assert main(RUN + ["--shards", "2", "--faults", spec]) == 0
    assert seen == [FaultTimeline.parse(spec)]
    assert "failover:" in capsys.readouterr().out


def test_cli_serve_faults_reach_the_options(monkeypatch, capsys):
    seen = []
    _spy_init(monkeypatch, ServingRuntime, seen, lambda kw: kw["faults"])
    spec = "brownout@0:1x2;kill-workers@1;kill-node@1.5=1"
    assert main(SERVE + ["--faults", spec]) == 0
    assert seen == [FaultTimeline.parse(spec)]


@pytest.mark.parametrize("argv, message", [
    (RUN + ["--faults", "kill-node@0.5=9"], "out of range"),
    (RUN + ["--faults", "crash-gateway@1"], "does not enact"),
    (RUN + ["--engine", "vector", "--faults", "kill-node@1=0"],
     "vector plane does not enact"),
    (RUN + ["--repeats", "2", "--faults", "kill-node@0.5=9"], "out of range"),
    (RUN + ["--shards", "2", "--faults", "kill-shard@1=5"], "out of range"),
    (RUN + ["--faults", "kill@0.5=0"], "bad fault spec 'kill@0.5=0'"),
    (SERVE + ["--faults", "kill-node@0.5=9;kill-node@1=0"], "out of range"),
    (SERVE + ["--faults", "blackout@1:2"], "does not enact"),
    (SERVE + ["--faults", "crash-gateway@1"], "journal_dir"),
    (RUN + ["--faults", "kill-shard@1=0"], "lone shard"),
    (SERVE + ["--faults", "recover-shard@1=0"], "does not enact"),
    # (refused before anything is built: the directory is never made)
    (SERVE + ["--journal-dir", "never-created", "--faults", "kill-shard@1=0"],
     "the live plane does not enact 'kill-shard'"),
])
def test_cli_refuses_before_the_run_with_a_usage_error(argv, message):
    # A usage error: SystemExit carrying the message and exit status 2,
    # never a ValueError traceback from inside the run, never exit 0.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in str(exc.value)


def test_the_nine_old_flags_are_gone():
    for argv in (
        RUN + ["--node-fault-schedule", "kill@1=0"],
        RUN + ["--control-blackout", "1:2"],
        RUN + ["--shards", "2", "--shard-faults", "kill@1=0"],
        SERVE + ["--registry-brownout", "0:1:2"],
        SERVE + ["--kill-workers-at", "1"],
        SERVE + ["--gateway-crash-at", "1"],
        SERVE + ["--control-crash-at", "1"],
        SERVE + ["--kill-shard-at", "1"],
        SERVE + ["--kill-shard-id", "1"],
    ):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


# ---------------------------------------------------------------------------
# one spec -> system path


def test_single_run_and_runner_paths_agree(monkeypatch, capsys):
    spec = "kill-node@1=1;blackout@1.5:2"
    summaries = []
    real = ServerlessSystem.run

    def spy(self, trace):
        result = real(self, trace)
        summaries.append(result.summary())
        return result

    monkeypatch.setattr(ServerlessSystem, "run", spy)
    assert main(RUN + ["--seed", "3", "--faults", spec]) == 0
    trial = Scenario.make(
        "rscale", mix="light", trace_kind="poisson", rate_rps=3.0,
        duration_s=3.0, nodes=2, seed=3, faults=(("timeline", spec),))
    assert ExperimentRunner().run([trial])[0].summary == summaries[0]
    assert summaries[0]["nodes_killed"] == 1 and summaries[0]["recoveries"] == 1


# ---------------------------------------------------------------------------
# experiments/shard_failover: the study records the spec it replayed


def test_failover_study_records_the_spec_it_replays(monkeypatch):
    from repro.experiments import shard_failover as study

    seen = {}
    real_sim = study.run_sharded_policy

    def sim_spy(*args, **kwargs):
        if kwargs.get("faults"):
            seen["sim"] = kwargs["faults"]
        return real_sim(*args, **kwargs)

    monkeypatch.setattr(study, "run_sharded_policy", sim_spy)
    record = study.run_failover_study(quick=True)
    # The string in the record is exactly what the plane replayed: a
    # kill and, a third of the trace later, the shard's re-admission.
    assert {k: str(v) for k, v in seen.items()} == record["faults"]
    assert record["faults"]["sim"] == study.kill_spec(20.0, 40.0) == (
        "kill-shard@20=1;recover-shard@40=1")
    assert all(record["acceptance"].values()), record["acceptance"]

"""Experiment-runner tests: config hashing, seed derivation, disk-cache
replay, and the serial == parallel determinism contract."""

import json

import pytest

from repro.experiments.runner import (
    CACHE_FORMAT_VERSION,
    ExperimentRunner,
    config_hash,
    derive_seeds,
    run_trial,
    sweep_specs,
)
from repro.scenario import Scenario

#: Small enough to keep the suite fast, big enough to exercise jobs.
TINY = dict(mix="heavy", trace_kind="poisson", rate_rps=15.0,
            duration_s=20.0, nodes=2)


def repeat_specs(policy, base_seed, repeats, **members):
    """A repeat batch the way ``repro run --repeats`` builds one."""
    return [Scenario.make(policy, seed=seed, **members)
            for seed in derive_seeds(base_seed, repeats)]


def tiny_specs(n=2, policy="bline"):
    return repeat_specs(policy, base_seed=42, repeats=n, **TINY)


def summaries_json(results):
    """Canonical JSON for a result batch, without provenance (``wall_s``,
    ``from_cache``), so serial, parallel and cache-replayed batches of
    the same specs serialize identically."""
    payload = [
        {"key": r.key, "spec": r.spec.canonical(), "summary": r.summary}
        for r in results
    ]
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class TestSpecAndHash:
    def test_hash_is_stable_across_processes_and_order(self):
        a = Scenario.make("rscale", seed=1,
                          overrides=(("max_batch", 4), ("alpha", 2.0)))
        b = Scenario.make("rscale", seed=1,
                          overrides=(("alpha", 2.0), ("max_batch", 4)))
        assert a == b
        assert config_hash(a) == config_hash(b)

    def test_hash_distinguishes_every_field(self):
        base = Scenario.make("rscale", **TINY)
        variants = [
            Scenario.make("bline", **TINY),
            Scenario.make("rscale", **{**TINY, "rate_rps": 16.0}),
            Scenario.make("rscale", **{**TINY, "nodes": 3}),
            Scenario.make("rscale", seed=6, **TINY),
            Scenario.make("rscale", overrides=(("max_batch", 2),), **TINY),
        ]
        hashes = {config_hash(s) for s in [base] + variants}
        assert len(hashes) == len(variants) + 1

    def test_make_folds_unknown_kwargs_into_overrides(self):
        spec = Scenario.make("rscale", seed=2, max_batch=8)
        assert spec.overrides == (("max_batch", 8),)

    def test_canonical_round_trips_through_json(self):
        spec = Scenario.make("rscale", **TINY)
        assert json.loads(json.dumps(spec.canonical())) == spec.canonical()

    def test_hash_includes_fault_and_guardrail_config(self):
        """Regression: two trials differing only in injected faults or
        guard knobs must never share a cache entry."""
        base = Scenario.make("rscale", **TINY)
        variants = [
            Scenario.make("rscale",
                          faults=(("crash_probability", 0.1),), **TINY),
            Scenario.make("rscale",
                          faults=(("diverge_after", 3),), **TINY),
            Scenario.make(
                "rscale",
                faults=(("timeline", "kill-node@30=0"),), **TINY),
            Scenario.make("rscale", shed_expired=True, **TINY),
            Scenario.make("rscale", mape_threshold=0.5, **TINY),
            Scenario.make("rscale", max_surge=8, **TINY),
            Scenario.make("rscale", spawn_retry_attempts=2, **TINY),
        ]
        hashes = {config_hash(s) for s in [base] + variants}
        assert len(hashes) == len(variants) + 1

    def test_fault_order_does_not_change_the_hash(self):
        a = Scenario.make(
            "rscale",
            faults=(("diverge_after", 3), ("crash_probability", 0.1)),
            **TINY)
        b = Scenario.make(
            "rscale",
            faults=(("crash_probability", 0.1), ("diverge_after", 3)),
            **TINY)
        assert config_hash(a) == config_hash(b)


class TestDeriveSeeds:
    def test_deterministic_and_prefix_stable(self):
        assert derive_seeds(9, 4) == derive_seeds(9, 4)
        assert derive_seeds(9, 2) == derive_seeds(9, 4)[:2]

    def test_distinct_bases_distinct_seeds(self):
        assert derive_seeds(1, 3) != derive_seeds(2, 3)
        assert len(set(derive_seeds(1, 16))) == 16

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            derive_seeds(1, -1)


class TestRunnerDeterminism:
    def test_parallel_matches_serial_byte_for_byte(self):
        specs = tiny_specs(3)
        serial = ExperimentRunner(workers=1).run(specs)
        parallel = ExperimentRunner(workers=2).run(specs)
        assert summaries_json(serial) == summaries_json(parallel)
        # Order follows input order, not completion order.
        assert [r.spec.seed for r in parallel] == [s.seed for s in specs]

    def test_cache_replay_equals_cold_run(self, tmp_path):
        specs = tiny_specs(2)
        cold = ExperimentRunner(workers=1, cache_dir=tmp_path)
        cold_results = cold.run(specs)
        assert (cold.cache_hits, cold.cache_misses) == (0, 2)
        warm = ExperimentRunner(workers=1, cache_dir=tmp_path)
        warm_results = warm.run(specs)
        assert (warm.cache_hits, warm.cache_misses) == (2, 0)
        assert all(r.from_cache for r in warm_results)
        assert summaries_json(warm_results) == summaries_json(cold_results)

    def test_run_trial_matches_runner_summary(self):
        spec = tiny_specs(1)[0]
        assert run_trial(spec) == ExperimentRunner().run([spec])[0].summary


class TestParallelRegression:
    """The chunked pool path: same bytes as serial, in input order."""

    def _eight_specs(self):
        # >= 8 distinct uncached trials across two policies, so the
        # round-robin chunks interleave different workloads.
        return (
            repeat_specs("bline", base_seed=19, repeats=4, **TINY)
            + repeat_specs("rscale", base_seed=23, repeats=4, **TINY)
        )

    def test_workers4_bit_identical_to_serial_in_input_order(self):
        specs = self._eight_specs()
        assert len(specs) >= 8
        serial = ExperimentRunner(workers=1).run(specs)
        parallel = ExperimentRunner(workers=4).run(specs)
        assert [r.spec for r in parallel] == specs
        assert summaries_json(serial) == summaries_json(parallel)
        assert all(not r.from_cache for r in parallel)
        assert all(r.wall_s > 0.0 for r in parallel)

    def test_parallel_path_still_writes_cache(self, tmp_path):
        specs = self._eight_specs()
        runner = ExperimentRunner(workers=4, cache_dir=tmp_path)
        runner.run(specs)
        assert runner.cache_misses == len(specs)
        replay = ExperimentRunner(workers=4, cache_dir=tmp_path)
        replay.run(specs)
        assert replay.cache_hits == len(specs)

    def test_engine_field_is_not_part_of_the_cache_key(self):
        base = Scenario.make("rscale", **TINY)
        vector = Scenario.make("rscale", engine="vector", **TINY)
        assert vector.engine == "vector"
        assert config_hash(base) == config_hash(vector)
        assert "engine" not in base.canonical()

    def test_engine_cache_sharing_is_sound(self):
        # Sharing cache entries across engines is only valid because
        # the summaries are bit-identical; check it end to end.
        base = Scenario.make("rscale", **TINY)
        vector = Scenario.make("rscale", engine="vector", **TINY)
        assert run_trial(base) == run_trial(vector)


class TestCacheEdgeCases:
    def test_no_cache_flag_ignores_but_still_writes(self, tmp_path):
        specs = tiny_specs(1)
        ExperimentRunner(workers=1, cache_dir=tmp_path).run(specs)
        runner = ExperimentRunner(
            workers=1, cache_dir=tmp_path, use_cache=False
        )
        runner.run(specs)
        assert runner.cache_hits == 0 and runner.cache_misses == 1

    def test_corrupt_entry_falls_back_to_execution(self, tmp_path):
        specs = tiny_specs(1)
        runner = ExperimentRunner(workers=1, cache_dir=tmp_path)
        results = runner.run(specs)
        path = tmp_path / f"{results[0].key}.json"
        path.write_text("{not json")
        rerun = ExperimentRunner(workers=1, cache_dir=tmp_path)
        rerun_results = rerun.run(specs)
        assert rerun.cache_misses == 1
        assert rerun_results[0].summary == results[0].summary

    def test_version_bump_invalidates_entries(self, tmp_path):
        specs = tiny_specs(1)
        runner = ExperimentRunner(workers=1, cache_dir=tmp_path)
        results = runner.run(specs)
        path = tmp_path / f"{results[0].key}.json"
        payload = json.loads(path.read_text())
        payload["version"] = CACHE_FORMAT_VERSION + 1
        path.write_text(json.dumps(payload))
        rerun = ExperimentRunner(workers=1, cache_dir=tmp_path)
        rerun.run(specs)
        assert rerun.cache_hits == 0

    def test_mixed_hit_miss_batch_keeps_input_order(self, tmp_path):
        specs = tiny_specs(3)
        ExperimentRunner(workers=1, cache_dir=tmp_path).run(specs[:1])
        runner = ExperimentRunner(workers=1, cache_dir=tmp_path)
        results = runner.run(specs)
        assert (runner.cache_hits, runner.cache_misses) == (1, 2)
        assert [r.spec.seed for r in results] == [s.seed for s in specs]
        assert [r.from_cache for r in results] == [True, False, False]


class TestSpecFactories:
    def test_sweep_specs_vary_only_the_field(self):
        specs = sweep_specs("rscale", "max_batch", [1, 8], seed=5, **TINY)
        assert [dict(s.overrides)["max_batch"] for s in specs] == [1, 8]
        assert len({s.seed for s in specs}) == 1


class TestCli:
    def test_run_repeats_with_cache(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["run", "bline", "--trace", "poisson", "--rate", "15",
                "--duration", "20", "--nodes", "2", "--repeats", "2",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "aggregate over 2 seeds" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "2 hit(s)" in warm

    def test_sweep_command(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["sweep", "rscale", "--field", "max_batch",
                     "--values", "1", "4", "--trace", "poisson",
                     "--rate", "15", "--duration", "20", "--nodes", "2",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "sweep max_batch" in out


class TestTraceCachePriming:
    """The spawn-start-method fallback for trace-cache priming."""

    def test_prime_builds_each_distinct_trace_once(self):
        from repro.traces.factory import _TRACE_CACHE, prime_trace_cache

        _TRACE_CACHE.clear()
        n = prime_trace_cache([
            ("poisson", 15.0, 20.0, 1),
            ("poisson", 15.0, 20.0, 1),   # duplicate key
            ("poisson", 15.0, 20.0, 2),
        ])
        assert n == 2
        assert ("poisson", 15.0, 20.0, 1) in _TRACE_CACHE
        assert ("poisson", 15.0, 20.0, 2) in _TRACE_CACHE

    def test_pool_inherits_memory_matches_default_context(self):
        import multiprocessing as mp

        from repro.traces.factory import pool_inherits_memory

        expected = mp.get_context().get_start_method() == "fork"
        assert pool_inherits_memory() is expected

    def test_spawn_worker_is_primed_by_initializer(self):
        """Regression: spawn workers used to start with an empty cache
        and silently rebuild every trace; the pool initializer must
        prime each worker process."""
        import os
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent("""
            import multiprocessing as mp
            from concurrent.futures import ProcessPoolExecutor

            from repro.traces.factory import trace_cache_initializer
            from probe_trace_cache import probe

            if __name__ == "__main__":
                keys = [("poisson", 15.0, 20.0, 7)]
                ctx = mp.get_context("spawn")
                with ProcessPoolExecutor(
                    max_workers=1, mp_context=ctx,
                    initializer=trace_cache_initializer,
                    initargs=(keys,),
                ) as ex:
                    assert ex.submit(probe, keys[0]).result(), \\
                        "spawn worker cache not primed"
                print("PRIMED")
        """)
        probe_module = textwrap.dedent("""
            def probe(key):
                import repro.traces.factory as factory
                return tuple(key) in factory._TRACE_CACHE
        """)
        import tempfile

        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        with tempfile.TemporaryDirectory() as tmp:
            main_py = os.path.join(tmp, "main.py")
            with open(main_py, "w") as fh:
                fh.write(script)
            with open(os.path.join(tmp, "probe_trace_cache.py"), "w") as fh:
                fh.write(probe_module)
            out = subprocess.run(
                [sys.executable, main_py], capture_output=True,
                text=True,
                env=dict(os.environ,
                         PYTHONPATH=os.pathsep.join([src, tmp])),
            )
        assert out.returncode == 0, out.stderr
        assert "PRIMED" in out.stdout

    def test_parallel_runner_still_deterministic_with_initializer(
            self, tmp_path):
        specs = tiny_specs(3)
        serial = ExperimentRunner(workers=1, cache_dir=None).run(specs)
        parallel = ExperimentRunner(workers=2, cache_dir=None).run(specs)
        assert summaries_json(serial) == summaries_json(parallel)

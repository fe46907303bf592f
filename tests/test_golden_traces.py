"""Golden-trace snapshot: the sim's span stream is frozen byte-for-byte.

A seeded simulation must keep emitting the same spans — same names,
same nesting, same (rounded) timestamps.  Ids that are legitimately
unstable across test orderings (the process-global job counter) are
normalized before diffing.  Refresh with ``pytest --update-golden``.
"""

import json
import pathlib

from repro.core.policies import make_policy_config
from repro.obs.export import validate_span_dict
from repro.obs.trace import Tracer
from repro.runtime.system import ClusterSpec, ServerlessSystem
from repro.traces import poisson_trace
from repro.workloads import get_mix

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "sim_spans_rscale_poisson.jsonl"
GOLDEN_VECTOR = GOLDEN_DIR / "sim_spans_rscale_poisson_vector.jsonl"


def _run_spans(engine=None):
    tracer = Tracer()
    system = ServerlessSystem(
        config=make_policy_config("rscale", idle_timeout_ms=60_000.0),
        mix=get_mix("light"),
        cluster_spec=ClusterSpec(n_nodes=4),
        seed=7,
        tracer=tracer,
        engine=engine,
    )
    system.run(poisson_trace(4.0, 10.0, seed=7))
    return list(tracer.spans)


def normalize_spans(spans):
    """Stable JSON records: job ids remapped to creation rank, times rounded.

    Raw job ids come from a process-global counter, so their absolute
    values depend on which tests ran first; they do increase with
    creation order, so ranking them yields an ordering-free labelling.
    Times are rounded to 1 us to absorb float *formatting* differences
    only — the sim clock itself is exactly deterministic.
    """
    records = [s.to_dict() for s in spans]
    old_nums = sorted({int(r["trace_id"].split("-")[1]) for r in records})
    rank = {n: i for i, n in enumerate(old_nums)}

    def renumber(value, old):
        return f"job-{rank[old]}" + value[len(f"job-{old}"):]

    out = []
    for r in records:
        old = int(r["trace_id"].split("-")[1])
        attrs = {
            k: (round(v, 3) if isinstance(v, float) else v)
            for k, v in r["attrs"].items()
        }
        if "job_id" in attrs:
            attrs["job_id"] = rank[old]
        out.append({
            "trace_id": renumber(r["trace_id"], old),
            "span_id": renumber(r["span_id"], old),
            "parent_id": (renumber(r["parent_id"], old)
                          if r["parent_id"] else None),
            "name": r["name"],
            "start_ms": round(r["start_ms"], 3),
            "end_ms": round(r["end_ms"], 3),
            "duration_ms": round(r["duration_ms"], 3),
            "attrs": attrs,
        })
    out.sort(key=lambda r: (r["start_ms"],
                            int(r["trace_id"].split("-")[1]),
                            r["span_id"]))
    return out


def _dumps(records):
    return "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"


class TestGoldenTraces:
    def test_spans_match_golden(self, update_golden):
        records = normalize_spans(_run_spans())
        assert records, "seeded run emitted no spans"
        for r in records:
            validate_span_dict(r)
        text = _dumps(records)
        if update_golden:
            GOLDEN_DIR.mkdir(exist_ok=True)
            GOLDEN.write_text(text)
        golden = GOLDEN.read_text()
        assert text == golden, (
            f"span stream diverged from tests/golden/{GOLDEN.name} "
            "(run pytest --update-golden if the change is intended)"
        )

    def test_vector_spans_match_golden(self, update_golden):
        records = normalize_spans(_run_spans(engine="vector"))
        assert records, "seeded vector run emitted no spans"
        for r in records:
            validate_span_dict(r)
        text = _dumps(records)
        if update_golden:
            GOLDEN_DIR.mkdir(exist_ok=True)
            GOLDEN_VECTOR.write_text(text)
        golden = GOLDEN_VECTOR.read_text()
        assert text == golden, (
            f"vector span stream diverged from tests/golden/"
            f"{GOLDEN_VECTOR.name} "
            "(run pytest --update-golden if the change is intended)"
        )

    def test_vector_golden_equals_event_loop_golden(self):
        # The two snapshot files must stay byte-identical: the vector
        # engine's whole contract is emitting the same span stream as
        # the event-loop engines.
        assert GOLDEN_VECTOR.read_text() == GOLDEN.read_text()

    def test_normalization_is_id_offset_invariant(self):
        spans = _run_spans()
        base = normalize_spans(spans)
        for s in spans:  # simulate a shifted global job counter
            old = int(s.trace_id.split("-")[1])
            shifted = f"job-{old + 1000}"
            s.span_id = shifted + s.span_id[len(s.trace_id):]
            if s.parent_id:
                s.parent_id = shifted + s.parent_id[len(s.trace_id):]
            if "job_id" in s.attrs:
                s.attrs["job_id"] = old + 1000
            s.trace_id = shifted
        assert normalize_spans(spans) == base

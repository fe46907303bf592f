"""Property tests for the consistent-hash ring (``repro.shard.ring``).

The three contracts the sharded plane leans on:

* **Balance** — at 64 vnodes every shard's keyspace share is within
  ±20% of fair, as a deterministic fact of the default salt (checked
  from exact arc lengths, not sampling).
* **Minimal movement** — adding or removing a shard only moves keys
  whose arcs changed hands; no key ever moves between two surviving
  shards.
* **Process stability** — shard ownership is a pure function of the
  key, independent of ``PYTHONHASHSEED``, so forked, spawned and
  restarted workers always agree.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.shard.ring import (
    ConsistentHashRing,
    hash_key,
    splitmix64,
    splitmix64_array,
)

REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

def arc_fractions(ring: ConsistentHashRing) -> dict:
    """Exact keyspace share owned by each shard of *ring* (sums to 1.0).

    Computed from vnode arc lengths, not sampling, so the balance
    property (±20% of fair share at 64 vnodes) is a deterministic fact
    of the ``(salt, shard set)`` pair.
    """
    pos = ring._positions.astype(np.float64)
    # Arc ending at vnode i is owned by vnode i (keys map to the first
    # vnode at-or-after their position via side="right").
    arcs = np.empty_like(pos)
    arcs[1:] = np.diff(pos)
    arcs[0] = pos[0] + (float(2 ** 64) - pos[-1])
    total = float(2 ** 64)
    shares = {s: 0.0 for s in ring.shard_ids}
    for owner, arc in zip(ring._owners, arcs):
        shares[int(owner)] += arc / total
    return shares


keys_st = st.lists(
    st.integers(min_value=0, max_value=2**64 - 1),
    min_size=1, max_size=200,
)


# ---------------------------------------------------------------------------
# balance


@pytest.mark.parametrize("n_shards", range(2, 9))
def test_balance_within_20pct_at_default_vnodes(n_shards):
    shares = arc_fractions(ConsistentHashRing(n_shards))
    over_fair = {s: share * n_shards for s, share in shares.items()}
    assert max(over_fair.values()) <= 1.2, over_fair
    assert min(over_fair.values()) >= 0.8, over_fair


def test_arc_fractions_sum_to_one():
    for n_shards in (1, 3, 7):
        shares = arc_fractions(ConsistentHashRing(n_shards))
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-12)
        assert set(shares) == set(range(n_shards))


@given(keys=keys_st)
@settings(max_examples=25, deadline=None)
def test_empirical_ownership_matches_shard_ids(keys):
    ring = ConsistentHashRing(4)
    owners = {ring.shard_for(k) for k in keys}
    assert owners <= set(ring.shard_ids)


# ---------------------------------------------------------------------------
# scalar / vector agreement


@given(keys=keys_st)
@settings(max_examples=50, deadline=None)
def test_vectorized_lookup_matches_scalar(keys):
    ring = ConsistentHashRing(5)
    arr = np.asarray(keys, dtype=np.uint64)
    vec = ring.shard_for_array(arr)
    assert [int(v) for v in vec] == [ring.shard_for(k) for k in keys]


@given(keys=keys_st)
@settings(max_examples=50, deadline=None)
def test_splitmix64_array_matches_scalar(keys):
    arr = splitmix64_array(np.asarray(keys, dtype=np.uint64))
    assert [int(v) for v in arr] == [splitmix64(k) for k in keys]


# ---------------------------------------------------------------------------
# minimal movement


@given(keys=keys_st, n_shards=st.integers(min_value=2, max_value=6))
@settings(max_examples=25, deadline=None)
def test_adding_a_shard_only_moves_keys_to_it(keys, n_shards):
    ring = ConsistentHashRing(n_shards)
    grown = ring.with_shard_added(n_shards)
    for key in keys:
        before, after = ring.shard_for(key), grown.shard_for(key)
        # A key either stays put or moves to the new shard — never
        # between two surviving shards.
        assert after == before or after == n_shards


@given(keys=keys_st, n_shards=st.integers(min_value=3, max_value=6))
@settings(max_examples=25, deadline=None)
def test_removing_a_shard_only_moves_its_keys(keys, n_shards):
    ring = ConsistentHashRing(n_shards)
    removed = n_shards - 1
    shrunk = ring.with_shard_removed(removed)
    for key in keys:
        before, after = ring.shard_for(key), shrunk.shard_for(key)
        if before != removed:
            assert after == before
        else:
            assert after != removed


def test_movement_fraction_is_the_new_shards_share():
    # The exact keyspace fraction that moves when shard N joins is N's
    # arc share — and balance bounds that share near 1/(N+1).
    for n_shards in (2, 4, 7):
        grown = ConsistentHashRing(n_shards).with_shard_added(n_shards)
        share = arc_fractions(grown)[n_shards]
        fair = 1.0 / (n_shards + 1)
        assert share <= 1.2 * fair


# ---------------------------------------------------------------------------
# process stability (no PYTHONHASHSEED dependence)


def _ownership_fingerprint_script():
    return textwrap.dedent("""
        import numpy as np
        from repro.shard.ring import ConsistentHashRing
        ring = ConsistentHashRing(4)
        ids = np.arange(10_000, dtype=np.uint64)
        owners = ring.shard_for_array(ids)
        print(owners.tobytes().hex()[:64])
        print(int(owners.sum()), ring._positions.tobytes().hex()[:64])
    """)


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_ownership_stable_across_pythonhashseed(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=REPO_SRC)
    out = subprocess.run(
        [sys.executable, "-c", _ownership_fingerprint_script()],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    reference = subprocess.run(
        [sys.executable, "-c", _ownership_fingerprint_script()],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONHASHSEED="999", PYTHONPATH=REPO_SRC),
        check=True,
    ).stdout
    assert out == reference


def test_string_and_int_keys_are_seed_free_in_process():
    assert hash_key(42) == splitmix64(42)
    assert hash_key("job-42") == hash_key("job-42")


# ---------------------------------------------------------------------------
# construction and validation


def test_ring_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ConsistentHashRing(0)
    with pytest.raises(ValueError):
        ConsistentHashRing(2, vnodes=0)
    with pytest.raises(ValueError):
        ConsistentHashRing(0, shard_ids=[1, 1])
    with pytest.raises(TypeError):
        hash_key(True)
    with pytest.raises(TypeError):
        hash_key(3.5)


def test_membership_change_validation():
    ring = ConsistentHashRing(2)
    with pytest.raises(ValueError):
        ring.with_shard_added(1)
    with pytest.raises(ValueError):
        ring.with_shard_removed(7)
    solo = ConsistentHashRing(1)
    with pytest.raises(ValueError):
        solo.with_shard_removed(0)


def test_surviving_vnode_positions_never_move():
    ring = ConsistentHashRing(3)
    grown = ring.with_shard_added(3)
    before = {
        (int(p), int(o))
        for p, o in zip(ring._positions, ring._owners)
    }
    after = {
        (int(p), int(o))
        for p, o in zip(grown._positions, grown._owners)
    }
    assert before <= after
    assert len(after - before) == ring.vnodes

"""The frequency-aware cache's window contract.

``FreqAwareCache`` makes one admission decision per call: counts and hit
scores for every occurrence, then the call's distinct missed rows,
ranked by count, fill free slots and evict the lowest-score chunks they
beat. The serving path calls it once per window of one cold table, so
the window, not the id, is its admission unit. The suites below fuzz
histories of reads, warms and prefetches that leave hot and cold rows
behind, and hold the product to:

* the window-policy loop oracle (``tests/reference_cache.py``): the same
  returned rows, cache state and backing-store bytes;
* a state that does not depend on the order of a call's ids;
* one hit or one miss per id, on every call;
* the per-id policy it replaced, on calls of one id;
* reads bitwise equal to an uncached shadow of the read-only backing
  store.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache import ArrayBackingStore, FreqAwareCache

from .helpers import cache_state
from .reference_cache import PerIdCache, WindowLoopCache

H, D = 40, 3

IDS = st.lists(st.integers(0, H - 1), max_size=30)
ONE_ID = st.lists(st.integers(0, H - 1), min_size=1, max_size=1)
HISTOGRAM = st.lists(st.integers(0, 4), min_size=H, max_size=H)


def histories(ids=IDS):
    return st.lists(st.one_of(
        st.tuples(st.sampled_from(["read", "prefetch"]), ids),
        st.tuples(st.just("warm"), HISTOGRAM)), max_size=10)


GEOMETRY = {"capacity": st.integers(1, 24), "chunk": st.integers(1, 6)}


def fresh(cls, capacity, chunk):
    rows = np.random.default_rng(1).normal(size=(H, D)).astype(np.float32)
    return cls(capacity, chunk_rows=chunk), ArrayBackingStore(rows)


def apply(cache, backing, op: str, arg):
    """Run one history entry; returns what the call returned."""
    ids = np.array(arg, dtype=np.int64)
    if op == "read":
        return cache.read(ids, backing)
    if op == "prefetch":
        return cache.prefetch_rows(ids, backing)
    return cache.warm(ids, backing)


def assert_same_result(got, expected) -> None:
    if isinstance(expected, np.ndarray):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
    else:
        assert got == expected


def assert_twins(product, oracle, history) -> None:
    (cache, backing), (ref, ref_backing) = product, oracle
    for op, arg in history:
        assert_same_result(apply(cache, backing, op, arg),
                           apply(ref, ref_backing, op, arg))
        assert cache_state(cache, backing) == \
            cache_state(ref, ref_backing)


class TestWindowPolicy:
    @settings(max_examples=100, deadline=None)
    @given(history=histories(), **GEOMETRY)
    # a hit raises the lowest-score chunk's score, so the victim moves
    @example(capacity=2, chunk=1, history=[("read", [0, 1, 0, 1, 2]),
                                           ("read", [0]), ("read", [2])])
    # row 5 refills half of chunk 0; row 6 beats that chunk's score per
    # row, but a chunk this call filled is not its victim
    @example(capacity=4, chunk=2, history=[
        ("read", [0] * 4 + [1] * 4), ("read", [2] * 4 + [3] * 4),
        ("read", [5] * 4 + [6] * 2)])
    def test_matches_loop_oracle(self, history, capacity, chunk):
        assert_twins(fresh(FreqAwareCache, capacity, chunk),
                     fresh(WindowLoopCache, capacity, chunk), history)

    @settings(max_examples=50, deadline=None)
    @given(history=histories(), ids=IDS, data=st.data(), **GEOMETRY)
    def test_state_independent_of_id_order(self, history, ids, data,
                                           capacity, chunk):
        order = data.draw(st.permutations(range(len(ids))))
        states, outs = [], []
        for run in (ids, [ids[i] for i in order]):
            cache, backing = fresh(FreqAwareCache, capacity, chunk)
            for op, arg in history:
                apply(cache, backing, op, arg)
            outs.append(cache.read(np.array(run, dtype=np.int64), backing))
            states.append(cache_state(cache, backing))
        assert states[0] == states[1]
        assert outs[1].tobytes() == outs[0][list(order)].tobytes()

    @settings(max_examples=50, deadline=None)
    @given(history=histories(), **GEOMETRY)
    def test_one_hit_or_miss_per_id(self, history, capacity, chunk):
        cache, backing = fresh(FreqAwareCache, capacity, chunk)
        for op, arg in history:
            before = cache.stats.accesses
            apply(cache, backing, op, arg)
            demanded = len(arg) if op == "read" else 0
            assert cache.stats.accesses - before == demanded

    @settings(max_examples=100, deadline=None)
    @given(history=histories(ONE_ID), **GEOMETRY)
    @example(capacity=2, chunk=1, history=[
        ("read", [0]), ("read", [1]), ("read", [0]), ("read", [1]),
        ("read", [2]), ("read", [0]), ("read", [2])])
    def test_one_id_calls_match_per_id_policy(self, history, capacity,
                                              chunk):
        assert_twins(fresh(FreqAwareCache, capacity, chunk),
                     fresh(PerIdCache, capacity, chunk), history)

    @settings(max_examples=80, deadline=None)
    @given(history=histories(), **GEOMETRY)
    def test_reads_match_uncached_shadow(self, history, capacity, chunk):
        cache, backing = fresh(FreqAwareCache, capacity, chunk)
        shadow = backing.rows.copy()
        for op, arg in history:
            out = apply(cache, backing, op, arg)
            if op == "read":
                assert out.tobytes() == shadow[arg].tobytes()
        assert backing.rows.tobytes() == shadow.tobytes()

"""The RowCache sequence contract, on the kinds that keep it.

``set_associative`` and ``uvm`` read ids one at a time and keep no
per-call state, so ``read(concat(a, b))`` is ``read(a)`` followed by
``read(b)``: the same values, stats, residency, dirty lines and
backing-store traffic.

``freq_aware`` does not keep it: it makes one admission decision per
call, so where a call's ids end changes which rows it admits (only
the returned rows stay the same). It keeps a window contract instead,
fuzzed in ``tests/test_cache_window.py``: the serving path reads one
window of dispatches per call, and the window is its admission unit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CACHE_KINDS, ArrayBackingStore, make_cache

from .helpers import cache_state

H, D = 48, 3

SEQUENCE_KINDS = {
    "set_associative": st.fixed_dictionaries({
        "ways": st.sampled_from([1, 2, 4]),
        "policy": st.sampled_from(["lru", "lfu"])}),
    "uvm": st.fixed_dictionaries({
        "rows_per_page": st.sampled_from([1, 4, 8])}),
}
# every kind but the window-contract one
assert set(SEQUENCE_KINDS) == set(CACHE_KINDS) - {"freq_aware"}

IDS = st.lists(st.integers(0, H - 1), max_size=40)


@st.composite
def scenarios(draw):
    """A cache, a history that leaves hot, cold and dirty rows behind,
    and the two id runs to read."""
    kind = draw(st.sampled_from(sorted(SEQUENCE_KINDS)))
    config = draw(SEQUENCE_KINDS[kind])
    capacity = draw(st.integers(8, 24))
    history = draw(st.lists(st.tuples(st.sampled_from(["read", "write"]),
                                      IDS), max_size=5))
    return kind, config, capacity, history, draw(IDS), draw(IDS)


def replay(kind, config, capacity, history):
    rows = np.random.default_rng(7).normal(size=(H, D)).astype(np.float32)
    backing = ArrayBackingStore(rows)
    cache = make_cache(kind, row_dim=D, capacity_rows=capacity, **config)
    for step, (op, ids) in enumerate(history):
        ids = np.array(ids, dtype=np.int64)
        if op == "read":
            cache.read(ids, backing)
        else:
            cache.write(ids, np.full((len(ids), D), step + 1,
                                     dtype=np.float32), backing)
    return cache, backing


class TestSequenceContract:
    @settings(max_examples=250, deadline=None)
    @given(scenario=scenarios())
    def test_read_of_concat_is_read_then_read(self, scenario):
        kind, config, capacity, history, a, b = scenario
        a = np.array(a, dtype=np.int64)
        b = np.array(b, dtype=np.int64)
        whole, whole_backing = replay(kind, config, capacity, history)
        split, split_backing = replay(kind, config, capacity, history)
        joined = whole.read(np.concatenate([a, b]), whole_backing)
        parts = np.concatenate([split.read(a, split_backing),
                                split.read(b, split_backing)])
        assert joined.dtype == parts.dtype and joined.shape == parts.shape
        assert joined.tobytes() == parts.tobytes()
        assert cache_state(whole, whole_backing) == \
            cache_state(split, split_backing)

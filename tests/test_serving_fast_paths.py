"""Serving fast paths against their references, bit for bit.

The serving path does each piece of bookkeeping once: the perf model
derives a model's constants once and memoises the batch-size-only terms,
a request counts its embedding ids once, predicted admission prices a
queue from running sums, and ``MiniBatch.concat`` differences
the offsets once per feature. Each suite below holds one of them to
bitwise equality with the straightforward form it replaced
(``tests/reference_serving.py``). The cold-table cache's policy has its
own suite against its loop oracle (``tests/test_cache_window.py``).
"""

import dataclasses
import gc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import lowp
from repro.data import MiniBatch, SyntheticCTRDataset
from repro.embedding import lengths_to_offsets
from repro.models import DLRM, zoo_config
from repro.perf import ZIONEX_PLATFORM, PlatformSpec
from repro.serving import (BatchingPolicy, InferenceRequest,
                           ServingPerfModel, freeze)
from repro.serving.batcher import predicted_completion

from .helpers import trace_of
from .reference_batch import assert_same_batch, from_features, to_features
from .reference_serving import (concat_reference,
                                predicted_completion_reference,
                                price_requests, service_time_reference)

PRECISIONS = ("fp32", "fp16", "bf16", "int8", "mixed")
# small fits this HBM on one node; large (mixed widths, fractional
# pooling) spills on one node and on two
SPILLING = PlatformSpec(name="spilling", hbm_per_node_bytes=40e3,
                        dram_per_node_bytes=1e12, hbm_bw_per_node=850e9,
                        dram_link_bw_per_node=12e9)


@lru_cache(maxsize=None)
def _frozen(size: str):
    return freeze(DLRM(zoo_config(size), seed=0))


def priced_model(size: str, precision: str):
    """A fresh servable of zoo ``size`` reporting ``precision``: all the
    perf model reads is the config, the precision and the stored bytes."""
    base = _frozen(size)
    if precision == "mixed":
        stored = {t.name: 2 * t.num_parameters + i
                  for i, t in enumerate(base.config.tables)}
    else:
        stored = {t.name: lowp.table_bytes(t.num_embeddings, t.embedding_dim,
                                           precision)
                  for t in base.config.tables}
    return dataclasses.replace(base, precision=precision,
                               table_storage_bytes=stored)


@lru_cache(maxsize=None)
def _dataset(size: str) -> SyntheticCTRDataset:
    config = zoo_config(size)
    return SyntheticCTRDataset(config.tables, dense_dim=config.dense_dim,
                               seed=0)


def _batch_of(size: str, n: int, index: int = 0) -> MiniBatch:
    return _dataset(size).batch(n, batch_index=index)


def same_bits(a: float, b: float) -> bool:
    return float(a).hex() == float(b).hex()


# ----------------------------------------------------------------------
# pricing
# ----------------------------------------------------------------------
NNZ = st.one_of(st.sampled_from([0, 1]), st.integers(0, 10 ** 7))
PERFS = st.builds(ServingPerfModel,
                  platform=st.sampled_from([ZIONEX_PLATFORM, SPILLING]),
                  nodes=st.sampled_from([1, 2]),
                  overhead_s=st.sampled_from([0.0, 4e-3]))


class TestPricing:
    @settings(max_examples=60, deadline=None)
    @given(perf=PERFS,
           precisions=st.tuples(st.sampled_from(PRECISIONS),
                                st.sampled_from(PRECISIONS)),
           calls=st.lists(st.tuples(st.integers(0, 1), st.integers(1, 128),
                                    NNZ), min_size=1, max_size=40))
    def test_two_models_alternately_match_reference(self, perf, precisions,
                                                     calls):
        models = [priced_model("small", precisions[0]),
                  priced_model("large", precisions[1])]
        for which, batch_size, nnz in calls:
            model = models[which]
            assert same_bits(
                perf.service_time(model, batch_size, nnz),
                service_time_reference(perf, model, batch_size, nnz))

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_every_batch_size_matches_reference(self, precision):
        for perf in (ServingPerfModel(),
                     ServingPerfModel(platform=SPILLING, nodes=2,
                                      overhead_s=4e-3)):
            models = [priced_model("small", precision),
                      priced_model("large", precision)]
            for batch_size in range(1, 129):
                for nnz in (0, 1, 40 * batch_size, 10 ** 7):
                    for model in models:
                        assert same_bits(
                            perf.service_time(model, batch_size, nnz),
                            service_time_reference(perf, model, batch_size,
                                                   nnz))

    def test_freed_model_replaced_at_its_id(self):
        """The per-model entry is keyed on ``id(model)``. A model freed
        and replaced by another (CPython hands the new object the old
        address) must be priced as itself, and dead entries must go."""
        perf = ServingPerfModel()
        for _ in range(20):
            old = priced_model("small", "fp32")
            perf.service_time(old, 4, 10)
            del old
            new = priced_model("large", "fp16")
            assert same_bits(perf.service_time(new, 4, 10),
                             service_time_reference(perf, new, 4, 10))
            del new
        gc.collect()
        assert not perf._models

    def test_stale_entry_at_a_reused_id_is_not_read(self):
        perf = ServingPerfModel()
        small = priced_model("small", "fp32")
        large = priced_model("large", "fp16")
        perf.service_time(small, 8, 100)
        # plant small's entry where large's would live, as if large had
        # taken the id of a freed small
        perf._models[id(large)] = perf._models[id(small)]
        assert same_bits(perf.service_time(large, 8, 100),
                         service_time_reference(perf, large, 8, 100))

    def test_validation_unchanged(self):
        perf = ServingPerfModel()
        model = priced_model("small", "fp32")
        with pytest.raises(ValueError):
            perf.service_time(model, 0, 1)
        with pytest.raises(ValueError):
            perf.service_time(model, 1, -1)

    def test_request_nnz_is_the_model_count(self):
        model = priced_model("large", "fp16")
        batch = _batch_of("large", 5)
        r = InferenceRequest(0, 0.0, batch)
        assert "nnz" not in vars(r)
        assert r.nnz == model.nnz(batch)
        assert vars(r)["nnz"] == r.nnz   # cached on the frozen dataclass

    def test_price_requests_matches_reference(self):
        """Predicted admission prices each chunk of a lane queue from the
        trace's running sums of samples and ids. Every price, and the
        completion they add up to, against the list path: the reference
        price over a fresh count of each chunk's ids, and
        ``predicted_completion`` re-slicing the request list."""
        model = priced_model("large", "fp16")
        perf = ServingPerfModel(overhead_s=4e-3)
        bulk = _batch_of("large", 40, index=1)
        requests = [InferenceRequest(i, 0.0, bulk.slice(i, i + 1 + i % 3))
                    for i in range(32)]
        trace = trace_of(requests)
        samples = [0] + np.cumsum(trace.num_samples).tolist()
        nnz = [0] + np.cumsum(trace.nnz).tolist()
        for head in range(len(requests)):
            for width in (1, 2, 8):
                policy = BatchingPolicy(max_batch_size=width)
                prices = []

                def service(batch_size, ids):
                    prices.append(perf.service_time(model, batch_size, ids))
                    return prices[-1]

                got = predicted_completion(policy, samples, nnz, head, 0.0,
                                           service)
                queue = requests[head:]
                chunks = [queue[k:k + width]
                          for k in range(0, len(queue), width)]
                assert len(prices) == len(chunks)
                for price, chunk in zip(prices, chunks):
                    assert same_bits(price, service_time_reference(
                        perf, model, sum(r.num_samples for r in chunk),
                        sum(model.nnz(r.batch) for r in chunk)))
                assert same_bits(got, predicted_completion_reference(
                    policy, queue[:-1], queue[-1], 0.0,
                    lambda chunk: price_requests(perf, model, chunk)))


# ----------------------------------------------------------------------
# coalescing
# ----------------------------------------------------------------------
@st.composite
def minibatch_lists(draw):
    names = draw(st.sampled_from([("a",), ("a", "b"), ("a", "b", "c")]))
    batches = []
    for _ in range(draw(st.integers(1, 5))):
        size = draw(st.integers(1, 4))
        sparse = {}
        for name in names:
            lengths = np.array(draw(st.lists(st.integers(0, 3),
                                             min_size=size, max_size=size)),
                               dtype=np.int64)
            offsets = lengths_to_offsets(lengths)
            ids = np.array(draw(st.lists(st.integers(0, 99),
                                         min_size=int(offsets[-1]),
                                         max_size=int(offsets[-1]))),
                           dtype=np.int64)
            sparse[name] = (ids, offsets)
        dense = np.arange(size * 2, dtype=np.float32).reshape(size, 2) \
            + len(batches)
        batches.append(from_features(dense, sparse,
                                     np.full(size, len(batches) % 2,
                                             dtype=np.float32)))
    return batches


def assert_same_array(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    np.testing.assert_array_equal(a, b)


class TestConcat:
    @settings(max_examples=150, deadline=None)
    @given(batches=minibatch_lists())
    def test_matches_reference(self, batches):
        fast = MiniBatch.concat(batches)
        reference = concat_reference(batches)
        assert_same_batch(fast, reference)
        for name, (ids, offsets) in to_features(reference).items():
            assert_same_array(fast.feature(name)[0], ids)
            assert_same_array(fast.feature(name)[1], offsets)

    def test_single_sample_batches_with_empty_bags(self):
        empty = MiniBatch(dense=np.zeros((1, 2), dtype=np.float32),
                          keys=("a",), lengths=np.zeros((1, 1), np.int64),
                          ids=np.zeros(0, dtype=np.int64),
                          labels=np.zeros(1, dtype=np.float32))
        merged = MiniBatch.concat([empty] * 4)
        assert_same_array(merged.feature("a")[1],
                          np.zeros(5, dtype=np.int64))

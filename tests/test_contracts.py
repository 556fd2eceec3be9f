"""Scalar argument contracts (:mod:`repro.check`) and their use.

Every public config dataclass that defines ``__post_init__`` is found
through the packages' ``__all__``, and each of its ``int``/``float``
fields (``Optional`` too) is fed values no contract accepts. A new config
with such a field is covered here without a new test; one that cannot be
built from its defaults needs a valid instance in ``VALID``.
"""

import dataclasses
import importlib
import math
import pkgutil
import re
from functools import partial

import numpy as np
import pytest

import repro
from repro import check, nn
from repro.baselines import ZionSetup
from repro.cache import FreqAwareCache, SetAssociativeCache
from repro.comms import ClusterTopology, GradientBucketer
from repro.core import ComponentTimes, Task, TrainingLoop
from repro.data import CombinedFormat
from repro.embedding import EmbeddingTableConfig, SparseAdaGrad, SparseSGD
from repro.fleet import AutoscalerConfig, FleetTraffic, TenantSpec
from repro.models import DLRMConfig
from repro.models.zoo import full_spec
from repro.online import OnlineConfig
from repro.perf import PlatformSpec, TrainingSetup
from repro.planner import TableAssignment
from repro.resilience import FaultKind, FaultSpec
from repro.serving import PoissonLoadGen
from repro.sharding import Shard


def _exported_configs():
    found = {}
    for info in pkgutil.iter_modules(repro.__path__):
        module = importlib.import_module(f"repro.{info.name}")
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if isinstance(obj, type) and dataclasses.is_dataclass(obj) \
                    and hasattr(obj, "__post_init__"):
                found[obj] = f"repro.{info.name}.{name}"
    return sorted(found.items(), key=lambda kv: kv[1])


CONFIGS = _exported_configs()

# a valid instance of every config whose defaults do not build one
VALID = {
    AutoscalerConfig: lambda: AutoscalerConfig(slo_s=1.0, window_s=1.0),
    ClusterTopology: lambda: ClusterTopology(num_nodes=1),
    CombinedFormat: lambda: CombinedFormat(
        table_names=["t"], batch_size=1, lengths=np.array([1]),
        indices=np.array([0])),
    ComponentTimes: lambda: ComponentTimes(*[1.0] * 8),
    DLRMConfig: lambda: DLRMConfig(
        dense_dim=2, bottom_mlp=(4,),
        tables=(EmbeddingTableConfig("t", 4, 4),), top_mlp=(4,)),
    EmbeddingTableConfig: lambda: EmbeddingTableConfig("t", 4, 2),
    FaultSpec: lambda: FaultSpec(FaultKind.DELAY, rank=0, iteration=0,
                                 delay_seconds=1.0),
    FleetTraffic: lambda: FleetTraffic(mean_qps=1.0, duration_s=1.0),
    OnlineConfig: lambda: OnlineConfig(num_steps=1, swap_every_steps=1,
                                       train_step_time_s=1.0, qps=1.0),
    PlatformSpec: lambda: PlatformSpec("p", 1.0, 1.0, 1.0, 1.0),
    PoissonLoadGen: lambda: PoissonLoadGen(qps=1.0, num_requests=1),
    Shard: lambda: Shard("t", 0, (0, 1), (0, 1)),
    TableAssignment: lambda: TableAssignment("t", "full", 0, 0, 0.0, 0.0),
    Task: lambda: Task("t", 1.0, "s"),
    TenantSpec: lambda: TenantSpec("t", model=None, slo_s=1.0),
    TrainingSetup: lambda: TrainingSetup(
        full_spec("A1"), ClusterTopology(num_nodes=1), global_batch=8),
    ZionSetup: lambda: ZionSetup(full_spec("A1"), global_batch=8),
}


def _numeric_kind(field):
    """``"int"``/``"float"`` for an (Optional) int/float field, else None."""
    t = field.type if isinstance(field.type, str) \
        else re.sub(r"<class '(\w+)'>", r"\1", repr(field.type))
    m = re.fullmatch(r"(?:typing\.)?(?:Optional\[)?(int|float)\]?", t)
    return m.group(1) if m else None


def _numeric_cases():
    for cls, name in CONFIGS:
        for f in dataclasses.fields(cls):
            kind = _numeric_kind(f) if f.init else None
            if kind is None:
                continue
            bad = [math.nan, True, "1"] + ([2.5] if kind == "int" else [])
            for value in bad:
                yield pytest.param(cls, f.name, value,
                                   id=f"{name}.{f.name}={value!r}")


def test_the_configs_are_found():
    names = {name for _, name in CONFIGS}
    assert {"repro.fleet.AutoscalerConfig", "repro.fleet.FleetTraffic",
            "repro.resilience.RetryPolicy",
            "repro.serving.BatchingPolicy"} <= names


@pytest.mark.parametrize("cls,name", CONFIGS, ids=[n for _, n in CONFIGS])
def test_every_config_has_a_valid_instance(cls, name):
    VALID.get(cls, cls)()


@pytest.mark.parametrize("cls,field,value", list(_numeric_cases()))
def test_numeric_fields_reject_what_no_contract_accepts(cls, field, value):
    valid = VALID.get(cls, cls)()
    with pytest.raises(ValueError, match=re.escape(field)):
        dataclasses.replace(valid, **{field: value})


# (callable, keyword, is a count) for argument checks outside dataclasses
CONSTRUCTORS = [
    (partial(nn.SGD, []), "lr", False),
    (SparseSGD, "lr", False),
    (SparseAdaGrad, "lr", False),
    (partial(FreqAwareCache, capacity_rows=8), "capacity_rows", True),
    (partial(FreqAwareCache, capacity_rows=8), "chunk_rows", True),
    (partial(SetAssociativeCache, capacity_rows=8), "capacity_rows", True),
    (partial(SetAssociativeCache, capacity_rows=8), "ways", True),
    (partial(GradientBucketer, []), "bucket_bytes", True),
    (partial(TrainingLoop, None, None, 8), "eval_every", True),
]


@pytest.mark.parametrize(
    "make,keyword,value",
    [pytest.param(make, keyword, value,
                  id=f"{getattr(make, 'func', make).__name__}.{keyword}"
                     f"={value!r}")
     for make, keyword, is_count in CONSTRUCTORS
     for value in [math.nan, True] + ([2.5] if is_count else [])])
def test_constructor_arguments_reject_what_no_contract_accepts(
        make, keyword, value):
    with pytest.raises(ValueError, match=keyword):
        make(**{keyword: value})


class TestKinds:
    @pytest.mark.parametrize("kind", [check.positive, check.nonnegative,
                                      check.fraction, check.finite])
    @pytest.mark.parametrize("value", [math.nan, True, False, "1", None,
                                       np.bool_(True), [1.0]])
    def test_non_numbers_and_nan_fail_every_kind(self, kind, value):
        with pytest.raises(ValueError, match="^x must be"):
            kind("x", value)

    @pytest.mark.parametrize("value", [2.5, 2.0, math.nan, True, "2", None,
                                       np.float64(2.0)])
    def test_a_count_is_an_integer_not_a_bool(self, value):
        with pytest.raises(ValueError, match="^n must be an integer >= 1"):
            check.count("n", value)

    def test_counts(self):
        check.count("n", 1)
        check.count("n", np.int64(3))
        check.count("n", 0, low=0)
        with pytest.raises(ValueError, match=">= 0, got -1"):
            check.count("n", -1, low=0)
        with pytest.raises(ValueError, match=">= 2, got 1"):
            check.count("n", 1, low=2)

    def test_inf_only_where_the_kind_allows_it(self):
        for kind in (check.positive, check.nonnegative, check.finite):
            with pytest.raises(ValueError, match="finite"):
                kind("x", math.inf)
        check.positive("x", math.inf, inf=True)
        check.nonnegative("x", math.inf, inf=True)
        with pytest.raises(ValueError):
            check.fraction("x", math.inf)
        with pytest.raises(ValueError):
            check.nonnegative("x", -math.inf, inf=True)

    def test_bounds(self):
        check.positive("x", np.float32(1e-30))
        check.nonnegative("x", 0)
        check.nonnegative("x", 1.0, low=1)
        check.finite("x", -1e300)
        for bad in (0, -1.0):
            with pytest.raises(ValueError, match="> 0"):
                check.positive("x", bad)
        with pytest.raises(ValueError, match="> 1"):
            check.positive("x", 1.0, low=1)
        with pytest.raises(ValueError, match=">= 0"):
            check.nonnegative("x", -1e-300)

    @pytest.mark.parametrize("zero,one,inside,outside", [
        (True, True, [0, 0.5, 1], [-1e-9, 1.0000001]),
        (False, True, [1e-9, 1.0], [0.0]),
        (True, False, [0.0, 0.999], [1.0]),
    ])
    def test_fraction_ends(self, zero, one, inside, outside):
        for v in inside:
            check.fraction("f", v, zero=zero, one=one)
        for v in outside:
            with pytest.raises(ValueError, match="^f must be a number in"):
                check.fraction("f", v, zero=zero, one=one)

    def test_service_seconds(self):
        assert check.service_seconds(np.float32(0.5)) == 0.5
        assert type(check.service_seconds(1)) is float
        for bad in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="finite and >= 0"):
                check.service_seconds(bad)

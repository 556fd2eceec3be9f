"""Synthetic CTR training data with planted structure.

The paper trains on petabytes of production click logs, which we cannot
ship. We substitute a generator that preserves what the training system
actually exercises:

* **jagged multi-hot categorical features** — per-table pooling sizes are
  Poisson-distributed around the table's configured ``L`` (Fig. 7 notes L
  varies per table and per sample);
* **skewed id popularity** — ids follow a Zipf distribution, giving the
  cache experiments realistic hot/cold row sets;
* **learnable labels** — a planted logistic "teacher" over per-id effects
  and dense features, so normalized-entropy curves (Fig. 10) measure real
  learning, not noise-fitting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .. import check
from ..embedding.table import EmbeddingTableConfig
from ..nn import functional as F

__all__ = ["MiniBatch", "SyntheticCTRDataset", "concat_ranges",
           "zipf_indices"]


# Cells of the guide table over a Zipf CDF. A power of two, so a draw's
# cell ``floor(u * cells)`` and every cell start ``k / cells`` are exact.
_GUIDE_CELLS = 1 << 16
# Up to this many draws, one ``searchsorted`` on them beats the guide's
# passes (measured at 64 to 1 000 000 ids): both for a whole small draw
# and for the draws a guide lookup leaves open.
_SEARCH_DRAWS = 700


@lru_cache(maxsize=64)
def _zipf_cdf(num_ids: int, alpha: float) -> np.ndarray:
    """Read-only CDF of the power law truncated to ``num_ids`` ranks.

    Cached because a dataset draws from the same few ``(num_ids, alpha)``
    laws once per table per batch; read-only because every caller gets
    the same array.
    """
    ranks = np.arange(1, num_ids + 1, dtype=np.float64)
    cdf = np.cumsum(ranks ** (-alpha))
    cdf /= cdf[-1]
    cdf.setflags(write=False)
    return cdf


@lru_cache(maxsize=64)
def _zipf_guide(num_ids: int, alpha: float) -> np.ndarray:
    """Read-only guide table of :func:`_zipf_cdf`: ``guide[k]`` is
    ``searchsorted(cdf, k / cells)`` for ``k = 0 .. cells``."""
    guide = np.searchsorted(
        _zipf_cdf(num_ids, alpha),
        np.arange(_GUIDE_CELLS + 1, dtype=np.float64) / _GUIDE_CELLS)
    guide.setflags(write=False)
    return guide


def zipf_indices(num_ids: int, size: int, rng: np.random.Generator,
                 alpha: float = 1.05) -> np.ndarray:
    """Zipf-distributed ids in ``[0, num_ids)`` (rejection-free, via
    inverse-CDF on the truncated power law).

    The ids are exactly ``np.searchsorted(cdf, u)`` for the uniform
    draws ``u``, found through a guide table: the draw ``u`` in cell
    ``k = floor(u * cells)`` has its answer between ``guide[k]`` and
    ``guide[k + 1]``, since every CDF knot below ``guide[k]`` is below
    ``k / cells <= u`` and the knot at ``guide[k + 1]`` is at least
    ``(k + 1) / cells > u``. Most draws land in head cells that hold no
    knot and are done; the rest binary-search their cell (at most a few
    dozen knots wide at 200 000 ids), all of them one step at a time, or
    one ``searchsorted`` settles them when they are few.
    """
    check.count("num_ids", num_ids)
    if size == 0:
        return np.zeros(0, dtype=np.int64)
    u = rng.random(size)
    cdf = _zipf_cdf(num_ids, alpha)
    if size <= _SEARCH_DRAWS:
        return np.searchsorted(cdf, u).astype(np.int64, copy=False)
    guide = _zipf_guide(num_ids, alpha)
    cell = (u * _GUIDE_CELLS).astype(np.intp)
    lo = np.take(guide, cell)
    hi = np.take(guide, cell + 1)
    open_ = np.flatnonzero(lo < hi)
    if len(open_) <= _SEARCH_DRAWS:
        lo[open_] = np.searchsorted(cdf, u[open_])
    else:
        # the answer stays in [lo, hi]; a settled draw (lo == hi) stays
        lo_o, hi_o, u_o = lo[open_], hi[open_], u[open_]
        for _ in range(int((hi_o - lo_o).max()).bit_length()):
            mid = (lo_o + hi_o) >> 1
            below = np.take(cdf, mid) < u_o
            lo_o = np.where(below, mid + 1, lo_o)
            hi_o = np.where(below, hi_o, mid)
        lo[open_] = lo_o
    return lo.astype(np.int64, copy=False)


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions ``[s0, s0 + l0)``, ``[s1, s1 + l1)``, ... in order,
    as one index array (one ``np.repeat`` + ``arange``)."""
    first = np.cumsum(lengths) - lengths
    return np.repeat(starts - first, lengths) + np.arange(int(lengths.sum()))


def _integers(name: str, values) -> np.ndarray:
    """``values`` as an int64 array; a non-empty array of anything but
    integers (floats, bools) is a ``ValueError``, not a truncation."""
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got {values.dtype}")
    return values.astype(np.int64, copy=False)


@dataclass
class MiniBatch:
    """One batch of samples in the combined format (paper Section 4.4):
    dense features, labels, and every sparse feature's bags as one
    ``(F, B)`` lengths matrix and one flat ids array.

    ``lengths[f, b]`` is the bag size of sample ``b`` in feature
    ``keys[f]``; ``ids`` holds feature ``keys[0]``'s ids bag by bag,
    then ``keys[1]``'s, and so on. The layout is checked once, here:
    one row of lengths per key, one column per sample, no negative
    length, and as many ids as the lengths add up to (``ValueError``).
    :meth:`feature` is the one way to read a feature.
    """

    dense: np.ndarray                     # (B, dense_dim) float32
    keys: Tuple[str, ...]                 # the F sparse feature names
    lengths: np.ndarray                   # (F, B) int64 bag sizes
    ids: np.ndarray                       # (lengths.sum(),) int64
    labels: np.ndarray                    # (B,) float32 in {0, 1}

    def __post_init__(self) -> None:
        self.keys = tuple(self.keys)
        self.lengths = _integers("lengths", self.lengths)
        self.ids = _integers("ids", self.ids)
        if len(set(self.keys)) != len(self.keys):
            raise ValueError(f"duplicate sparse feature in {self.keys}")
        rows = len(self.dense)
        if self.lengths.shape != (len(self.keys), rows) \
                or np.shape(self.labels) != (rows,) or self.ids.ndim != 1:
            raise ValueError(
                f"a batch of {rows} samples and {len(self.keys)} sparse "
                f"features needs ({len(self.keys)}, {rows}) lengths, "
                f"({rows},) labels and flat ids, got "
                f"{self.lengths.shape}, {np.shape(self.labels)} and "
                f"{self.ids.shape}")
        if (self.lengths < 0).any():
            raise ValueError("bag lengths must be non-negative")
        if int(self.lengths.sum()) != len(self.ids):
            raise ValueError(f"lengths sum to {int(self.lengths.sum())} "
                             f"but the batch holds {len(self.ids)} ids")

    @cached_property
    def _offsets(self) -> np.ndarray:
        """``(F, B + 1)``: row ``f`` is feature ``f``'s bag offsets."""
        offsets = np.zeros((len(self.lengths), self.batch_size + 1),
                           dtype=np.int64)
        np.cumsum(self.lengths, axis=1, out=offsets[:, 1:])
        return offsets

    @cached_property
    def _starts(self) -> np.ndarray:
        """``(F + 1,)``: feature ``f``'s ids are ``ids[starts[f]:
        starts[f + 1]]``."""
        starts = np.zeros(len(self.lengths) + 1, dtype=np.int64)
        np.cumsum(self._offsets[:, -1], out=starts[1:])
        return starts

    @cached_property
    def _position(self) -> Dict[str, int]:
        return {name: f for f, name in enumerate(self.keys)}

    @property
    def batch_size(self) -> int:
        return self.dense.shape[0]

    @property
    def nnz(self) -> int:
        """Total embedding ids across every sparse feature."""
        return len(self.ids)

    def feature(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        """Feature ``name``'s ``(ids, offsets)``, both views of this
        batch's arrays (``KeyError`` if the batch has no such feature)."""
        f = self._position[name]
        return (self.ids[self._starts[f]:self._starts[f + 1]],
                self._offsets[f])

    def _gather(self, firsts: np.ndarray, lengths: np.ndarray
                ) -> np.ndarray:
        """The ids of the ``(F, n)`` bags that start at feature-local
        positions ``firsts`` and hold ``lengths`` ids, feature-major."""
        return self.ids[concat_ranges(
            (firsts + self._starts[:-1, None]).ravel(), lengths.ravel())]

    def _row_ids(self, start: int, stop: int) -> np.ndarray:
        """The ids of samples ``[start, stop)``, feature-major."""
        lo = self._offsets[:, start:start + 1]
        return self._gather(lo, self._offsets[:, stop:stop + 1] - lo)

    def slice(self, start: int, stop: int) -> "MiniBatch":
        """Samples ``[start, stop)``, copied out. ``start`` and ``stop``
        are integers with ``0 <= start <= stop`` (``ValueError``) and
        ``stop <= batch_size`` (``IndexError``)."""
        check.count("start", start, low=0)
        check.count("stop", stop, low=start)
        if stop > self.batch_size:
            raise IndexError(f"rows [{start}, {stop}) out of range for a "
                             f"batch of {self.batch_size} samples")
        return MiniBatch(dense=self.dense[start:stop].copy(), keys=self.keys,
                         lengths=self.lengths[:, start:stop].copy(),
                         ids=self._row_ids(start, stop),
                         labels=self.labels[start:stop].copy())

    def take(self, rows: np.ndarray) -> "MiniBatch":
        """Samples ``rows`` (integers, any order, repeats allowed) as one
        batch: bitwise ``concat([slice(r, r + 1) for r in rows])``. One
        gather of the lengths matrix's columns and one
        :func:`concat_ranges` of the ids."""
        rows = _integers("rows", rows)
        if rows.ndim != 1:
            raise ValueError("rows must be one-dimensional")
        if len(rows) and (rows.min() < 0 or rows.max() >= self.batch_size):
            raise IndexError(f"rows out of range for a batch of "
                             f"{self.batch_size} samples")
        lengths = self.lengths[:, rows]
        return MiniBatch(dense=self.dense[rows], keys=self.keys,
                         lengths=lengths,
                         ids=self._gather(self._offsets[:, rows], lengths),
                         labels=self.labels[rows])

    def split(self, parts: int) -> List["MiniBatch"]:
        """Split into ``parts`` contiguous sub-batches (data parallelism)."""
        check.count("parts", parts)
        if self.batch_size % parts:
            raise ValueError(
                f"batch size {self.batch_size} not divisible by {parts}")
        step = self.batch_size // parts
        return [self.slice(i * step, (i + 1) * step) for i in range(parts)]

    @staticmethod
    def concat(batches: Sequence["MiniBatch"]) -> "MiniBatch":
        """Coalesce batches (inverse of :meth:`split`): samples in order.
        All batches must have the same ``keys``, in the same order. This
        is how ``RequestTrace.merge`` coalesces the stores of one
        feature set.

        The lengths matrices are joined column-wise; the ids are joined
        and then gathered once, feature by feature and batch by batch
        within each feature."""
        if not batches:
            raise ValueError("need at least one batch")
        keys = batches[0].keys
        for b in batches[1:]:
            if b.keys != keys:
                raise ValueError(
                    f"sparse feature mismatch: {keys} vs {b.keys}")
        starts = np.stack([b._starts for b in batches])   # (N, F + 1)
        bases = np.cumsum(starts[:, -1]) - starts[:, -1]
        return MiniBatch(
            dense=np.concatenate([b.dense for b in batches], axis=0),
            keys=keys,
            lengths=np.concatenate([b.lengths for b in batches], axis=1),
            ids=np.concatenate([b.ids for b in batches])[concat_ranges(
                (starts[:, :-1] + bases[:, None]).T.ravel(),
                np.diff(starts, axis=1).T.ravel())],
            labels=np.concatenate([b.labels for b in batches]))


class SyntheticCTRDataset:
    """Reproducible stream of :class:`MiniBatch` with a planted teacher.

    Parameters
    ----------
    tables:
        The embedding-table configs; ``avg_pooling`` controls the Poisson
        mean of per-sample pooling sizes.
    dense_dim:
        Width of the dense (continuous) feature vector.
    noise:
        Stddev of logit noise; larger means a higher irreducible NE.
    zipf_alpha:
        Popularity skew of categorical ids.
    """

    def __init__(self, tables: Sequence[EmbeddingTableConfig],
                 dense_dim: int = 8, noise: float = 0.25,
                 zipf_alpha: float = 1.05, seed: int = 0) -> None:
        if not tables:
            raise ValueError("need at least one table")
        check.count("dense_dim", dense_dim)
        self.tables = list(tables)
        self.dense_dim = dense_dim
        self.noise = noise
        self.zipf_alpha = zipf_alpha
        self.seed = seed
        teacher_rng = np.random.default_rng(seed)
        # planted per-id effects and dense weights
        self._id_effects = {
            t.name: teacher_rng.normal(
                0.0, 1.0, size=t.num_embeddings).astype(np.float32)
            for t in tables}
        self._dense_weights = teacher_rng.normal(
            0.0, 1.0, size=dense_dim).astype(np.float32)
        self._bias = float(teacher_rng.normal(0.0, 0.1))

    def batch(self, batch_size: int, batch_index: int = 0) -> MiniBatch:
        """Generate batch ``batch_index`` deterministically."""
        check.count("batch_size", batch_size)
        rng = np.random.default_rng((self.seed, batch_index))
        dense = rng.normal(size=(batch_size, self.dense_dim)).astype(
            np.float32)
        logits = dense @ self._dense_weights + self._bias
        lengths = np.empty((len(self.tables), batch_size), dtype=np.int64)
        ids = []
        for f, t in enumerate(self.tables):
            lengths[f] = rng.poisson(max(t.avg_pooling, 1e-9),
                                     size=batch_size)
            indices = zipf_indices(t.num_embeddings, int(lengths[f].sum()),
                                   rng, alpha=self.zipf_alpha)
            ids.append(indices)
            effects = self._id_effects[t.name]
            bag_sums = np.zeros(batch_size, dtype=np.float32)
            bag_ids = np.repeat(np.arange(batch_size), lengths[f])
            if len(indices):
                np.add.at(bag_sums, bag_ids, effects[indices])
            # mean effect per bag keeps logit scale independent of L
            logits += bag_sums / np.maximum(lengths[f], 1)
        logits += rng.normal(0.0, self.noise, size=batch_size)
        labels = (rng.random(batch_size) < F.sigmoid(
            logits.astype(np.float32))).astype(np.float32)
        return MiniBatch(dense=dense, keys=[t.name for t in self.tables],
                         lengths=lengths, ids=np.concatenate(ids),
                         labels=labels)

    def batches(self, batch_size: int, num_batches: int,
                start: int = 0) -> List[MiniBatch]:
        return [self.batch(batch_size, start + i) for i in range(num_batches)]

    def base_rate(self, sample_size: int = 4096) -> float:
        """Empirical positive rate, for normalized-entropy denominators."""
        b = self.batch(sample_size, batch_index=-1 & 0x7FFFFFFF)
        return float(np.mean(b.labels))

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
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .. import check
from ..embedding.table import EmbeddingTableConfig, lengths_to_offsets
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


@dataclass
class MiniBatch:
    """One batch of samples: dense features, jagged sparse ids, labels."""

    dense: np.ndarray                     # (B, dense_dim) float32
    sparse: Dict[str, Tuple[np.ndarray, np.ndarray]]  # name -> (ids, offsets)
    labels: np.ndarray                    # (B,) float32 in {0, 1}

    @property
    def batch_size(self) -> int:
        return self.dense.shape[0]

    @property
    def nnz(self) -> int:
        """Total embedding ids across every sparse feature."""
        return int(sum(len(ids) for ids, _ in self.sparse.values()))

    def slice(self, start: int, stop: int) -> "MiniBatch":
        """Extract samples ``[start, stop)`` with rebased offsets."""
        sparse = {}
        for name, (indices, offsets) in self.sparse.items():
            lo, hi = offsets[start], offsets[stop]
            sparse[name] = (indices[lo:hi].copy(),
                            (offsets[start:stop + 1] - lo).copy())
        return MiniBatch(dense=self.dense[start:stop].copy(), sparse=sparse,
                         labels=self.labels[start:stop].copy())

    def take(self, rows: np.ndarray) -> "MiniBatch":
        """Samples ``rows`` (any order, repeats allowed) as one batch:
        bitwise ``concat([slice(r, r + 1) for r in rows])``.

        The jagged gather is vectorised: per feature, the gathered bags'
        lengths give the new offsets, and one :func:`concat_ranges` index
        picks every bag's ids out of the flat id array."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1:
            raise ValueError("rows must be one-dimensional")
        if len(rows) and (rows.min() < 0 or rows.max() >= self.batch_size):
            raise IndexError(f"rows out of range for a batch of "
                             f"{self.batch_size} samples")
        sparse = {}
        for name, (indices, offsets) in self.sparse.items():
            lo = offsets[rows]
            lengths = offsets[rows + 1] - lo
            sparse[name] = (indices[concat_ranges(lo, lengths)],
                            lengths_to_offsets(lengths))
        return MiniBatch(dense=self.dense[rows], sparse=sparse,
                         labels=self.labels[rows])

    def split(self, parts: int) -> List["MiniBatch"]:
        """Split into ``parts`` contiguous sub-batches (data parallelism)."""
        if self.batch_size % parts:
            raise ValueError(
                f"batch size {self.batch_size} not divisible by {parts}")
        step = self.batch_size // parts
        return [self.slice(i * step, (i + 1) * step) for i in range(parts)]

    @staticmethod
    def concat(batches: Sequence["MiniBatch"]) -> "MiniBatch":
        """Coalesce batches (inverse of :meth:`split`): samples in order,
        jagged ids concatenated with offsets rebased. All batches must
        cover the same sparse features. This is how
        ``RequestTrace.merge`` coalesces the stores of one feature set.

        Per feature, the offsets arrays are concatenated and differenced
        once; the differences that straddle two batches (one after the
        end of every offsets array but the last) are dropped, leaving
        each bag's length. Dropping them is only sound when every batch's
        offsets hold one bag per sample and run from 0 to its id count,
        so that is checked (``ValueError``): otherwise a malformed batch
        would silently re-bag its neighbours' ids."""
        if not batches:
            raise ValueError("need at least one batch")
        names = set(batches[0].sparse)
        for b in batches[1:]:
            if set(b.sparse) != names:
                raise ValueError(
                    f"sparse feature mismatch: {sorted(names)} vs "
                    f"{sorted(b.sparse)}")
        count = len(batches)
        sizes = np.fromiter((len(b.dense) for b in batches), np.int64, count)
        last = np.cumsum(sizes + 1) - 1   # each batch's last offsets entry
        keep = np.ones(last[-1], dtype=bool)
        keep[last[:-1]] = False
        sparse = {}
        for name in batches[0].sparse:
            ids = [b.sparse[name][0] for b in batches]
            offsets = [b.sparse[name][1] for b in batches]
            flat = np.concatenate(offsets)
            if ((np.fromiter(map(len, offsets), np.int64, count)
                    != sizes + 1).any()
                    or flat[last - sizes].any()
                    or (flat[last] != np.fromiter(map(len, ids), np.int64,
                                                  count)).any()):
                raise ValueError(
                    f"feature {name}: every batch's offsets must hold one "
                    f"bag per sample, from 0 to its id count")
            sparse[name] = (np.concatenate(ids),
                            lengths_to_offsets(np.diff(flat)[keep]))
        return MiniBatch(
            dense=np.concatenate([b.dense for b in batches], axis=0),
            sparse=sparse,
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
        sparse = {}
        for t in self.tables:
            lengths = rng.poisson(max(t.avg_pooling, 1e-9),
                                  size=batch_size).astype(np.int64)
            indices = zipf_indices(t.num_embeddings, int(lengths.sum()),
                                   rng, alpha=self.zipf_alpha)
            offsets = lengths_to_offsets(lengths)
            sparse[t.name] = (indices, offsets)
            effects = self._id_effects[t.name]
            bag_sums = np.zeros(batch_size, dtype=np.float32)
            bag_ids = np.repeat(np.arange(batch_size), lengths)
            if len(indices):
                np.add.at(bag_sums, bag_ids, effects[indices])
            # mean effect per bag keeps logit scale independent of L
            logits += bag_sums / np.maximum(lengths, 1)
        logits += rng.normal(0.0, self.noise, size=batch_size)
        labels = (rng.random(batch_size) < F.sigmoid(
            logits.astype(np.float32))).astype(np.float32)
        return MiniBatch(dense=dense, sparse=sparse, labels=labels)

    def batches(self, batch_size: int, num_batches: int,
                start: int = 0) -> List[MiniBatch]:
        return [self.batch(batch_size, start + i) for i in range(num_batches)]

    def base_rate(self, sample_size: int = 4096) -> float:
        """Empirical positive rate, for normalized-entropy denominators."""
        b = self.batch(sample_size, batch_index=-1 & 0x7FFFFFFF)
        return float(np.mean(b.labels))

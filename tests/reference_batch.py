"""The per-feature dict layout of a batch, kept as the oracle of
:class:`repro.data.MiniBatch`, never imported by the product.

A batch used to hold its sparse features as ``name -> (ids, offsets)``,
and every batch op looped over the features. ``MiniBatch`` now holds the
paper's combined format (one ``(F, B)`` lengths matrix, one flat ids
array) and does each op as one vector operation; the tests hold it to
these feature-by-feature forms:

* ``to_features`` reads a batch back into the dict layout, walking the
  ids feature by feature; ``from_features`` builds a batch from dicts
  (each feature's lengths are its offsets' differences), which is how
  tests hand-build and edit batches;
* ``slice_features``, ``take_features`` and ``concat_features`` are the
  dict-layout ``slice``, ``take`` and ``concat``, one feature (and one
  row) at a time.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.data import MiniBatch
from repro.embedding import lengths_to_offsets

__all__ = ["Features", "to_features", "from_features", "slice_features",
           "take_features", "concat_features", "assert_same_batch"]

#: name -> (ids, offsets), one entry per sparse feature, in key order
Features = Dict[str, Tuple[np.ndarray, np.ndarray]]


def to_features(batch: MiniBatch) -> Features:
    """``batch``'s sparse features as copied ``(ids, offsets)`` pairs,
    feature ``f``'s ids the ``lengths[f].sum()`` ids after the ids of
    the features before it."""
    features, start = {}, 0
    for name, lengths in zip(batch.keys, batch.lengths):
        end = start + int(lengths.sum())
        features[name] = (batch.ids[start:end].copy(),
                          lengths_to_offsets(lengths))
        start = end
    return features


def from_features(dense: np.ndarray, features: Features,
                  labels: np.ndarray) -> MiniBatch:
    """A batch of ``features`` in key order."""
    lengths = np.zeros((len(features), len(dense)), dtype=np.int64)
    for f, (_, offsets) in enumerate(features.values()):
        lengths[f] = np.diff(offsets)
    ids = [np.asarray(ids, dtype=np.int64) for ids, _ in features.values()]
    return MiniBatch(dense=dense, keys=list(features), lengths=lengths,
                     ids=np.concatenate(ids) if ids
                     else np.zeros(0, dtype=np.int64), labels=labels)


def slice_features(features: Features, start: int, stop: int) -> Features:
    """Samples ``[start, stop)`` of every feature, offsets rebased."""
    out = {}
    for name, (ids, offsets) in features.items():
        lo, hi = offsets[start], offsets[stop]
        out[name] = (ids[lo:hi].copy(),
                     (offsets[start:stop + 1] - lo).copy())
    return out


def take_features(features: Features, rows: Sequence[int]) -> Features:
    """Samples ``rows`` of every feature, one bag at a time."""
    out = {}
    for name, (ids, offsets) in features.items():
        bags = [ids[offsets[r]:offsets[r + 1]] for r in rows]
        out[name] = (np.concatenate(bags) if bags
                     else np.zeros(0, dtype=np.int64),
                     lengths_to_offsets([len(bag) for bag in bags]))
    return out


def concat_features(parts: Sequence[Features]) -> Features:
    """Every feature's ids joined part by part, with one ``np.diff``
    per part per feature for the lengths."""
    out = {}
    for name in parts[0]:
        ids = np.concatenate([p[name][0] for p in parts])
        lengths = np.concatenate([np.diff(p[name][1]) for p in parts])
        out[name] = (ids, lengths_to_offsets(lengths))
    return out


def assert_same_batch(got: MiniBatch, want: MiniBatch) -> None:
    """Equal keys and equal arrays of equal dtypes, bit for bit."""
    assert got.keys == want.keys
    for field in ("dense", "lengths", "ids", "labels"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.dtype == w.dtype, field
        np.testing.assert_array_equal(g, w, err_msg=field)

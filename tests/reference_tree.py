"""Reference tree growth: the recursive CART builder, kept as the test oracle.

The production builder (:func:`repro.core.estimators.regression._grow_trees`)
grows every tree of a forest level by level: one stably sorted row
permutation per feature, partitioned by node at each depth, and one padded
row-wise ``cumsum`` per feature scoring every node of the depth at once.
This module is the derivation it is checked against -- the same CART
split search written the obvious way: recurse into each node, re-sort its
rows for every feature, score every cut, keep the first minimum.  It shares
only ``_Node`` with the production code, so a bug in the partitioning, the
padding or the per-level bookkeeping cannot hide in both.

Frozen from the recursive builder the estimators used to train with
(without its per-split feature subsampling, which no forest ever enabled).
Deliberately slow and deliberately not in ``src/``; used by the
differential tests in ``test_estimators.py``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.estimators.regression import _Node


def build_tree(features: np.ndarray, targets: np.ndarray, max_depth: int,
               min_samples_leaf: int, depth: int = 0) -> _Node:
    """Grow one regression tree by recursive binary splitting."""
    node_value = float(np.mean(targets))
    if (depth >= max_depth
            or len(targets) < 2 * min_samples_leaf
            or np.allclose(targets, targets[0])):
        return _Node(value=node_value)

    split = _best_split(features, targets, min_samples_leaf)
    if split is None:
        return _Node(value=node_value)
    feature_idx, threshold, left_mask = split
    left = build_tree(features[left_mask], targets[left_mask], max_depth,
                      min_samples_leaf, depth + 1)
    right = build_tree(features[~left_mask], targets[~left_mask], max_depth,
                       min_samples_leaf, depth + 1)
    return _Node(value=node_value, feature=feature_idx, threshold=threshold,
                 left=left, right=right)


def _best_split(features: np.ndarray, targets: np.ndarray,
                min_samples_leaf: int):
    n_samples, n_features = features.shape
    best = None
    best_score = np.inf
    total_sum = targets.sum()
    total_sq = np.square(targets).sum()

    for feature_idx in range(n_features):
        order = np.argsort(features[:, feature_idx], kind="mergesort")
        sorted_features = features[order, feature_idx]
        sorted_targets = targets[order]
        cum_sum = np.cumsum(sorted_targets)
        cum_sq = np.cumsum(np.square(sorted_targets))
        # Candidate split after position i (1-indexed sizes).
        left_counts = np.arange(1, n_samples)
        right_counts = n_samples - left_counts
        valid = ((left_counts >= min_samples_leaf)
                 & (right_counts >= min_samples_leaf)
                 & (np.diff(sorted_features) > 1e-12))
        if not np.any(valid):
            continue
        left_sum = cum_sum[:-1]
        left_sq = cum_sq[:-1]
        right_sum = total_sum - left_sum
        right_sq = total_sq - left_sq
        # Sum of squared errors on each side (variance * count).
        left_sse = left_sq - np.square(left_sum) / left_counts
        right_sse = right_sq - np.square(right_sum) / right_counts
        scores = np.where(valid, left_sse + right_sse, np.inf)
        idx = int(np.argmin(scores))
        if scores[idx] < best_score:
            best_score = float(scores[idx])
            threshold = float((sorted_features[idx]
                               + sorted_features[idx + 1]) / 2.0)
            best = (int(feature_idx), threshold)

    if best is None:
        return None
    feature_idx, threshold = best
    left_mask = features[:, feature_idx] <= threshold
    if left_mask.all() or not left_mask.any():
        return None
    return feature_idx, threshold, left_mask


def forest_roots(features: np.ndarray, targets: np.ndarray, n_trees: int,
                 max_depth: int, min_samples_leaf: int, seed: int,
                 bootstrap: bool = True) -> List[_Node]:
    """The roots a :class:`RandomForestRegressor` with these settings
    trains, from the same bootstrap draws."""
    rng = np.random.default_rng(seed)
    n_samples = len(features)
    roots = []
    for _ in range(n_trees):
        if bootstrap:
            indices = rng.integers(0, n_samples, size=n_samples)
        else:
            indices = np.arange(n_samples)
        roots.append(build_tree(features[indices], targets[indices],
                                max_depth, min_samples_leaf))
    return roots

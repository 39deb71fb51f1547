"""From-scratch decision-tree and random-forest regressors.

Maya's default kernel estimators are random-forest regressors trained on
profiled kernel runtimes (Section 4.3 and Appendix B).  scikit-learn is not
available in this environment, so this module provides a compact, numpy-only
implementation with the usual knobs (depth, minimum leaf size, bootstrap
sampling, per-split feature subsampling).

Targets are regressed in log-space, which both stabilises the variance
criterion across the several orders of magnitude kernel runtimes span and
makes the resulting errors behave like relative (percentage) errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np


@dataclass
class _Node:
    """A single node of a regression tree (leaf when ``feature`` is None)."""

    value: float
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class DecisionTreeRegressor:
    """CART-style regression tree minimising within-node variance."""

    def __init__(self, max_depth: int = 10, min_samples_leaf: int = 2,
                 max_features: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._rng = rng or np.random.default_rng(0)
        self._root: Optional[_Node] = None

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(self, features: np.ndarray, targets: np.ndarray) -> "DecisionTreeRegressor":
        if features.ndim != 2:
            raise ValueError("features must be a 2D array")
        if len(features) != len(targets):
            raise ValueError("features and targets must have the same length")
        if len(features) == 0:
            raise ValueError("cannot fit a tree on an empty dataset")
        self._root = self._build(features, targets, depth=0)
        return self

    def _build(self, features: np.ndarray, targets: np.ndarray,
               depth: int) -> _Node:
        node_value = float(np.mean(targets))
        if (depth >= self.max_depth
                or len(targets) < 2 * self.min_samples_leaf
                or np.allclose(targets, targets[0])):
            return _Node(value=node_value)

        split = self._best_split(features, targets)
        if split is None:
            return _Node(value=node_value)
        feature_idx, threshold, left_mask = split
        left = self._build(features[left_mask], targets[left_mask], depth + 1)
        right = self._build(features[~left_mask], targets[~left_mask], depth + 1)
        return _Node(value=node_value, feature=feature_idx, threshold=threshold,
                     left=left, right=right)

    def _best_split(self, features: np.ndarray, targets: np.ndarray):
        n_samples, n_features = features.shape
        candidates = np.arange(n_features)
        if self.max_features is not None and self.max_features < n_features:
            candidates = self._rng.choice(n_features, size=self.max_features,
                                          replace=False)
        best = None
        best_score = np.inf
        total_sum = targets.sum()
        total_sq = np.square(targets).sum()

        for feature_idx in candidates:
            order = np.argsort(features[:, feature_idx], kind="mergesort")
            sorted_features = features[order, feature_idx]
            sorted_targets = targets[order]
            cum_sum = np.cumsum(sorted_targets)
            cum_sq = np.cumsum(np.square(sorted_targets))
            # Candidate split after position i (1-indexed sizes).
            left_counts = np.arange(1, n_samples)
            right_counts = n_samples - left_counts
            valid = ((left_counts >= self.min_samples_leaf)
                     & (right_counts >= self.min_samples_leaf)
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

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def predict(self, features: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("tree has not been fitted")
        features = np.atleast_2d(features)
        return np.array([self._predict_one(row) for row in features])

    def _predict_one(self, row: np.ndarray) -> float:
        node = self._root
        assert node is not None
        while not node.is_leaf:
            assert node.left is not None and node.right is not None
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.value


class RandomForestRegressor:
    """Bagged ensemble of :class:`DecisionTreeRegressor` trees."""

    def __init__(self, n_trees: int = 8, max_depth: int = 12,
                 min_samples_leaf: int = 2,
                 max_features: Optional[int] = None,
                 bootstrap: bool = True, seed: int = 0) -> None:
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed
        self._trees: List[DecisionTreeRegressor] = []

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "RandomForestRegressor":
        if len(features) == 0:
            raise ValueError("cannot fit a forest on an empty dataset")
        rng = np.random.default_rng(self.seed)
        n_samples, n_features = features.shape
        max_features = self.max_features or n_features
        self._trees = []
        for tree_idx in range(self.n_trees):
            tree_rng = np.random.default_rng(self.seed + 1000 * (tree_idx + 1))
            if self.bootstrap:
                indices = rng.integers(0, n_samples, size=n_samples)
            else:
                indices = np.arange(n_samples)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                rng=tree_rng,
            )
            tree.fit(features[indices], targets[indices])
            self._trees.append(tree)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if not self._trees:
            raise RuntimeError("forest has not been fitted")
        predictions = np.vstack([tree.predict(features) for tree in self._trees])
        return predictions.mean(axis=0)


def mean_absolute_percentage_error(actual: np.ndarray,
                                   predicted: np.ndarray) -> float:
    """MAPE in percent, matching the metric reported in Tables 7-9."""
    actual = np.asarray(actual, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    mask = actual > 0
    if not np.any(mask):
        return 0.0
    return float(np.mean(np.abs(predicted[mask] - actual[mask])
                         / actual[mask]) * 100.0)

"""From-scratch decision-tree and random-forest regressors.

Maya's default kernel estimators are random-forest regressors trained on
profiled kernel runtimes (Section 4.3 and Appendix B).  scikit-learn is not
available in this environment, so this module provides a compact, numpy-only
implementation with the usual knobs (depth, minimum leaf size, bootstrap
sampling).

Trees are grown level by level (:func:`_grow_trees`): the nodes of one
depth, across every tree of a forest, are scored in a few array passes.
The result is a plain tree of :class:`_Node` objects, node for node the
CART tree a recursive builder grows from the same rows.

Targets are regressed in log-space, which both stabilises the variance
criterion across the several orders of magnitude kernel runtimes span and
makes the resulting errors behave like relative (percentage) errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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


def _grow_trees(features: np.ndarray, targets: np.ndarray,
                samples: Sequence[np.ndarray], max_depth: int,
                min_samples_leaf: int) -> List[_Node]:
    """Grow one CART regression tree per sample (an array of row indices,
    repeats allowed) of ``features`` / ``targets``.

    Each node minimises the summed squared error of its two children over
    every feature and every cut between distinct sorted values, keeping
    the first minimum (lowest feature, then lowest cut).  A node stays a
    leaf at ``max_depth``, below ``2 * min_samples_leaf`` rows, or when
    its targets are all ``np.allclose`` to its first one.

    The trees grow together, one depth at a time.  Every feature keeps a
    stably sorted permutation of the live rows, grouped by node, so each
    node's rows arrive sorted without a per-node sort.  A depth's nodes
    are scored in groups of similar size, each with one row-wise
    ``cumsum`` over a padded (feature, node, position) array: the
    cumulative sums run sequentially from each node's first row, so every
    score, threshold and node value is the float a per-node recursive
    search computes.  Node totals use
    each node's own ``sum`` in original row order for the same reason (a
    pairwise sum over a padded or concatenated buffer rounds differently).
    """
    rows = np.concatenate(samples)
    features, targets = features[rows], targets[rows]
    n_features = features.shape[1]
    counts = np.array([len(sample) for sample in samples])
    node_of_row = np.repeat(np.arange(len(samples)), counts)
    # orders[f] lists the live rows grouped by node, sorted by feature f
    # within a node (lexsort is stable: ties in row order); orders[-1]
    # keeps row order.
    orders = np.vstack([np.lexsort((column, node_of_row))
                        for column in features.T]
                       + [np.arange(len(targets))])

    levels = []
    depth = 0
    while len(counts):
        ends = np.cumsum(counts)
        starts = ends - counts
        node_of_pos = np.repeat(np.arange(len(counts)), counts)
        ordered = targets[orders[-1]]
        squares = np.square(ordered)
        totals = np.array([ordered[a:b].sum() for a, b in
                           zip(starts.tolist(), ends.tolist())])
        values = (totals / counts).tolist()
        feature = np.full(len(counts), -1)
        threshold = np.zeros(len(counts))

        # (A single row has no cut, whatever min_samples_leaf allows.)
        candidate = ((counts >= max(2 * min_samples_leaf, 2))
                     & (depth < max_depth))
        if candidate.any():
            # np.allclose(t, t[0]) per node, written out.
            first = ordered[starts][node_of_pos]
            close = ((np.abs(ordered - first)
                      <= 1e-08 + 1e-05 * np.abs(first))
                     & np.isfinite(first)) | (ordered == first)
            candidate &= np.bincount(node_of_pos[~close],
                                     minlength=len(counts)) > 0
        sq_totals = np.zeros(len(counts))
        sq_totals[candidate] = [squares[a:b].sum() for a, b in
                                zip(starts[candidate].tolist(),
                                    ends[candidate].tolist())]
        # Score nodes in groups within a factor of two in size, each
        # padded to its largest node: (feature, node, position) arrays.
        group = np.where(candidate, np.frexp(counts)[1], 0)
        for exponent in sorted(set(group[candidate].tolist())):
            members = group == exponent
            nodes = np.flatnonzero(members)
            picked = np.flatnonzero(members[node_of_pos])
            slot = (np.cumsum(members) - 1)[node_of_pos[picked]]
            column = picked - starts[node_of_pos[picked]]
            rows = orders[:-1, picked]
            shape = (n_features, len(nodes), int(counts[nodes].max()))
            sorted_x = np.zeros(shape)
            sorted_y = np.zeros(shape)
            sorted_x[:, slot, column] = features[rows,
                                                 np.arange(n_features)[:, None]]
            sorted_y[:, slot, column] = targets[rows]
            chosen, cut = _best_cuts(sorted_x, sorted_y, counts[nodes],
                                     totals[nodes], sq_totals[nodes],
                                     min_samples_leaf)
            split = cut >= 0
            slots = np.flatnonzero(split)
            chosen, cut = chosen[split], cut[split]
            feature[nodes[split]] = chosen
            threshold[nodes[split]] = (sorted_x[chosen, slots, cut]
                                       + sorted_x[chosen, slots, cut + 1]) / 2.0

        # Route each row of a split node, in row order; a split that
        # sends every row one way leaves the node a leaf.
        live = np.flatnonzero(feature[node_of_pos] >= 0)
        row_node = node_of_pos[live]
        rows = orders[-1, live]
        goes_right = ~(features[rows, feature[row_node]] <= threshold[row_node])
        right = np.bincount(row_node, goes_right, minlength=len(counts))
        size = np.bincount(row_node, minlength=len(counts))
        feature[(right == 0) | (right == size)] = -1
        splits = np.flatnonzero(feature >= 0)
        child = np.full(len(counts), -1)
        child[splits] = 2 * np.arange(len(splits))
        levels.append((values, feature.tolist(), threshold.tolist(),
                       child.tolist()))

        # Stably partition every order by child node; leaves' rows leave.
        next_node = np.full(len(targets), -1)
        keep = child[row_node] >= 0
        next_node[rows[keep]] = child[row_node[keep]] + goes_right[keep]
        keys = next_node[orders]
        alive = keys >= 0
        orders = orders[alive].reshape(n_features + 1, -1)
        keys = keys[alive].reshape(n_features + 1, -1)
        orders = np.take_along_axis(
            orders, np.argsort(keys, axis=1, kind="stable"), axis=1)
        counts = np.bincount(keys[-1], minlength=2 * len(splits))
        depth += 1

    # Link the nodes bottom-up: a split node's children are entries
    # child and child + 1 of the level below.
    below: List[_Node] = []
    for values, feature, threshold, child in reversed(levels):
        below = [
            _Node(value=value) if at < 0 else
            _Node(value=value, feature=index, threshold=cut,
                  left=below[at], right=below[at + 1])
            for value, index, cut, at in zip(values, feature, threshold, child)
        ]
    return below


def _best_cuts(sorted_x: np.ndarray, sorted_y: np.ndarray, sizes: np.ndarray,
               totals: np.ndarray, sq_totals: np.ndarray,
               min_samples_leaf: int) -> Tuple[np.ndarray, np.ndarray]:
    """Best (feature, cut position) per node, scored in one array pass.

    ``sorted_x`` / ``sorted_y`` are (feature, node, position): each node's
    feature values and targets sorted by that feature, zero-padded past
    ``sizes``; ``totals`` / ``sq_totals`` are each node's target sum and
    sum of squares.  A cut after position ``i`` leaves ``i + 1`` rows on
    the left.  Returns cut ``-1`` for a node without a valid cut.
    """
    left_counts = np.arange(1, sorted_y.shape[2])
    right_counts = sizes[:, None] - left_counts
    left_sum = np.cumsum(sorted_y, axis=2)[..., :-1]
    left_sq = np.cumsum(np.square(sorted_y), axis=2)[..., :-1]
    right_sum = totals[:, None] - left_sum
    right_sq = sq_totals[:, None] - left_sq
    # right_counts >= 1 also masks the padding.
    valid = ((left_counts >= min_samples_leaf)
             & (right_counts >= max(min_samples_leaf, 1))
             & (np.diff(sorted_x, axis=2) > 1e-12))
    with np.errstate(divide="ignore", invalid="ignore"):
        left_sse = left_sq - np.square(left_sum) / left_counts
        right_sse = right_sq - np.square(right_sum) / right_counts
    scores = np.where(valid, left_sse + right_sse, np.inf)
    # First minimum per (feature, node), then the first feature holding
    # the node's minimum; a NaN minimum disqualifies its feature.
    cuts = np.argmin(scores, axis=2)
    best = np.take_along_axis(scores, cuts[..., None], axis=2)[..., 0]
    best[np.isnan(best)] = np.inf
    chosen = np.argmin(best, axis=0)
    nodes = np.arange(len(sizes))
    return chosen, np.where(best[chosen, nodes] < np.inf,
                            cuts[chosen, nodes], -1)


class DecisionTreeRegressor:
    """CART-style regression tree minimising within-node variance."""

    def __init__(self, max_depth: int = 10, min_samples_leaf: int = 2) -> None:
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
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
        [self._root] = _grow_trees(features, targets,
                                   [np.arange(len(targets))],
                                   self.max_depth, self.min_samples_leaf)
        return self

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
                 bootstrap: bool = True, seed: int = 0) -> None:
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.bootstrap = bootstrap
        self.seed = seed
        self._trees: List[DecisionTreeRegressor] = []

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "RandomForestRegressor":
        if len(features) == 0:
            raise ValueError("cannot fit a forest on an empty dataset")
        rng = np.random.default_rng(self.seed)
        n_samples = len(features)
        samples = [rng.integers(0, n_samples, size=n_samples)
                   if self.bootstrap else np.arange(n_samples)
                   for _ in range(self.n_trees)]
        self._trees = []
        for root in _grow_trees(features, targets, samples, self.max_depth,
                                self.min_samples_leaf):
            tree = DecisionTreeRegressor(max_depth=self.max_depth,
                                         min_samples_leaf=self.min_samples_leaf)
            tree._root = root
            self._trees.append(tree)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if not self._trees:
            raise RuntimeError("forest has not been fitted")
        per_tree = np.vstack([tree.predict(features) for tree in self._trees])
        # Average each row's trees contiguously, so a row's prediction is
        # the same float whether it is predicted alone or in a batch.
        return np.ascontiguousarray(per_tree.T).mean(axis=1)


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

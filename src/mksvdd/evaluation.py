"""Evaluation metrics and hyperparameter grid search.

Outlier scores follow the model convention: positive means rejected
(outside the boundary), and labels use +1 for targets, -1 for outliers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import SampleMatrix, SplitPlan, split
from .kernels import KernelDictionary, as_specs, examples_for
from .mkl import METHOD_FAMILIES, check_options, fit_method
from .models import OneClassModel, score


class UndefinedMetricError(ValueError):
    """A metric was requested on data where it is not defined."""


def _scores_labels(scores, labels):
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be 1D arrays of equal length")
    return s, y


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    order = np.argsort(values, kind="mergesort")
    s = values[order]
    # tie groups span sorted positions start..end; NaN never equals itself,
    # so every NaN is a group of its own
    start = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    end = np.r_[start[1:], s.size] - 1
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(0.5 * (start + end) + 1.0, end - start + 1)
    return ranks


def auc(scores, labels) -> float:
    """ROC area via the rank statistic, ties counted half.

    Equals the probability that a random outlier receives a higher
    outlier score than a random target.
    """
    s, y = _scores_labels(scores, labels)
    n_out = int((y == -1).sum())
    n_in = int((y == 1).sum())
    if n_out == 0 or n_in == 0:
        raise UndefinedMetricError("AUC needs both classes present")
    ranks = _average_ranks(s)
    rank_sum = ranks[y == -1].sum()
    return float((rank_sum - n_out * (n_out + 1) / 2.0) / (n_out * n_in))


def precision_recall(scores, labels) -> np.ndarray:
    """Precision/recall sweep of outlier detection over score thresholds.

    Returns an array of (recall, precision) rows, one per distinct score
    (threshold = keep everything scored at least that value), preceded by
    a recall-0 anchor whose precision is that of the single top-scored
    example. Recalls are non-decreasing down the rows.
    """
    s, y = _scores_labels(scores, labels)
    n_out = int((y == -1).sum())
    if n_out == 0:
        raise UndefinedMetricError("precision/recall needs at least one outlier")
    order = np.argsort(-s, kind="mergesort")
    hits = (y[order] == -1).astype(float)
    cum_tp = np.cumsum(hits)
    k = np.arange(1, s.size + 1, dtype=float)
    sorted_s = s[order]
    boundary = np.flatnonzero(np.r_[sorted_s[1:] != sorted_s[:-1], True])
    recalls = cum_tp[boundary] / n_out
    precisions = cum_tp[boundary] / k[boundary]
    anchor = np.array([[0.0, hits[0]]])
    return np.vstack([anchor, np.column_stack([recalls, precisions])])


def detections_before_first_false_alarm(scores, labels) -> int:
    """Number of outliers ranked strictly ahead of the first target."""
    s, y = _scores_labels(scores, labels)
    order = np.argsort(-s, kind="mergesort")
    sorted_y = y[order]
    first_target = np.flatnonzero(sorted_y == 1)
    if first_target.size == 0:
        return int((sorted_y == -1).sum())
    return int((sorted_y[: first_target[0]] == -1).sum())


def classification_accuracy(scores, labels) -> float:
    """Fraction of examples on the correct side of the boundary.

    Accept (score <= 0) should match label +1, reject label -1.
    """
    s, y = _scores_labels(scores, labels)
    predicted = np.where(s <= 0.0, 1, -1)
    return float(np.mean(predicted == y))


@dataclass(frozen=True)
class RankMetrics:
    win: bool
    rank_first_target: int
    rank_first_similar: int | None


def rank_metrics(scores, roles) -> RankMetrics:
    """Positions of the first target and first similar example.

    Examples are sorted by acceptance (negated outlier score) in
    descending order, ties kept in input order. Ranks are 1-based; win is
    true when the top-ranked example is a target.
    """
    s = np.asarray(scores, dtype=float)
    r = np.asarray(roles)
    if s.size == 0:
        raise UndefinedMetricError("empty test set")
    order = np.argsort(s, kind="mergesort")
    sorted_roles = r[order]
    targets = np.flatnonzero(sorted_roles == "target")
    if targets.size == 0:
        raise UndefinedMetricError("no target example in the test set")
    similars = np.flatnonzero(sorted_roles == "similar")
    first_target = int(targets[0]) + 1
    first_similar = int(similars[0]) + 1 if similars.size else None
    return RankMetrics(first_target == 1, first_target, first_similar)


@dataclass(frozen=True)
class GridCell:
    """Outcome of one grid-search cell."""

    method: str
    C: float
    lam: float
    kernel_index: int | None
    score: float | None
    error: str | None = None
    model: OneClassModel | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class GridSearchResult:
    table: tuple[GridCell, ...]
    best: dict


def grid_search(
    matrix: SampleMatrix,
    kernels,
    methods,
    c_grid,
    lambda_grid=(0.0,),
    policy: str = "auc",
    plan: SplitPlan | None = None,
    mkl_options: dict | None = None,
) -> GridSearchResult:
    """Train every (method, kernel, C, lambda) cell and pick the best.

    kernels is either a sequence of KernelSpec (Gram matrices are computed
    on the training rows) or a mapping matrix_id -> full precomputed
    matrix aligned with matrix row order. Single-kernel methods get one
    cell per dictionary entry; multi-kernel methods use the whole
    dictionary, and only slim methods sweep lambda_grid.

    policy "auc" scores cells by AUC on the plan's test ids (labels
    required); policy "positive-fraction" scores by the fraction of
    validation positives accepted, breaking ties toward models with more
    support vectors. Remaining ties go to the smallest C, then smallest
    lambda, then lowest kernel index. Each cell keeps its fitted model.
    Methods and mkl_options are checked before the first cell and raise;
    cell-level failures (ValueError, RuntimeError), such as a C value the
    fit rejects, are recorded in the cell, not raised.

    Every cell calls fit_method on one dictionary, the whole one or a
    single-kernel selection of it (KernelDictionary.select, which shares
    the whole one's row store), and so shares its memo: a cell reuses
    every inner solve an earlier cell on that dictionary made that solving
    again would repeat bit for bit (see models._inner_solve), so each cell
    equals its own independent fit.
    """
    if policy not in ("auc", "positive-fraction"):
        raise ValueError(f"unknown validation policy: {policy!r}")
    if plan is None:
        plan = split(matrix, "unsupervised", seed=0)
    methods = list(methods)
    c_grid = list(c_grid)
    lambda_grid = list(lambda_grid)
    if not c_grid or not lambda_grid or not methods:
        raise ValueError("grids must be nonempty")
    for method in methods:
        if method not in METHOD_FAMILIES:
            raise ValueError(f"unknown method: {method!r}")
    options = check_options(dict(mkl_options or {}))

    specs = as_specs(kernels)
    dictionary = KernelDictionary.from_data(specs, examples_for(matrix, plan.train_ids, specs))

    if policy == "auc":
        if matrix.labels is None:
            raise ValueError("policy 'auc' needs labels on the dataset")
        eval_ids = plan.test_ids
    else:
        if plan.validation_ids.size == 0:
            raise ValueError("policy 'positive-fraction' needs a validation split")
        eval_ids = plan.validation_ids
    eval_examples = examples_for(matrix, eval_ids, specs)  # checks the ids
    eval_labels = matrix.labels[eval_ids] if policy == "auc" else None

    cells: list[GridCell] = []
    for method in methods:
        _, multi, slim = METHOD_FAMILIES[method]
        kernel_indices = [None] if multi else list(range(dictionary.nk))
        lams = lambda_grid if slim else [0.0]
        for kidx in kernel_indices:
            sub = dictionary if kidx is None else dictionary.select(kidx)
            for C in c_grid:
                for lam in lams:
                    try:
                        model, _ = fit_method(method, sub, C, lam, **options)
                        cell_scores = score(model, eval_examples)
                        if policy == "auc":
                            value = auc(cell_scores, eval_labels)
                        else:
                            value = float(np.mean(cell_scores <= 0.0))
                        cells.append(GridCell(method, C, lam, kidx, value, None, model))
                    except (ValueError, RuntimeError) as exc:  # recorded, not fatal
                        cells.append(GridCell(method, C, lam, kidx, None, str(exc)))

    best: dict[str, GridCell] = {}
    for method in methods:
        candidates = [c for c in cells if c.method == method and c.error is None]
        if not candidates:
            continue

        def key(cell: GridCell):
            tightness = -cell.model.card if policy == "positive-fraction" else 0
            kidx = cell.kernel_index if cell.kernel_index is not None else -1
            return (-cell.score, tightness, cell.C, cell.lam, kidx)

        best[method] = min(candidates, key=key)
    return GridSearchResult(tuple(cells), best)

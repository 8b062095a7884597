"""Fitting and scoring of enclosing-ball (SVDD) and one-class SVM models."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import CombinedKernel, KernelDictionary, KernelSpec, as_weights, combine_blocks
from .qp import AlphaSolution, solve_raw, sv_threshold

KINDS = ("svdd", "ocsvm")


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")


@dataclass(frozen=True)
class OneClassModel:
    """Fitted one-class model.

    For kind "svdd" the decision value at x is
        f(x) = k(x, x) - 2 sum_j alpha_j k(x, x_j) + alpha' K alpha
    and threshold holds the squared-radius boundary value, so the outlier
    score f(x) - threshold is positive outside the ball. For kind "ocsvm"
    the decision value is g(x) = sum_j alpha_j k(x, x_j), threshold holds
    the offset rho, and the outlier score is threshold - g(x).
    """

    kind: str
    alpha: AlphaSolution
    weights: np.ndarray
    threshold: float
    self_term: float
    C: float
    dictionary: KernelDictionary

    def __post_init__(self) -> None:
        _check_kind(self.kind)

    @property
    def card(self) -> int:
        return self.alpha.card


def _boundary_threshold(values: np.ndarray, solution: AlphaSolution) -> float:
    """Boundary level: mean over margin SVs, else max over all SVs."""
    if solution.margin_sv_indices.size:
        return float(values[solution.margin_sv_indices].mean())
    return float(values[solution.sv_indices].max())


def _inner_solve(kind, dictionary, weights, C, warm_start=None, kkt_tol=1e-6):
    """The one-class dual at K = sum_m d_m K_m for validated weights.

    Every fit and every MKL probe solves through here. Returns K, as the
    CombinedKernel the solve read, and the solution; svdd uses
    q = diag(K), ocsvm uses q = 0.

    The dictionary's memo keeps the (C, solution) pairs solved through it
    under (kind, weights, warm start, kkt_tol, sv_threshold(C)). A
    solution stored at C0 serves C when C0 == C, or when its peak stays
    below min(C, C0) - sv_threshold(C): then no step, snap, receiver test
    or margin test reads either box, so solving at C would repeat it bit
    for bit. Otherwise the solve runs and is stored, with its alpha made
    read-only, since every later fit on the dictionary may return it.
    """
    K = CombinedKernel(dictionary.stack, weights, dictionary.diags)
    tau = sv_threshold(C)
    warm = None if warm_start is None else np.asarray(warm_start, dtype=float).tobytes()
    stored = dictionary._memo.setdefault((kind, weights.tobytes(), warm, kkt_tol, tau), [])
    for C0, sol in stored:
        if C0 == C:
            return K, sol
        if sol.peak < min(C, C0) - tau:
            return K, AlphaSolution.from_alpha(
                sol.alpha, sol.objective, C, sol.iterations, sol.peak
            )
    q = K.diag if kind == "svdd" else np.zeros(K.n)
    sol = solve_raw(K, q, C, warm_start=warm_start, kkt_tol=kkt_tol)
    sol.alpha.setflags(write=False)
    stored.append((C, sol))
    return K, sol


def fit_one_class(
    kind: str, dictionary: KernelDictionary, d, C: float, kkt_tol: float = 1e-6
) -> OneClassModel:
    """Fit the one-class dual of the given kind at the combined kernel
    sum_m d_m K_m: the minimum enclosing ball for "svdd", the one-class
    SVM (same constraints, zero linear term) for "ocsvm"."""
    _check_kind(kind)
    weights = as_weights(d, dictionary.nk)
    K, solution = _inner_solve(kind, dictionary, weights, C, kkt_tol=kkt_tol)
    return _model_at(kind, dictionary, weights, C, K, solution)


def _model_at(kind, dictionary, weights, C, K, solution) -> OneClassModel:
    """The model of a solve at K = sum_m d_m K_m (a CombinedKernel at
    weights): its self term alpha' K alpha, and its threshold from the
    training decision values. Every fit builds its model here."""
    Ka = K.matvec(solution.alpha)
    self_term = float(solution.alpha @ Ka)
    train_values = K.diag - 2.0 * Ka + self_term if kind == "svdd" else Ka
    return OneClassModel(
        kind=kind,
        alpha=solution,
        weights=weights,
        threshold=_boundary_threshold(train_values, solution),
        self_term=self_term,
        C=C,
        dictionary=dictionary,
    )


def fit_svdd(dictionary, d, C, kkt_tol=1e-6) -> OneClassModel:
    """Fit the minimum enclosing ball at the combined kernel sum_m d_m K_m."""
    return fit_one_class("svdd", dictionary, d, C, kkt_tol)


def fit_ocsvm(dictionary, d, C, kkt_tol=1e-6) -> OneClassModel:
    """Fit the one-class SVM dual (same constraints, zero linear term)."""
    return fit_one_class("ocsvm", dictionary, d, C, kkt_tol)


def _decision_scores(model: OneClassModel, g: np.ndarray, diag: np.ndarray):
    """Outlier scores from g(x) = sum_j alpha_j k(x, x_j) and k(x, x)."""
    if model.kind == "svdd":
        values = diag - 2.0 * g + model.self_term
        return values - model.threshold
    return model.threshold - g


def _support(model: OneClassModel) -> tuple[np.ndarray, np.ndarray]:
    """Training rows with alpha_j != 0 and kernels with d_m != 0: the only
    terms a decision value has, and all that scoring evaluates."""
    return np.flatnonzero(model.alpha.alpha), np.flatnonzero(model.weights)


def score(model: OneClassModel, X_test) -> np.ndarray:
    """Outlier scores for test examples: positive means outside the boundary.

    X_test is what the model's kernels read: features for rbf and poly
    kernels, example ids (rows of the loaded matrices) for precomputed ones.
    """
    rows, kernels = _support(model)
    weights = model.weights[kernels]
    blocks, diags = model.dictionary.cross(X_test, rows, kernels)
    g = combine_blocks(blocks, weights) @ model.alpha.alpha[rows]
    return _decision_scores(model, g, weights @ diags)


def score_ids(model: OneClassModel, test_ids) -> np.ndarray:
    """score for precomputed-kernel models, whose test examples are ids."""
    return score(model, test_ids)


def train_scores(model: OneClassModel) -> np.ndarray:
    """Outlier scores of the training examples themselves."""
    dictionary = model.dictionary
    K = CombinedKernel(dictionary.stack, model.weights, dictionary.diags)
    return _decision_scores(model, K.matvec(model.alpha.alpha), K.diag)


def bounded_sv_indices(model: OneClassModel) -> np.ndarray:
    """Support vectors at the upper box bound (alpha_i ~= C)."""
    tau = sv_threshold(model.C)
    return np.flatnonzero(model.alpha.alpha >= model.C - tau)


def model_to_dict(model: OneClassModel) -> dict:
    """JSON-ready model description (alpha over the rows score reads).

    Feature-kernel models also store their support rows' features
    (support_features, in alpha.indices order), so they score without the
    training data; precomputed ones name their training ids (train_ids).
    """
    sv, _ = _support(model)
    train = model.dictionary.train
    out = {
        "kind": model.kind,
        "C": model.C,
        "threshold": model.threshold,
        "self_term": model.self_term,
        "objective": model.alpha.objective,
        "weights": model.weights.tolist(),
        "alpha": {
            "indices": sv.tolist(),
            "values": model.alpha.alpha[sv].tolist(),
            "length": int(model.alpha.alpha.size),
        },
        "kernels": [s.to_dict() for s in model.dictionary.specs],
    }
    if model.dictionary.specs[0].kind == "precomputed":
        out["train_ids"] = train.tolist()
    else:
        out["support_features"] = train[sv].tolist()
    return out


def model_from_dict(raw: dict, matrices=None) -> OneClassModel:
    """Rebuild a stored model over its support rows only.

    The support rows are raw["support_features"] for feature kernels and
    the ids raw["train_ids"][alpha.indices] for precomputed ones, whose
    kernels read matrices (matrix_id -> full matrix, e.g. a loaded
    manifest). The model's alpha runs over those rows, so it scores with
    no training data.
    """
    specs = [KernelSpec.from_dict(s, matrices) for s in raw["kernels"]]
    if specs[0].kind == "precomputed":
        support = np.asarray(raw["train_ids"])[raw["alpha"]["indices"]]
    elif "support_features" in raw:
        support = raw["support_features"]
    else:
        raise ValueError(
            "the model stores no support rows (written before mksvdd kept "
            "them); refit the model to evaluate it"
        )
    alpha = np.asarray(raw["alpha"]["values"], dtype=float)
    if len(support) != alpha.size:
        raise ValueError(
            f"model stores {len(support)} support rows for {alpha.size} support vectors"
        )
    C = float(raw["C"])
    return OneClassModel(
        kind=raw["kind"],
        alpha=AlphaSolution.from_alpha(alpha, float(raw["objective"]), C),
        weights=as_weights(raw["weights"], len(specs)),
        threshold=float(raw["threshold"]),
        self_term=float(raw["self_term"]),
        C=C,
        dictionary=KernelDictionary.from_data(specs, support),
    )

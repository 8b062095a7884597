"""Fitting and scoring of enclosing-ball (SVDD) and one-class SVM models."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Integer, Required, check_json
from .kernels import CombinedKernel, KernelDictionary, KernelSpec, as_weights, combine_blocks
from .qp import AlphaSolution, cold_start, solve_raw, sv_threshold


@dataclass(frozen=True)
class Kind:
    """What sets a one-class dual apart. Each kind solves max_a q'a - a'K_d a
    subject to 0 <= a_i <= C and sum_i a_i = 1, at K_d = sum_m d_m K_m: q
    is diag(K_d) when diag_q (svdd, the enclosing ball), else 0 (ocsvm).
    scale gives the inner optimum J(d) of multiple kernel learning as a
    multiple of the dual optimum; the outer loop descends |scale| times it."""

    diag_q: bool
    scale: float


KINDS = {"svdd": Kind(diag_q=True, scale=1.0), "ocsvm": Kind(diag_q=False, scale=-0.5)}


def _check_kind(kind: str) -> None:
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValueError(f"kind must be one of {tuple(KINDS)}, got {kind!r}")


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


def _inner_solve(kind, dictionary, weights, C, warm_start=None, kkt_tol=1e-6, trace=None):
    """The solution of the one-class dual at K = sum_m d_m K_m for
    validated weights, with the kind's q (see Kind).

    Every fit and every MKL probe solves through here. K is built, as a
    CombinedKernel, only when the memo below cannot serve the solve.

    The dictionary's memo keeps the (C, solution) pairs solved through it
    under (kind, weights, whether the solve is cold, its start, kkt_tol,
    sv_threshold(C)); a cold solve's start is qp.cold_start, which depends
    on C only through its row count m = min(n, max(COLD_START_ROWS,
    ceil(1/C))), so not at all for C >= 1/COLD_START_ROWS. A solution
    stored at C0 serves C when C0 == C, or when its peak, which bounds its
    iterates and every active-set finish system it tested against C,
    stays below min(C, C0) - sv_threshold(C): then no step, snap, receiver
    test, margin test or finish reads either box, so solving at C from the same
    start would repeat it bit for bit, final KKT violation included.
    Otherwise the solve runs and is stored, with its alpha made read-only,
    since every later fit on the dictionary may return it.

    A trace (mkl.MklTrace) given counts the call: one of its memo_hits, or
    one of its solves plus the solve's pair updates, whether the finish
    ended it and its finish systems; either way the solution's violation
    enters max_violation.
    """
    tau = sv_threshold(C)
    cold = warm_start is None
    start = cold_start(dictionary.n_train, C) if cold else np.asarray(warm_start, dtype=float)
    key = (kind, weights.tobytes(), cold, start.tobytes(), kkt_tol, tau)
    stored = dictionary._memo.setdefault(key, [])
    for C0, sol in stored:
        if C0 == C or sol.peak < min(C, C0) - tau:
            if trace is not None:
                trace.memo_hits += 1
                trace.max_violation = max(trace.max_violation, sol.violation)
            if C0 == C:
                return sol
            return AlphaSolution.from_alpha(
                sol.alpha, sol.objective, C, sol.iterations, sol.peak, sol.violation, sol.finished,
                sol.finish_systems,
            )
    K = CombinedKernel(dictionary, weights)
    q = K.diag if KINDS[kind].diag_q else np.zeros(K.n)
    sol = solve_raw(K, q, C, warm_start=warm_start, kkt_tol=kkt_tol)
    sol.alpha.setflags(write=False)
    stored.append((C, sol))
    if trace is not None:
        trace.solves += 1
        trace.pair_updates += sol.iterations
        trace.finishes += sol.finished
        trace.finish_systems += sol.finish_systems
        trace.max_violation = max(trace.max_violation, sol.violation)
    return sol


def fit_one_class(
    kind: str, dictionary: KernelDictionary, d, C: float, kkt_tol: float = 1e-6
) -> OneClassModel:
    """Fit the one-class dual of the given kind at the combined kernel
    sum_m d_m K_m: the minimum enclosing ball for "svdd", the one-class
    SVM (same constraints, zero linear term) for "ocsvm"."""
    _check_kind(kind)
    weights = as_weights(d, dictionary.nk)
    solution = _inner_solve(kind, dictionary, weights, C, kkt_tol=kkt_tol)
    return _model_at(kind, dictionary, weights, C, solution)


def _model_at(kind, dictionary, weights, C, solution) -> OneClassModel:
    """The model of a solve at K = sum_m d_m K_m: its self term
    alpha' K alpha, and its threshold from the training decision values.
    Every fit builds its model here, on the one CombinedKernel the model
    reads."""
    K = CombinedKernel(dictionary, weights)
    Ka = K.matvec(solution.alpha)
    self_term = float(solution.alpha @ Ka)
    train_values = _decision_values(kind, Ka, K.diag, self_term)
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


def _decision_values(kind: str, g: np.ndarray, diag: np.ndarray, self_term: float):
    """OneClassModel's decision values, of training and test rows alike, from
    g(x) = sum_j alpha_j k(x, x_j), k(x, x) and alpha' K alpha."""
    return diag - 2.0 * g + self_term if kind == "svdd" else g


def _decision_scores(model: OneClassModel, g: np.ndarray, diag: np.ndarray):
    """Outlier scores from g(x) = sum_j alpha_j k(x, x_j) and k(x, x)."""
    values = _decision_values(model.kind, g, diag, model.self_term)
    return values - model.threshold if model.kind == "svdd" else model.threshold - values


def _support(model: OneClassModel) -> tuple[np.ndarray, np.ndarray]:
    """Training rows with alpha_j != 0 and kernels with d_m != 0: the only
    terms a decision value has, and all that scoring evaluates."""
    return np.flatnonzero(model.alpha.alpha), np.flatnonzero(model.weights)


def score(model: OneClassModel, X_test) -> np.ndarray:
    """Outlier scores for test examples: positive means outside the boundary.

    X_test is what the model's kernels read: features for rbf and poly
    kernels, example ids (rows of the loaded matrices) for precomputed ones.
    A row's score depends on that row and the model alone, bit for bit,
    not on the rows scored with it; no training Gram row is computed.
    """
    rows, kernels = _support(model)
    weights = model.weights[kernels]
    blocks, diags = model.dictionary.cross(X_test, rows, kernels)
    # sums along each test row, elementwise and by numpy's fixed per-row
    # reduction, not BLAS: a row's score is the same in any batch
    g = np.sum(combine_blocks(blocks, weights) * model.alpha.alpha[rows], axis=1)
    return _decision_scores(model, g, sum(w * diag for w, diag in zip(weights, diags)))


def score_ids(model: OneClassModel, test_ids) -> np.ndarray:
    """score for precomputed-kernel models, whose test examples are ids."""
    return score(model, test_ids)


def train_scores(model: OneClassModel) -> np.ndarray:
    """Outlier scores of the training examples themselves."""
    K = CombinedKernel(model.dictionary, model.weights)
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


# A stored model (model_to_dict) and model.json, which holds one, as
# data.check_json forms; the file's train_source is a record only
MODEL = {
    "kind": Required(str), "C": Required(float), "threshold": Required(float),
    "self_term": Required(float), "objective": Required(float), "weights": Required([float]),
    "alpha": Required({"indices": Required([Integer(0)]), "values": Required([float]),
                       "length": Integer(1)}),
    "kernels": Required([{"kind": Required(str), "bandwidth": float, "degree": Integer(1),
                          "matrix_id": str}]),
    "train_ids": [Integer(0)], "support_features": [[float]],
}
MODEL_FILE = {"method": Required(str), "lambda": float, "model": Required(MODEL),
              "train_source": object, "version": str}


def model_from_dict(raw: dict, matrices=None) -> OneClassModel:
    """The stored model raw, checked against MODEL (data.check_json), as
    _rebuild makes it; a key of the wrong form is a ValueError naming it."""
    return _rebuild(check_json(raw, MODEL, "model"), matrices)


def _rebuild(raw: dict, matrices=None) -> OneClassModel:
    """Rebuild a stored model of the form MODEL over its support rows only.

    The support rows are raw["support_features"] for feature kernels and
    the ids raw["train_ids"][alpha.indices] for precomputed ones, whose
    kernels read matrices (matrix_id -> full matrix, e.g. a loaded
    manifest). The model's alpha runs over those rows, so it scores with
    no training data.
    """
    if not raw["kernels"]:
        raise ValueError("kernels must name at least one kernel")
    specs = [KernelSpec.from_dict(s, matrices) for s in raw["kernels"]]
    if specs[0].kind == "precomputed":
        ids = np.array(raw.get("train_ids", []), dtype=int)
        rows = np.array(raw["alpha"]["indices"], dtype=int)
        if rows.max(initial=-1) >= ids.size:
            raise ValueError(f"alpha.indices must hold rows of train_ids, got {rows.tolist()}")
        support = ids[rows]
    elif "support_features" in raw:
        support = np.array(raw["support_features"], dtype=float)
    else:
        raise ValueError(
            "the model stores no support rows (written before mksvdd kept "
            "them); refit the model to evaluate it"
        )
    alpha = np.array(raw["alpha"]["values"], dtype=float)
    if len(support) != alpha.size:
        raise ValueError(
            f"model stores {len(support)} support rows for {alpha.size} support vectors"
        )
    return OneClassModel(
        kind=raw["kind"],
        alpha=AlphaSolution.from_alpha(alpha, float(raw["objective"]), float(raw["C"])),
        weights=as_weights(np.array(raw["weights"], dtype=float), len(specs)),
        threshold=float(raw["threshold"]),
        self_term=float(raw["self_term"]),
        C=float(raw["C"]),
        dictionary=KernelDictionary.from_data(specs, support),
    )

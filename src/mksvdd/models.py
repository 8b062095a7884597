"""Fitting and scoring of enclosing-ball (SVDD) and one-class SVM models."""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .data import is_finite_number, json_list, json_object
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
    on C only through whether C * min(n, COLD_START_ROWS) reaches 1. A
    solution stored at C0 serves C when C0 == C, or when its peak stays
    below min(C, C0) - sv_threshold(C): then no step, snap, receiver test
    or margin test reads either box, so solving at C from the same start
    would repeat it bit for bit. Otherwise the solve runs and is stored,
    with its alpha made read-only, since every later fit on the
    dictionary may return it.

    A trace (mkl.MklTrace) given counts the call: one of its memo_hits, or
    one of its solves plus the solve's pair updates.
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
            if C0 == C:
                return sol
            return AlphaSolution.from_alpha(sol.alpha, sol.objective, C, sol.iterations, sol.peak)
    K = CombinedKernel(dictionary, weights)
    q = K.diag if KINDS[kind].diag_q else np.zeros(K.n)
    sol = solve_raw(K, q, C, warm_start=warm_start, kkt_tol=kkt_tol)
    sol.alpha.setflags(write=False)
    stored.append((C, sol))
    if trace is not None:
        trace.solves += 1
        trace.pair_updates += sol.iterations
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


def _stored_specs(raw: dict, matrices=None) -> list[KernelSpec]:
    """The KernelSpecs of a stored model, raw["kernels"]: a nonempty list
    of kernel objects (see model_from_dict)."""
    kernels = json_list(raw["kernels"], "kernels")
    if not kernels:
        raise ValueError("kernels must name at least one kernel")
    return [KernelSpec.from_dict(json_object(s, "a kernels entry"), matrices) for s in kernels]


def _finite(raw: dict, key: str) -> float:
    """raw[key], which must be a finite number, as a float."""
    if not is_finite_number(raw[key]):
        raise ValueError(f"{key} must be a finite number, got {reprlib.repr(raw[key])}")
    return float(raw[key])


def _numbers(value, name: str) -> np.ndarray:
    """value, which must be a JSON list of numbers, as a float array."""
    if not all(isinstance(v, Real) and not isinstance(v, bool) for v in json_list(value, name)):
        raise ValueError(f"{name} must be a JSON list of numbers, got {reprlib.repr(value)}")
    return np.array(value, dtype=float)


def model_from_dict(raw: dict, matrices=None) -> OneClassModel:
    """Rebuild a stored model over its support rows only.

    The support rows are raw["support_features"] for feature kernels and
    the ids raw["train_ids"][alpha.indices] for precomputed ones, whose
    kernels read matrices (matrix_id -> full matrix, e.g. a loaded
    manifest). The model's alpha runs over those rows, so it scores with
    no training data. A field of the wrong JSON type is a ValueError
    naming its key.
    """
    specs = _stored_specs(raw, matrices)
    packed = json_object(raw["alpha"], "alpha")
    if specs[0].kind == "precomputed":
        ids = json_list(raw["train_ids"], "train_ids")
        rows = json_list(packed["indices"], "alpha.indices")
        if not all(isinstance(i, int) and not isinstance(i, bool) and 0 <= i < len(ids) for i in rows):
            raise ValueError(f"alpha.indices must hold rows of train_ids, got {reprlib.repr(rows)}")
        support = np.asarray(ids)[rows]
    elif "support_features" in raw:
        rows = json_list(raw["support_features"], "support_features")
        support = np.array([_numbers(row, "each support_features row") for row in rows])
    else:
        raise ValueError(
            "the model stores no support rows (written before mksvdd kept "
            "them); refit the model to evaluate it"
        )
    alpha = _numbers(packed["values"], "alpha.values")
    if len(support) != alpha.size:
        raise ValueError(
            f"model stores {len(support)} support rows for {alpha.size} support vectors"
        )
    C = _finite(raw, "C")
    return OneClassModel(
        kind=raw["kind"],
        alpha=AlphaSolution.from_alpha(alpha, _finite(raw, "objective"), C),
        weights=as_weights(_numbers(raw["weights"], "weights"), len(specs)),
        threshold=_finite(raw, "threshold"),
        self_term=_finite(raw, "self_term"),
        C=C,
        dictionary=KernelDictionary.from_data(specs, support),
    )

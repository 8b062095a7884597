"""Pairwise (SMO-style) solver for the shared one-class dual problem.

Solves  min_alpha  alpha' K alpha - q' alpha
        s.t.       sum(alpha) = 1,  0 <= alpha_i <= C

which covers both model families: q = diag(K) for the enclosing-ball dual
and q = 0 for the one-class hyperplane dual. The reported objective is the
maximization form q' alpha - alpha' K alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import CombinedKernel, _check_symmetric


class InfeasibleProblemError(ValueError):
    """The box and sum constraints cannot be satisfied simultaneously."""


class ConvergenceError(RuntimeError):
    """Iteration cap reached; carries the best iterate as .solution."""

    def __init__(self, message: str, solution: "AlphaSolution"):
        super().__init__(message)
        self.solution = solution


def sv_threshold(C: float) -> float:
    """Numerical support-vector membership threshold, scale-relative in C."""
    return 1e-7 * max(1.0, C)


@dataclass(frozen=True)
class QpProblem:
    """One instance of the dual problem."""

    K: np.ndarray
    q: np.ndarray
    C: float

    def __post_init__(self) -> None:
        K = np.asarray(getattr(self.K, "values", self.K), dtype=float)
        q = np.asarray(self.q, dtype=float)
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise ValueError("K must be square")
        if q.shape != (K.shape[0],):
            raise ValueError("q length must match K")
        _check_symmetric(K, tol=1e-8)
        if self.C <= 0:
            raise ValueError("C must be positive")
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class AlphaSolution:
    """Dual variables with the objective and support-vector index sets.

    peak is the largest alpha_i any iterate of the solve held, its start and
    its end included (inf when unknown). A solve whose peak stays below C by
    more than sv_threshold(C) never read the box's upper bound, so the solve
    memo of models._inner_solve reuses it at any such C.
    """

    alpha: np.ndarray
    objective: float
    sv_indices: np.ndarray
    margin_sv_indices: np.ndarray
    iterations: int = 0
    peak: float = np.inf

    @classmethod
    def from_alpha(
        cls, alpha, objective, C: float, iterations: int = 0, peak: float = np.inf
    ) -> "AlphaSolution":
        """Solution with its support vectors (alpha above sv_threshold(C))
        and margin support vectors (also below C by that threshold)."""
        tau = sv_threshold(C)
        sv = alpha > tau
        margin = sv & (alpha < C - tau)
        return cls(
            alpha, objective, np.flatnonzero(sv), np.flatnonzero(margin), iterations, peak
        )

    @property
    def card(self) -> int:
        """Number of support vectors."""
        return int(self.sv_indices.size)


def _is_feasible(a: np.ndarray, C: float) -> bool:
    return bool((a >= 0.0).all() and (a <= C).all() and abs(a.sum() - 1.0) <= 1e-9)


def project_to_feasible(alpha, C: float) -> np.ndarray:
    """Euclidean projection onto {0 <= a <= C, sum(a) = 1} by bisection."""
    a = np.asarray(alpha, dtype=float)
    n = a.size
    if C * n < 1.0 - 1e-12:
        raise InfeasibleProblemError(f"C*ell = {C * n:g} < 1")
    if _is_feasible(a, C):
        return _finalize_alpha(a.copy(), C)
    lo = a.min() - 1.0
    hi = a.max()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        total = np.clip(a - mid, 0.0, C).sum()
        if total > 1.0:
            lo = mid
        else:
            hi = mid
    out = np.clip(a - hi, 0.0, C)
    total = out.sum()
    if total <= 0.0:
        return np.full(n, min(C, 1.0 / n))
    # absorb the bisection residual into coordinates with slack
    deficit = 1.0 - total
    room = (C - out) if deficit > 0 else out
    movable = room > 0
    if movable.any():
        out[movable] += deficit * room[movable] / room[movable].sum()
    return np.clip(out, 0.0, C)


def _finalize_alpha(alpha: np.ndarray, C: float) -> np.ndarray:
    """Snap the iterate exactly onto the box and sum constraints."""
    out = np.clip(alpha, 0.0, C)
    residual = out.sum() - 1.0
    if residual != 0.0:
        interior = np.where((out > 0.0) & (out < C))[0]
        order = interior[np.argsort(-out[interior], kind="stable")]
        for idx in order:
            take = np.clip(out[idx] - residual, 0.0, C) - out[idx]
            out[idx] += take
            residual += take
            if residual == 0.0:
                break
    return out


def solve_raw(
    K: CombinedKernel,
    q: np.ndarray,
    C: float,
    warm_start=None,
    kkt_tol: float = 1e-6,
    max_iter: int | None = None,
) -> AlphaSolution:
    """Pairwise solver on pre-validated inputs, reading K (symmetric PSD
    assumed) through its diagonal, the rows of the pairs it updates and
    K @ alpha at the start and the end. The solution's peak is the largest
    alpha_i of any iterate.

    The pair update does its scalar work on Python floats. The receiver
    (alpha_i < C) and donor (alpha_j > 0) sets are kept as +-inf bounds that
    only i and j rewrite, and grad += 2 (row_i delta_i + row_j delta_j) runs
    through two preallocated buffers in that order: every IEEE operation, so
    every result bit, is that of the same update on whole numpy arrays."""
    n = q.size
    if not math.isfinite(C):
        raise ValueError(f"C must be finite, got {C!r}")
    C = float(C)
    if not (math.isfinite(kkt_tol) and kkt_tol >= 0.0):
        raise ValueError(f"kkt_tol must be a finite nonnegative number, got {kkt_tol!r}")
    if C * n < 1.0 - 1e-12:
        raise InfeasibleProblemError(
            f"infeasible problem: C*ell = {C * n:g} < 1"
        )
    if warm_start is not None:
        warm = np.asarray(warm_start, dtype=float)
        if warm.shape != (n,):
            raise ValueError("warm start length must match the problem size")
        alpha = project_to_feasible(warm, C)
        # projecting an infeasible start clips at C, whatever its result
        peak = alpha.max() if _is_feasible(warm, C) else np.inf
    else:
        alpha = np.full(n, min(1.0 / n, C))
        alpha = _finalize_alpha(alpha, C)
        peak = alpha.max()

    grad = 2.0 * K.matvec(alpha) - q
    if not np.isfinite(grad).all():
        raise ValueError("the gradient 2 K alpha - q is not finite at the start")
    cap = max_iter if max_iter is not None else 10_000 * n

    # grad masked to the receivers (inf elsewhere) is max(grad, floor) and
    # to the donors (-inf elsewhere) min(grad, ceiling): exact, no rounding
    floor = np.where(alpha < C, -np.inf, np.inf)
    ceiling = np.where(alpha > 0.0, np.inf, -np.inf)
    receiver_grad, donor_grad = np.empty(n), np.empty(n)
    change_i, change_j = np.empty(n), np.empty(n)
    a = alpha.tolist()  # alpha as Python floats until the loop ends
    diag = K.diag.tolist()

    iterations = 0
    converged = n == 1
    while iterations < cap and not converged:
        np.maximum(grad, floor, out=receiver_grad)
        np.minimum(grad, ceiling, out=donor_grad)
        i = int(receiver_grad.argmin())
        j = int(donor_grad.argmax())
        grad_i = receiver_grad.item(i)
        if grad_i == math.inf:
            converged = True  # every alpha at the upper bound
            break
        violation = donor_grad.item(j) - grad_i
        if violation < kkt_tol:
            converged = True
            break

        row_i, row_j = K.row(i), K.row(j)
        quad = diag[i] + diag[j] - 2.0 * row_i.item(j)
        alpha_i, alpha_j = a[i], a[j]
        room_i = C - alpha_i
        room_j = alpha_j
        if quad > 0.0:
            step = min(violation / (2.0 * quad), room_i, room_j)
        else:
            step = min(room_i, room_j)
        # snap exactly onto whichever bound binds
        if step >= room_i:
            new_i = C
        else:
            new_i = alpha_i + step
        if step >= room_j:
            new_j = 0.0
        else:
            new_j = alpha_j - step
        delta_i = new_i - alpha_i
        delta_j = new_j - alpha_j
        a[i] = new_i
        a[j] = new_j
        if new_i > peak:
            peak = new_i
        # i and j are the only entries whose set membership can change
        floor[i] = -math.inf if new_i < C else math.inf
        floor[j] = -math.inf if new_j < C else math.inf
        ceiling[i] = math.inf if new_i > 0.0 else -math.inf
        ceiling[j] = math.inf if new_j > 0.0 else -math.inf
        np.multiply(row_i, delta_i, out=change_i)
        np.multiply(row_j, delta_j, out=change_j)
        change_i += change_j
        change_i *= 2.0
        grad += change_i
        iterations += 1

    alpha = _finalize_alpha(np.array(a), C)
    objective = float(q @ alpha - alpha @ K.matvec(alpha))
    peak = float(max(peak, alpha.max()))
    solution = AlphaSolution.from_alpha(alpha, objective, C, iterations, peak)
    if not converged:
        raise ConvergenceError(
            f"pair-update cap reached ({cap} iterations)", solution
        )
    return solution


def solve(
    problem: QpProblem,
    warm_start=None,
    kkt_tol: float = 1e-6,
    max_iter: int | None = None,
) -> AlphaSolution:
    """Solve the dual by maximal-violating-pair updates.

    Each step picks the donor j = argmax grad over {alpha_j > 0} and the
    receiver i = argmin grad over {alpha_i < C} (grad of the minimization
    form; ties resolved to the lowest index), then minimizes the objective
    exactly on the segment alpha_i + alpha_j = const clipped to the box.
    Terminates when the maximal violation grad_j - grad_i < kkt_tol.

    Deterministic: fixed uniform initialization (or the given warm start
    projected to feasibility) and index-order tie-breaking. K is read as
    the one-kernel case of CombinedKernel, as every fit reads its K_d.
    """
    return solve_raw(
        CombinedKernel(problem.K[None], np.ones(1), np.diag(problem.K)[None]),
        problem.q,
        problem.C,
        warm_start=warm_start,
        kkt_tol=kkt_tol,
        max_iter=max_iter,
    )

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

from .kernels import CombinedKernel, KernelDictionary, KernelSpec, _check_symmetric

# a cold solve starts with its weight on the first COLD_START_ROWS rows,
# or on the first ceil(1/C) when C is smaller than 1/COLD_START_ROWS (see
# cold_start)
COLD_START_ROWS = 24
# a solve tries its active-set finish after FINISH_AFTER pair updates in a
# row that move no alpha onto or off a bound, and after each failed try
# waits twice as long as before (see solve_raw)
FINISH_AFTER = 10
# a try of the finish solves at most FINISH_STEPS systems, and each repair
# of a candidate inside the box admits at most FINISH_ADMIT violating rows
# to the free set (see _finish)
FINISH_STEPS = 30
FINISH_ADMIT = 4


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
    its end included, and the largest weight of every active-set finish
    system it tested against C: each one whose weights were all finite and
    positive (inf when unknown). A system with a weight <= 0 is repaired
    without reading C, so it need not enter peak. A solve whose peak stays
    below C by more than sv_threshold(C) never read the box's upper bound,
    so the solve memo of models._inner_solve reuses it at any such C.

    violation is the solve's final KKT violation, the largest gradient of
    a donor (alpha_j > 0) less the smallest of a receiver (alpha_i < C),
    0 when no alpha can move (nan when unknown); finished says whether the
    active-set finish ended the solve, and finish_systems counts the KKT
    systems its finish tries solved (see solve_raw).
    """

    alpha: np.ndarray
    objective: float
    sv_indices: np.ndarray
    margin_sv_indices: np.ndarray
    iterations: int = 0
    peak: float = np.inf
    violation: float = np.nan
    finished: bool = False
    finish_systems: int = 0

    @classmethod
    def from_alpha(
        cls,
        alpha,
        objective,
        C: float,
        iterations: int = 0,
        peak: float = np.inf,
        violation: float = np.nan,
        finished: bool = False,
        finish_systems: int = 0,
    ) -> "AlphaSolution":
        """Solution with its support vectors (alpha above sv_threshold(C))
        and margin support vectors (also below C by that threshold)."""
        tau = sv_threshold(C)
        sv = alpha > tau
        margin = sv & (alpha < C - tau)
        return cls(
            alpha, objective, np.flatnonzero(sv), np.flatnonzero(margin), iterations, peak,
            violation, finished, finish_systems,
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


def cold_start(n: int, C: float) -> np.ndarray:
    """The start of a solve given no warm start: alpha_i = min(1/m, C) on
    the first m = min(n, max(COLD_START_ROWS, ceil(1/C))) rows and 0
    elsewhere, so at most m rows, not n, start as donors the pair updates
    must drain, and only their Gram rows are computed. For every
    C >= 1/COLD_START_ROWS the start does not depend on C; a smaller C
    starts on the fewest rows that can hold its weight (one row more
    where 1/C rounds down onto an integer), and for n <= m the start is
    uniform. C must be finite and positive."""
    if not (math.isfinite(C) and C > 0.0):
        raise ValueError(f"C must be finite and positive, got {C!r}")
    m = min(n, max(COLD_START_ROWS, math.ceil(1.0 / C)))
    if C * m < 1.0:
        m = min(n, m + 1)
    alpha = np.zeros(n)
    alpha[:m] = min(1.0 / m, C)
    return _finalize_alpha(alpha, C)


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


def _active_set_solve(K: CombinedKernel, q: np.ndarray, C: float, free, bounded):
    """The free weights a_F and level rho at which the active set (rows
    free strictly inside the box, rows bounded at C, every other row at 0)
    is stationary on its face: the solution of the KKT system

        [2 K_FF, -1; 1', 0] [a_F; rho] = [q_F - 2 C K_FB 1; 1 - C |B|],

    read from the free rows of K. None when the system is singular."""
    f = free.size
    rows = K.rows(free)
    system = np.zeros((f + 1, f + 1))
    system[:f, :f] = 2.0 * rows[:, free]
    system[:f, f] = -1.0
    system[f, :f] = 1.0
    rhs = np.empty(f + 1)
    rhs[:f] = q[free] - 2.0 * C * rows[:, bounded].sum(axis=1)
    rhs[f] = 1.0 - C * bounded.size
    try:
        x = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        return None
    return x[:f], x[f]


def _finish(K: CombinedKernel, q: np.ndarray, C: float, alpha: np.ndarray, kkt_tol: float):
    """A try of solve_raw's active-set finish from the iterate alpha, which
    it overwrites: the largest weight of the systems it tested against C
    (-inf when none), the finished alpha (None when the try fails), its KKT
    violation and the number of systems it solved.

    The try starts from alpha's active set, the free rows F (0 < alpha < C)
    and the bounded rows B (alpha = C), and repairs it over at most
    FINISH_STEPS systems, each _active_set_solve(F, B):
    - an (F, B) the try has solved before: each step depends on (F, B)
      alone, so the try would repeat its cycle, and fails at once;
    - no system (singular, or weights not finite): the try fails;
    - a weight <= 0: those rows leave F for 0, and the try solves again;
      this test does not read C;
    - otherwise the weights have been tested against C, and their largest
      enters the result's top; rows with a weight >= C leave F for B, and
      the try solves again;
    - otherwise the candidate lies inside the box, and its gradient
      2 K alpha - q is formed afresh over all n rows (the steps above form
      no n-vector). Its KKT violation below kkt_tol accepts it. Otherwise the
      FINISH_ADMIT rows that violate most, at 0 with a gradient below rho
      or at C with one above it, join F, and the try solves again.
    B holds only rows at C in alpha or whose weight entered top, so a solve
    whose peak stays below C reads C nowhere in its tries."""
    free = np.flatnonzero((alpha > 0.0) & (alpha < C))
    bounded = np.flatnonzero(alpha == C)
    top = -math.inf
    seen = set()
    for systems in range(1, FINISH_STEPS + 1):
        state = (free.tobytes(), bounded.tobytes())
        if state in seen:
            return top, None, math.nan, systems - 1
        seen.add(state)
        system = _active_set_solve(K, q, C, free, bounded)
        if system is None or not np.isfinite(system[0]).all():
            break
        a_free, rho = system
        low = a_free <= 0.0
        if low.any():
            free = free[~low]
            continue
        top = max(top, a_free.max())
        high = a_free >= C
        if high.any():
            bounded = np.sort(np.concatenate([bounded, free[high]]))
            free = free[~high]
            continue
        alpha[:] = 0.0
        alpha[bounded] = C
        alpha[free] = a_free
        grad = 2.0 * K.matvec(alpha) - q
        violation = grad[alpha > 0.0].max() - grad[alpha < C].min()
        if violation < kkt_tol:
            return top, alpha, violation, systems
        excess = np.where(alpha == 0.0, rho - grad, grad - rho)
        excess[free] = 0.0
        violating = np.flatnonzero(excess > 0.0)
        if not violating.size:
            break
        admit = violating[np.argsort(-excess[violating], kind="stable")[:FINISH_ADMIT]]
        free = np.sort(np.concatenate([free, admit]))
        bounded = bounded[(bounded[:, None] != admit).all(axis=1)]
    return top, None, math.nan, systems


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
    K @ alpha at the start and the end. With no warm start it starts at
    cold_start(n, C), whose K @ alpha reads only the start rows unless the
    start is uniform. The solution's peak is the largest alpha_i of any
    iterate or finish system tested against C.

    The pair update does its scalar work on Python floats. The gradient is
    kept only masked to the receivers (alpha_i < C) and to the donors
    (alpha_j > 0), +-inf outside its set; only i and j change set, and the
    change 2 (row_i delta_i + row_j delta_j) is formed in two preallocated
    buffers in that order and added to both: every IEEE operation, so
    every result bit, is that of the same update on whole numpy arrays.

    The active-set finish: a try of _finish solves the KKT system of the
    free rows with the bounded ones held at C, repairs that active set
    while the result leaves the box or violates KKT elsewhere, and ends the
    solve exactly at a point strictly inside the box that meets kkt_tol
    over all n rows. A warm-started solve tries it once at its start,
    before any pair update (unless max_iter is 0), and every solve tries
    it after FINISH_AFTER pair updates in a row that move no alpha onto or
    off 0 or C. A failed try leaves the iterate as it was, and the next
    one waits twice as many such updates."""
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
        alpha = cold_start(n, C)
        peak = alpha.max()

    grad = 2.0 * K.matvec(alpha) - q
    if not np.isfinite(grad).all():
        raise ValueError("the gradient 2 K alpha - q is not finite at the start")
    cap = max_iter if max_iter is not None else 10_000 * n

    # grad masked to the receivers (inf elsewhere) and to the donors (-inf
    # elsewhere): the loop's state. Every entry is in one set at least, so
    # grad_k is in receiver_grad or donor_grad, and an update's change added
    # to both leaves each masked entry infinite.
    receiver_grad = np.where(alpha < C, grad, np.inf)
    donor_grad = np.where(alpha > 0.0, grad, -np.inf)
    change_i, change_j = np.empty(n), np.empty(n)
    a = alpha.tolist()  # alpha as Python floats until the loop ends
    diag = K.diag.tolist()
    views = K._views  # the rows K has computed, None for the others; rows never move

    iterations = 0
    converged = n == 1
    violation = 0.0
    finished = None  # the finish's alpha, once a try is accepted
    systems = 0  # the KKT systems the finish tries solved
    settled, wait = 0, FINISH_AFTER  # updates in a row with no bound change
    if warm_start is not None and cap > 0 and not converged:
        top, finished, finish_violation, systems = _finish(K, q, C, alpha.copy(), kkt_tol)
        peak = max(peak, top)
        if finished is not None:
            converged, violation = True, finish_violation
    while iterations < cap and not converged:
        i = int(receiver_grad.argmin())
        j = int(donor_grad.argmax())
        grad_i = receiver_grad.item(i)
        if grad_i == math.inf:
            converged = True  # every alpha at the upper bound
            violation = 0.0
            break
        violation = donor_grad.item(j) - grad_i
        if violation < kkt_tol:
            converged = True
            break

        # a donor has alpha_j > 0, so the start's matvec or an update as receiver computed its row
        row_i, row_j = views[i], views[j]
        if row_i is None:
            row_i = K.row(i)
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
        np.multiply(row_i, delta_i, out=change_i)
        np.multiply(row_j, delta_j, out=change_j)
        change_i += change_j
        change_i *= 2.0
        receiver_grad += change_i
        donor_grad += change_i
        # i was a receiver and j a donor, so these hold grad_i and grad_j;
        # i and j are the only entries whose set membership can change
        grad_i, grad_j = receiver_grad.item(i), donor_grad.item(j)
        receiver_grad[i] = grad_i if new_i < C else math.inf
        donor_grad[i] = grad_i if new_i > 0.0 else -math.inf
        receiver_grad[j] = grad_j if new_j < C else math.inf
        donor_grad[j] = grad_j if new_j > 0.0 else -math.inf
        iterations += 1

        if alpha_i == 0.0 or new_i == C or alpha_j == C or new_j == 0.0:
            settled = 0  # the update moved an alpha onto or off a bound
            continue
        settled += 1
        if settled == wait:
            settled, wait = 0, 2 * wait
            top, finished, finish_violation, steps = _finish(K, q, C, np.array(a), kkt_tol)
            peak = max(peak, top)
            systems += steps
            if finished is not None:
                converged, violation = True, finish_violation

    if not converged:
        violation = donor_grad.max() - receiver_grad.min()
    alpha = _finalize_alpha(np.array(a) if finished is None else finished, C)
    objective = float(q @ alpha - alpha @ K.matvec(alpha))
    peak = float(max(peak, alpha.max()))
    solution = AlphaSolution.from_alpha(
        alpha, objective, C, iterations, peak, float(violation), finished is not None, systems
    )
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
    Terminates when the maximal violation grad_j - grad_i < kkt_tol, or
    earlier at the exact optimum of a settled active set (see solve_raw).

    Deterministic: a fixed start (cold_start when none is given, else the
    given warm start projected to feasibility) and index-order
    tie-breaking. K is read as a one-kernel precomputed dictionary's
    CombinedKernel, row by row on first use, as every fit reads its K_d;
    its spec takes K without KernelSpec's checks, which QpProblem made.
    """
    spec = KernelSpec.precomputed("K")
    object.__setattr__(spec, "matrix", problem.K)
    K = KernelDictionary((spec,), np.arange(len(problem.q)))
    return solve_raw(
        CombinedKernel(K, np.ones(1)),
        problem.q,
        problem.C,
        warm_start=warm_start,
        kkt_tol=kkt_tol,
        max_iter=max_iter,
    )

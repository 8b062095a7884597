"""Multiple kernel learning: reduced-gradient descent on simplex weights.

Every method, one-kernel ones included, fits through fit_mkl. Its outer
loop descends the inner one-class optimum over convex kernel combinations,
re-solving the dual at every probe; models.KINDS states how the two kinds'
duals and optima differ. The slim variant subtracts lambda * card(alpha)
from the objective used in line-search and acceptance comparisons,
rewarding solutions with more support vectors; the penalty is removed
again for the duality-gap stopping test.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .data import as_integer, is_finite_number
from .kernels import KernelDictionary, as_weights
from .models import KINDS, OneClassModel, _check_kind, _inner_solve, _model_at
from .qp import AlphaSolution

# line search: each probe shrinks the step by LS_SHRINK, at most
# LS_MAX_PROBES probes per outer iteration. The cap is a step-length
# tolerance: the search gives up once the step would fall below
# LS_SHRINK**9 (about 1/512) of the largest feasible step. 10 probes
# because every fit on the (C, lambda) grids of the acceptance tests that
# reaches the duality gap accepts each of its steps within 10 probes, so
# it keeps its bits; the fits that need more are slim fits whose penalty
# admits only steps short enough to keep card fixed, which crawl until
# the line search fails. When the longest step fails, the shortest is
# tried next, and a search whose shortest step fails too ends there (see
# fit_mkl), so such a search solves 2 probes, not 10.
LS_SHRINK = 0.5
LS_MAX_PROBES = 10


@dataclass(frozen=True)
class MklConfig:
    """Hyperparameters of one multiple-kernel fit. C and lam are stored
    as floats, max_outer_iters as an int (see data.as_integer)."""

    C: float
    lam: float = 0.0
    gap_tol: float = 1e-4
    max_outer_iters: int = 500

    def __post_init__(self) -> None:
        if not (is_finite_number(self.C) and self.C > 0):
            raise ValueError(f"C must be a finite positive number, got {self.C!r}")
        if not (is_finite_number(self.lam) and self.lam >= 0):
            raise ValueError(f"lambda must be a finite nonnegative number, got {self.lam!r}")
        if not (is_finite_number(self.gap_tol) and self.gap_tol >= 0):
            raise ValueError(f"gap_tol must be a finite nonnegative number, got {self.gap_tol!r}")
        iters = as_integer("max_outer_iters", self.max_outer_iters, 1)
        object.__setattr__(self, "max_outer_iters", iters)
        object.__setattr__(self, "C", float(self.C))
        object.__setattr__(self, "lam", float(self.lam))


def check_options(options: dict) -> dict:
    """The options a fit passes to MklConfig besides C and lam: a
    ValueError for a name that is not one of its other fields or a value
    it rejects (C=1 is a placeholder: each fit supplies its own)."""
    unknown = set(options) - ({f.name for f in fields(MklConfig)} - {"C", "lam"})
    if unknown:
        raise ValueError(f"unknown mkl options: {sorted(unknown)}")
    MklConfig(C=1.0, **options)
    return options


@dataclass(frozen=True)
class MklStep:
    iteration: int
    weights: np.ndarray
    objective: float
    card: int
    gap: float
    step_size: float


@dataclass(frozen=True)
class MklProbe:
    """One line-search probe: the working objective and card at the current
    weights and at the tried ones, and whether the try was accepted. A
    search that fails lists its longest step and then its shortest, the
    screen that ended it; any other search lists its steps in the order
    of the halving, from the longest to the accepted one."""

    work: float
    card: int
    work_try: float
    card_try: int
    accepted: bool


@dataclass
class MklTrace:
    """Per-iteration diagnostics of one outer run.

    objective holds the value the loop descends (J for svdd, -J for
    ocsvm; see models.Kind), non-increasing over accepted steps at lam = 0.
    config is the configuration of the run and probes its line-search
    probes in order (see MklProbe). solves counts the inner solves the run
    ran and memo_hits those the dictionary's memo served (see
    models._inner_solve); pair_updates sums the pair updates of the
    solves it ran, so a memo hit adds none, finishes counts the solves it
    ran that the active-set finish ended, and finish_systems sums the KKT
    systems their finish tries solved, a memo hit again adding none (see
    qp.solve_raw).
    max_violation is the largest final KKT violation of the solutions its
    inner solves returned, memo hits included.
    """

    kind: str
    config: MklConfig
    steps: list[MklStep] = field(default_factory=list)
    probes: list[MklProbe] = field(default_factory=list)
    converged: bool = False
    message: str = ""
    solves: int = 0
    memo_hits: int = 0
    pair_updates: int = 0
    finishes: int = 0
    finish_systems: int = 0
    max_violation: float = 0.0

    def table(self) -> tuple[list[str], list[list]]:
        """Header and rows of the trace: iteration, objective, gap, card,
        step_size, then one weight column per kernel."""
        nk = self.steps[0].weights.size if self.steps else 0
        header = ["iteration", "objective", "gap", "card", "step_size"] + [
            f"d{m}" for m in range(nk)
        ]
        rows = [
            [s.iteration, float(s.objective), float(s.gap), s.card, float(s.step_size)]
            + [float(w) for w in s.weights]
            for s in self.steps
        ]
        return header, rows


def _optimum_gradient(dictionary: KernelDictionary, solution: AlphaSolution, kind: str):
    """Partial derivatives of the dual optimum q'a - a'K_d a per kernel,
    holding alpha fixed: diag_m . a - a'K_m a when q is the combined
    diagonal, else -a'K_m a; computed on the support-vector block, the
    only Gram rows it reads. Returned with that block's diagonals,
    (nk, card).

    The blocks of all kernels are gathered at once, and each kernel's
    block and diagonal is then copied to an array of its own: BLAS sums
    over views into the shared gather can round differently."""
    if solution.alpha.size != dictionary.n_train:
        raise ValueError(
            f"alpha length {solution.alpha.size} does not match "
            f"dictionary size {dictionary.n_train}"
        )
    idx = solution.sv_indices
    a = solution.alpha[idx]
    diag_q = KINDS[kind].diag_q
    blocks, diags = dictionary.block(idx)
    grad = np.empty(dictionary.nk)
    for m in range(dictionary.nk):
        lin = float(diags[m].copy() @ a) if diag_q else 0.0
        grad[m] = lin - float(a @ (blocks[m].copy() @ a))
    return grad, diags


def mkl_objective(
    dictionary: KernelDictionary,
    d,
    C: float,
    kind: str = "svdd",
    warm_start=None,
    kkt_tol: float = 1e-6,
) -> tuple[float, AlphaSolution]:
    """Inner optimum J(d) at the combined kernel, the kind's scale times
    the dual optimum (see models.Kind), plus the solving alpha.

    svdd: J(d) = sum_i a_i K_d(i,i) - a' K_d a (the dual maximum).
    ocsvm: J(d) = 1/2 a' K_d a at the dual minimizer.
    """
    _check_kind(kind)
    weights = as_weights(d, dictionary.nk)
    solution = _inner_solve(kind, dictionary, weights, C, warm_start, kkt_tol)
    return KINDS[kind].scale * solution.objective, solution


def mkl_gradient(
    dictionary: KernelDictionary, solution: AlphaSolution, kind: str = "svdd"
) -> np.ndarray:
    """Partial derivatives of J(d) per kernel, holding alpha fixed.

    svdd: dJ/dd_m = sum_i a_i k_m(x_i,x_i) - a' K_m a.
    ocsvm: dJ/dd_m = 1/2 a' K_m a.
    """
    _check_kind(kind)
    return KINDS[kind].scale * _optimum_gradient(dictionary, solution, kind)[0]


def duality_gap(
    dictionary: KernelDictionary,
    d,
    solution: AlphaSolution,
    kind: str = "svdd",
    objective: float | None = None,
) -> float:
    """Gap between J(d) and the best single-kernel bound at this alpha.

    Nonnegative, and zero at the multiple-kernel optimum. Computed as
    sum_m d_m (t_m - min_m t_m) for svdd and sum_m d_m (max_m t_m - t_m)
    for ocsvm, where t is the per-kernel gradient vector; both forms are
    exact zeros for nk = 1 and for duplicated kernels. When the matching
    J(d) is supplied it is cross-checked against the recombination to
    catch stale alphas.
    """
    _check_kind(kind)
    weights = as_weights(d, dictionary.nk)
    grad = _optimum_gradient(dictionary, solution, kind)[0]
    scale = KINDS[kind].scale
    if objective is not None:
        recombined = float(weights @ (scale * grad))
        if abs(objective - recombined) > 1e-6 * max(1.0, abs(objective)):
            raise ValueError(
                "objective does not match this alpha and d "
                f"({objective:.6g} vs {recombined:.6g}); stale solution?"
            )
    return _gap(weights, abs(scale) * grad)


def _gap(d: np.ndarray, work_grad: np.ndarray) -> float:
    """sum_m d_m (g_m - min_m g_m) for the gradient g of the descended
    objective, |scale| times the dual optimum (J for svdd, -J for ocsvm)."""
    return float(d @ (work_grad - work_grad.min()))


def _descent_direction(d: np.ndarray, work_grad: np.ndarray) -> np.ndarray:
    """SimpleMKL reduced-gradient direction against the largest weight."""
    pivot = int(np.argmax(d))
    direction = work_grad[pivot] - work_grad
    direction[pivot] = 0.0
    blocked = (d <= 0.0) & (direction < 0.0)
    direction[blocked] = 0.0
    direction[pivot] = -direction.sum()
    return direction


def _step(d: np.ndarray, direction: np.ndarray, gamma: float) -> np.ndarray:
    out = d + gamma * direction
    out[out < 1e-15] = 0.0
    total = out.sum()
    if total <= 0.0:
        raise RuntimeError("degenerate simplex step")
    return out / total


def fit_mkl(
    dictionary: KernelDictionary, config: MklConfig, kind: str = "svdd"
) -> tuple[OneClassModel, MklTrace]:
    """Learn kernel weights and the one-class model jointly.

    Starts from uniform weights; each outer iteration computes the
    gradient of the working objective (|scale| times the dual optimum, see
    models.Kind), checks the duality gap relative to svdd's objective at
    the current alpha, times |scale|, against config.gap_tol,
    forms the reduced gradient against the largest weight, and backtracks
    from the largest feasible step (factor LS_SHRINK, at most LS_MAX_PROBES
    probes) until the penalized objective J_work - lam * card(alpha)
    improves. When no step down to LS_SHRINK**(LS_MAX_PROBES - 1) of the
    largest feasible one improves, the fit stops with converged False and
    the message "line search found no improving step".

    A rejected longest step is screened by the shortest step the halving
    would reach: if that one does not improve either, the search stops
    there, without the probes between. At lam = 0 this skips no improving
    step: J_work is a pointwise maximum of functions linear in d, so convex
    along the ray, and no longer step improves where the shortest does not
    (up to the inner tolerance and _step's clip). At lam > 0 a skipped
    step may improve, when the shortest step loses a support vector that a
    longer one keeps. A screen that improves changes nothing: the search
    goes on from the second step, and a probe that reaches the shortest
    step again reuses the screen's solve through the memo. Inner solves are
    warm-started from the current alpha. Returns the model of the loop's
    last accepted solve, at the final weights, and the iteration trace;
    nothing is solved after the loop. The model equals a direct
    fit_one_class at its weights within the inner KKT tolerance, and bit
    for bit when the fit accepted no step, as every one-kernel fit (its
    first gap is exactly 0), since it keeps its cold first solve. Every
    inner solve goes through the dictionary's memo (see
    models._inner_solve), so a fit reuses the solves of earlier fits on
    the dictionary where solving again would repeat them, which changes
    no bit of the result.
    """
    _check_kind(kind)
    scale = abs(KINDS[kind].scale)
    nk = dictionary.nk
    d = np.full(nk, 1.0 / nk)
    trace = MklTrace(kind=kind, config=config)

    sol = _inner_solve(kind, dictionary, d, config.C, trace=trace)
    work = scale * sol.objective
    penalized = work - config.lam * sol.card
    step_size = 0.0

    def probe(gamma):
        """The line search's try at step gamma from the current d."""
        d_try = _step(d, direction, gamma)
        sol_try = _inner_solve(kind, dictionary, d_try, config.C, sol.alpha, trace=trace)
        work_try = scale * sol_try.objective
        pen_try = work_try - config.lam * sol_try.card
        found = MklProbe(work, sol.card, work_try, sol_try.card, pen_try < penalized)
        return d_try, sol_try, pen_try, found

    for it in range(1, config.max_outer_iters + 1):
        grad, diags = _optimum_gradient(dictionary, sol, kind)
        grad_work = scale * grad
        gap = _gap(d, grad_work)
        trace.steps.append(
            MklStep(it, d.copy(), work, sol.card, gap, step_size)
        )
        # the gap relative to svdd's objective at this alpha, times scale:
        # work itself for svdd, so both kinds stop at the same step when
        # every k(x, x) is 1 (see TestSvddEqualsOcsvmOnRbf)
        size = work
        if not KINDS[kind].diag_q:
            size += scale * float(d @ (diags @ sol.alpha[sol.sv_indices]))
        if gap <= config.gap_tol * max(abs(size), 1e-12):
            trace.converged = True
            trace.message = "duality gap within tolerance"
            break

        direction = _descent_direction(d, grad_work)
        if not np.any(direction != 0.0):
            trace.converged = True
            trace.message = "stationary weights (zero reduced gradient)"
            break

        negative = direction < 0.0
        gamma = float(np.min(d[negative] / -direction[negative]))
        shortest = gamma
        for _ in range(LS_MAX_PROBES - 1):
            shortest *= LS_SHRINK  # the last probe's step, bit for bit
        for k in range(LS_MAX_PROBES):
            d_try, sol_try, pen_try, found = probe(gamma)
            trace.probes.append(found)
            accepted = found.accepted
            if accepted:
                break
            if k == 0 and LS_MAX_PROBES > 1:
                screen = probe(shortest)[-1]
                if not screen.accepted:  # the search ends on the screen
                    trace.probes.append(screen)
                    break
            gamma *= LS_SHRINK
        if not accepted:
            trace.message = "line search found no improving step"
            break
        d, work, sol, penalized = d_try, found.work_try, sol_try, pen_try
        step_size = gamma
    else:
        trace.message = "outer iteration cap reached"

    return _model_at(kind, dictionary, d, config.C, sol), trace


# method name -> (inner kind, multiple kernels, lambda penalty active)
METHOD_FAMILIES = {
    "svdd": ("svdd", False, False),
    "ocsvm": ("ocsvm", False, False),
    "mk-svdd": ("svdd", True, False),
    "mk-ocsvm": ("ocsvm", True, False),
    "slim-mk-svdd": ("svdd", True, True),
    "slim-mk-ocsvm": ("ocsvm", True, True),
}


def fit_method(
    method: str, dictionary: KernelDictionary, C: float, lam: float = 0.0, **mkl_kwargs
) -> tuple[OneClassModel, MklTrace]:
    """Fit any of the six named methods on a prepared dictionary through
    fit_mkl: the model and its trace.

    C, lam and mkl_kwargs are checked through MklConfig for every method.
    Single-kernel methods require a one-entry dictionary; their model is
    fit_one_class's. Non-slim methods ignore lam (forced to 0).

    Fits on one dictionary share their inner solves through its memo
    (see models._inner_solve); every result is bit for bit that of a fit
    on a fresh dictionary.
    """
    if method not in METHOD_FAMILIES:
        raise ValueError(f"unknown method: {method!r}")
    kind, multi, slim = METHOD_FAMILIES[method]
    config = MklConfig(C=C, lam=lam if slim else 0.0, **mkl_kwargs)
    if not multi and dictionary.nk != 1:
        raise ValueError(f"method {method!r} is single-kernel; got {dictionary.nk} kernels")
    return fit_mkl(dictionary, config, kind)

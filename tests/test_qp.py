import math

import numpy as np
import pytest

from mksvdd.kernels import CombinedKernel, GramMatrix, KernelSpec, gram
from mksvdd.qp import (
    COLD_START_ROWS,
    AlphaSolution,
    ConvergenceError,
    InfeasibleProblemError,
    QpProblem,
    _finalize_alpha,
    _is_feasible,
    cold_start,
    project_to_feasible,
    solve,
    solve_raw,
    sv_threshold,
)
from oracles import qp_grid_search, qp_refined_grid_search, random_psd


def feasible(alpha, C, tol=1e-8):
    return (
        abs(alpha.sum() - 1.0) <= tol
        and (alpha >= -1e-12).all()
        and (alpha <= C + 1e-12).all()
    )


class TestProblemValidation:
    def test_infeasible_box(self):
        K = np.eye(3)
        with pytest.raises(InfeasibleProblemError):
            solve(QpProblem(K, np.zeros(3), 0.2))

    def test_non_symmetric_rejected(self):
        K = np.array([[1.0, 0.9], [0.1, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            QpProblem(K, np.zeros(2), 1.0)

    def test_non_finite_K_rejected(self):
        # NaN fails every symmetry comparison; a K holding one must be
        # refused up front, not run to the pair-update cap
        K = np.eye(4)
        K[2, 3] = K[3, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            solve(QpProblem(K, np.ones(4), 0.5), warm_start=np.array([0.5, 0.5, 0.0, 0.0]))
        with pytest.raises(ValueError, match="non-finite"):
            GramMatrix(K)
        K[2, 3] = K[3, 2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            QpProblem(K, np.ones(4), 0.5)

    def test_q_length_checked(self):
        with pytest.raises(ValueError):
            QpProblem(np.eye(3), np.zeros(2), 1.0)

    def test_non_finite_gradient_rejected(self):
        # a NaN gradient must not pass for "every alpha at the upper bound"
        q = np.array([1.0, np.nan, 1.0, 1.0])
        with pytest.raises(ValueError, match="not finite"):
            solve(QpProblem(np.eye(4), q, 0.5))
        with pytest.raises(ValueError, match="not finite"):
            solve(QpProblem(np.eye(4), np.full(4, -np.inf), 0.5))

    @pytest.mark.parametrize("kkt_tol", [np.nan, np.inf, -1e-6])
    def test_kkt_tol_checked(self, kkt_tol):
        with pytest.raises(ValueError, match="kkt_tol"):
            solve(QpProblem(np.eye(4), np.ones(4), 0.5), kkt_tol=kkt_tol)

    def test_iteration_cap_carries_best_iterate(self):
        rng = np.random.default_rng(0)
        K = random_psd(rng, 12)
        problem = QpProblem(K, np.diag(K).copy(), 0.2)
        with pytest.raises(ConvergenceError) as exc_info:
            solve(problem, max_iter=1)
        best = exc_info.value.solution
        assert isinstance(best, AlphaSolution)
        assert feasible(best.alpha, 0.2)


class TestPeak:
    # random_psd(rng(0), 12) with q = 0: an iterate on the way holds a
    # larger alpha_i than the solution does
    def problem(self, C):
        K = random_psd(np.random.default_rng(0), 12)
        return QpProblem(K, np.zeros(12), C)

    def test_peak_bounds_every_iterate(self):
        full = solve(self.problem(1.0))
        highest = 0.0
        for k in range(1, full.iterations):
            with pytest.raises(ConvergenceError) as exc_info:
                solve(self.problem(1.0), max_iter=k)
            highest = max(highest, exc_info.value.solution.alpha.max())
        assert full.alpha.max() < highest <= full.peak + 1e-15

    def test_box_above_the_peak_is_never_read(self):
        full = solve(self.problem(1.0))
        above = solve(self.problem(full.peak + 2 * sv_threshold(1.0)))
        for name in ("alpha", "sv_indices", "margin_sv_indices"):
            assert np.array_equal(getattr(above, name), getattr(full, name))
        assert (above.objective, above.iterations) == (full.objective, full.iterations)
        # between the solution's largest alpha_i and the peak the box binds
        below = solve(self.problem(0.5 * (full.peak + full.alpha.max())))
        assert not np.array_equal(below.alpha, full.alpha)


class TestTrivialInstances:
    def test_single_point(self):
        K = np.array([[2.5]])
        q = np.array([0.7])
        sol = solve(QpProblem(K, q, 2.0))
        assert sol.alpha.tolist() == [1.0]
        assert sol.objective == pytest.approx(-2.5 + 0.7)

    def test_two_point_symmetric(self):
        K = np.eye(2)
        q = np.array([1.0, 1.0])
        sol = solve(QpProblem(K, q, 1.0))
        np.testing.assert_allclose(sol.alpha, [0.5, 0.5], atol=1e-8)
        assert sol.objective == pytest.approx(0.5)

    def test_box_fully_binding(self):
        # C*ell = 1 forces every alpha to C
        K = random_psd(np.random.default_rng(1), 4)
        sol = solve(QpProblem(K, np.zeros(4), 0.25))
        np.testing.assert_allclose(sol.alpha, 0.25, atol=1e-12)


class TestGridOracle:
    # Value computed once with qp_grid_search(K, q, 0.5, step=1e-3) on the
    # instance below (exhaustive enumeration of the feasible grid, ~1.3e8
    # points, 13 s); frozen here so the suite stays fast.
    FOUR_POINT_GRID_VALUE = 0.7395503343067533

    def test_four_point_svdd_instance(self):
        rng = np.random.default_rng(2024)
        K = random_psd(rng, 4)
        q = np.diag(K).copy()
        sol = solve(QpProblem(K, q, 0.5), kkt_tol=1e-8)
        assert sol.objective == pytest.approx(self.FOUR_POINT_GRID_VALUE, abs=1e-4)
        # the solver may only beat a grid-restricted search
        assert sol.objective >= self.FOUR_POINT_GRID_VALUE - 1e-9

    def test_small_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            C = float(rng.choice([0.5, 0.8, 2.0]))
            if C * n < 1.0:
                continue
            K = random_psd(rng, n)
            q = np.diag(K).copy() if rng.random() < 0.5 else np.zeros(n)
            sol = solve(QpProblem(K, q, C), kkt_tol=1e-8)
            oracle_val, _ = qp_grid_search(K, q, C, step=2e-3)
            assert sol.objective == pytest.approx(oracle_val, abs=1e-4)

    def test_refined_oracle_matches_literal_grid(self):
        # sanity of the hierarchical oracle used at sizes where the
        # literal 1e-3 enumeration is intractable
        rng = np.random.default_rng(31)
        for trial in range(4):
            n = int(rng.integers(2, 4))
            C = float(rng.choice([0.5, 2.0]))
            if C * n < 1.0:
                continue
            K = random_psd(rng, n)
            q = np.diag(K).copy() if trial % 2 else np.zeros(n)
            lit, _ = qp_grid_search(K, q, C, step=1e-3)
            ref, _ = qp_refined_grid_search(K, q, C)
            assert ref == pytest.approx(lit, abs=2e-5)


class TestSolutionQuality:
    def test_constraints_and_kkt(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = 30
            K = random_psd(rng, n)
            C = float(rng.uniform(0.05, 0.4))
            q = np.diag(K).copy()
            sol = solve(QpProblem(K, q, C), kkt_tol=1e-7)
            assert feasible(sol.alpha, C)
            grad = 2.0 * K @ sol.alpha - q
            margin = sol.margin_sv_indices
            if margin.size > 1:
                assert grad[margin].max() - grad[margin].min() < 1e-6

    def test_monotone_objective(self):
        # the objective after k pair updates is the capped solve's, taken
        # from ConvergenceError.solution where the cap stops it early
        rng = np.random.default_rng(9)
        K = random_psd(rng, 25)
        problem = QpProblem(K, np.diag(K).copy(), 0.1)
        final = solve(problem)
        objectives = []
        for k in range(final.iterations + 1):
            try:
                objectives.append(solve(problem, max_iter=k).objective)
            except ConvergenceError as exc:
                objectives.append(exc.solution.objective)
        assert objectives[-1] == final.objective
        assert (np.diff(objectives) >= -1e-12).all()

    def test_warm_start_agrees(self):
        rng = np.random.default_rng(11)
        K = random_psd(rng, 20)
        q = np.diag(K).copy()
        problem = QpProblem(K, q, 0.15)
        kkt_tol = 1e-7
        cold = solve(problem, kkt_tol=kkt_tol)
        for seed in range(3):
            start = np.random.default_rng(seed).dirichlet(np.ones(20))
            warm = solve(problem, warm_start=start, kkt_tol=kkt_tol)
            assert warm.objective == pytest.approx(cold.objective, abs=10 * kkt_tol)

    def test_hard_margin_alphas_identical(self):
        rng = np.random.default_rng(13)
        K = random_psd(rng, 15)
        q = np.diag(K).copy()
        sols = [solve(QpProblem(K, q, C)) for C in (1.5, 10.0, 1e6)]
        for other in sols[1:]:
            np.testing.assert_allclose(sols[0].alpha, other.alpha, atol=1e-8)

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        K = random_psd(rng, 18)
        problem = QpProblem(K, np.diag(K).copy(), 0.2)
        a = solve(problem)
        b = solve(problem)
        assert (a.alpha == b.alpha).all()

    def test_sv_sets(self):
        rng = np.random.default_rng(19)
        K = random_psd(rng, 30)
        C = 0.08
        sol = solve(QpProblem(K, np.diag(K).copy(), C))
        tau = sv_threshold(C)
        assert set(sol.margin_sv_indices) <= set(sol.sv_indices)
        assert (sol.alpha[sol.sv_indices] > tau).all()
        outside = np.setdiff1d(np.arange(30), sol.sv_indices)
        assert (sol.alpha[outside] <= tau).all()


class TestColdStart:
    def test_start_rows(self):
        m = COLD_START_ROWS
        # up to m rows, and at any C below 1/m, the start is uniform
        for n, C in ((1, 1.0), (30, 0.05), (m, 1.0), (200, 0.99 / m), (200, 0.005)):
            uniform = _finalize_alpha(np.full(n, min(1.0 / n, C)), C)
            np.testing.assert_array_equal(cold_start(n, C), uniform)
        # from C = 1/m on, 1/m on the first m rows whatever C is
        for C in (1.0 / m, 0.5, 3.0):
            want = np.zeros(200)
            want[:m] = 1.0 / m
            np.testing.assert_array_equal(cold_start(200, C), want)

    def test_sparse_start_drains_few_rows(self):
        # two rbf blobs of 300 rows: from the uniform start every row but
        # the support vectors is a donor that some pair update must zero
        rng = np.random.default_rng(11)
        X = np.vstack([rng.normal(-2.0, 1.0, (300, 2)), rng.normal(2.0, 1.0, (300, 2))])
        K = gram(KernelSpec.rbf(3.0), X).values
        problem = QpProblem(K, np.diag(K).copy(), 0.05)
        n, kkt_tol = 600, 1e-6
        cold = solve(problem, kkt_tol=kkt_tol)
        uniform = solve(problem, warm_start=np.full(n, 1.0 / n), kkt_tol=kkt_tol)
        assert uniform.iterations >= n - uniform.card
        assert cold.iterations < n / 2
        assert feasible(cold.alpha, 0.05)
        assert abs(cold.objective - uniform.objective) <= kkt_tol


class TestProjection:
    def test_projects_onto_constraints(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            C = float(rng.uniform(1.0 / n, 2.0))
            point = rng.standard_normal(n)
            proj = project_to_feasible(point, C)
            assert feasible(proj, C, tol=1e-9)

    def test_feasible_point_unchanged(self):
        a = np.array([0.3, 0.3, 0.4])
        proj = project_to_feasible(a, 0.5)
        np.testing.assert_allclose(proj, a, atol=1e-9)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleProblemError):
            project_to_feasible(np.ones(2), 0.3)


def array_loop_solve(K, q, C, warm_start=None, kkt_tol=1e-6, max_iter=None):
    """solve_raw with its pair update written as whole-array numpy
    operations (masked gradient copies, numpy scalars, temporaries): the
    reference the solver must match bit for bit."""
    n = q.size
    if warm_start is not None:
        warm = np.asarray(warm_start, dtype=float)
        alpha = project_to_feasible(warm, C)
        peak = alpha.max() if _is_feasible(warm, C) else np.inf
    else:
        alpha = cold_start(n, C)
        peak = alpha.max()
    grad = 2.0 * K.matvec(alpha) - q
    diag = K.diag
    cap = max_iter if max_iter is not None else 10_000 * n
    iterations = 0
    converged = n == 1
    while iterations < cap and not converged:
        receiver_grad = np.where(alpha < C, grad, np.inf)
        donor_grad = np.where(alpha > 0.0, grad, -np.inf)
        i = int(np.argmin(receiver_grad))
        j = int(np.argmax(donor_grad))
        if not np.isfinite(receiver_grad[i]):
            converged = True
            break
        violation = float(donor_grad[j]) - float(receiver_grad[i])
        if violation < kkt_tol:
            converged = True
            break
        row_i, row_j = K.row(i), K.row(j)
        quad = diag[i] + diag[j] - 2.0 * row_i[j]
        room_i = C - alpha[i]
        room_j = alpha[j]
        if quad > 0.0:
            step = min(violation / (2.0 * quad), room_i, room_j)
        else:
            step = min(room_i, room_j)
        new_i = C if step >= room_i else alpha[i] + step
        new_j = 0.0 if step >= room_j else alpha[j] - step
        delta_i = new_i - alpha[i]
        delta_j = new_j - alpha[j]
        alpha[i] = new_i
        alpha[j] = new_j
        if new_i > peak:
            peak = new_i
        grad += 2.0 * (row_i * delta_i + row_j * delta_j)
        iterations += 1
    alpha = _finalize_alpha(alpha, C)
    objective = float(q @ alpha - alpha @ K.matvec(alpha))
    peak = float(max(peak, alpha.max()))
    solution = AlphaSolution.from_alpha(alpha, objective, C, iterations, peak)
    if not converged:
        raise ConvergenceError("cap", solution)
    return solution


class TestMatchesArrayLoop:
    """The pair update on Python floats gives the array loop's bits."""

    @staticmethod
    def stack(rng, n, nk):
        # a third of the examples repeat others: equal rows, equal gradients,
        # ties that only the lowest-index rule breaks
        distinct = n - n // 3
        ids = rng.permutation(np.concatenate(
            [np.arange(distinct), rng.choice(distinct, n - distinct)]
        ))
        grams = np.stack([random_psd(rng, distinct)[np.ix_(ids, ids)] for _ in range(nk)])
        d = rng.dirichlet(np.ones(nk))
        if nk > 2:
            d[rng.integers(nk)] = 0.0
        return grams, d / d.sum()

    @staticmethod
    def outcome(run):
        try:
            return "converged", run()
        except ConvergenceError as exc:
            return "capped", exc.solution

    @staticmethod
    def assert_same_bits(got, ref):
        assert got[0] == ref[0]
        a, b = got[1], ref[1]
        assert a.alpha.dtype == b.alpha.dtype and a.alpha.tobytes() == b.alpha.tobytes()
        assert np.array([a.objective, a.peak]).tobytes() == np.array([b.objective, b.peak]).tobytes()
        assert a.iterations == b.iterations
        assert np.array_equal(a.sv_indices, b.sv_indices)
        assert np.array_equal(a.margin_sv_indices, b.margin_sv_indices)

    def test_random_problems(self):
        rng = np.random.default_rng(2005)
        kinds = set()
        for trial in range(12):
            n = int(rng.integers(6, 40))
            grams, d = self.stack(rng, n, nk=1 + trial % 3)

            def operator():
                return CombinedKernel(grams, d)

            for C in (1.5 / n, 0.3, 2.0):  # the box binds; it may; it cannot
                t = 0.9 * min(1.0, (C - 1.0 / n) / (1.0 - 1.0 / n))
                starts = {
                    "cold": None,
                    "feasible": (1.0 - t) / n + t * rng.dirichlet(np.ones(n)),
                    "infeasible": rng.standard_normal(n),
                }
                for q in (operator().diag.copy(), np.zeros(n)):
                    for name, start in starts.items():
                        kw = dict(warm_start=start, kkt_tol=1e-6 if trial % 2 else 1e-9)
                        ref = self.outcome(lambda: array_loop_solve(operator(), q, C, **kw))
                        got = self.outcome(lambda: solve_raw(operator(), q, C, **kw))
                        self.assert_same_bits(got, ref)
                        assert ref[0] == "converged"
                        if name == "feasible":
                            assert math.isfinite(ref[1].peak)
                        kinds.add(bool(ref[1].alpha.max() == C))
                        cap = dict(kw, max_iter=ref[1].iterations // 2)
                        ref = self.outcome(lambda: array_loop_solve(operator(), q, C, **cap))
                        got = self.outcome(lambda: solve_raw(operator(), q, C, **cap))
                        self.assert_same_bits(got, ref)
                        assert ref[0] == "capped"
        # the box bound some solutions (alpha_i snapped onto C) and not others
        assert kinds == {True, False}

import numpy as np
import pytest

from mksvdd import kernels, mkl, models
from mksvdd.data import gen_2d_target
from mksvdd.kernels import KernelDictionary, KernelSpec, combine
from mksvdd.mkl import (
    METHOD_FAMILIES,
    MklConfig,
    check_options,
    duality_gap,
    fit_method,
    fit_mkl,
    mkl_gradient,
    mkl_objective,
)
from mksvdd.models import bounded_sv_indices, fit_one_class, fit_svdd
from mksvdd.qp import QpProblem, solve


def rbf_dict(X, sigmas):
    return KernelDictionary.from_data([KernelSpec.rbf(s) for s in sigmas], X)


def explicit_objective(dictionary, d, alpha):
    """Weighted double-sum form of the enclosing-ball objective."""
    total = 0.0
    for w, g in zip(d, dictionary.grams):
        K = g.values
        lin = sum(alpha[i] * K[i, i] for i in range(len(alpha)))
        quad = sum(
            alpha[i] * alpha[j] * K[i, j]
            for i in range(len(alpha))
            for j in range(len(alpha))
        )
        total += w * (lin - quad)
    return total


class TestObjective:
    def test_single_kernel_equals_dual_objective(self):
        X = gen_2d_target(1, 1, 12)
        d = rbf_dict(X, [1.0])
        J, sol = mkl_objective(d, [1.0], 0.3, "svdd")
        K = d.grams[0].values
        direct = solve(QpProblem(K, np.diag(K).copy(), 0.3))
        assert J == direct.objective

    def test_duplicated_kernel_same_objective(self):
        X = gen_2d_target(2, 1, 10)
        single = rbf_dict(X, [0.7])
        double = rbf_dict(X, [0.7, 0.7])
        J1, _ = mkl_objective(single, [1.0], 0.4, "svdd")
        J2, _ = mkl_objective(double, [0.5, 0.5], 0.4, "svdd")
        assert J2 == pytest.approx(J1, abs=1e-10)

    def test_matches_explicit_sums(self):
        X = gen_2d_target(3, 2, 14)
        d = rbf_dict(X, [0.5, 1.0, 5.0])
        w = np.array([0.2, 0.5, 0.3])
        J, sol = mkl_objective(d, w, 0.25, "svdd", kkt_tol=1e-10)
        assert J == pytest.approx(explicit_objective(d, w, sol.alpha), abs=1e-8)

    def test_ocsvm_objective_is_half_quadratic(self):
        X = gen_2d_target(4, 1, 10)
        d = rbf_dict(X, [0.5, 2.0])
        w = np.array([0.6, 0.4])
        J, sol = mkl_objective(d, w, 0.5, "ocsvm", kkt_tol=1e-10)
        K = combine(d, w).values
        assert J == pytest.approx(0.5 * sol.alpha @ K @ sol.alpha, abs=1e-10)

    def test_bad_kind(self):
        X = gen_2d_target(1, 1, 5)
        with pytest.raises(ValueError, match="kind"):
            mkl_objective(rbf_dict(X, [1.0]), [1.0], 0.5, "other")


class TestGradient:
    def test_single_kernel_gradient_equals_objective(self):
        # with one kernel, J(d) = d_1 * dJ/dd_1 and d_1 = 1
        X = gen_2d_target(5, 1, 12)
        d = rbf_dict(X, [1.0])
        for kind in ("svdd", "ocsvm"):
            J, sol = mkl_objective(d, [1.0], 0.3, kind, kkt_tol=1e-10)
            g = mkl_gradient(d, sol, kind)
            assert g.shape == (1,)
            assert g[0] == pytest.approx(J, abs=1e-10)

    def test_duplicated_kernel_equal_components(self):
        X = gen_2d_target(6, 1, 10)
        d = rbf_dict(X, [0.7, 0.7])
        for kind in ("svdd", "ocsvm"):
            _, sol = mkl_objective(d, [0.5, 0.5], 0.4, kind)
            g = mkl_gradient(d, sol, kind)
            assert g[0] == g[1]

    def test_euler_identity(self):
        X = gen_2d_target(7, 2, 16)
        d = rbf_dict(X, [0.5, 1.0, 5.0])
        w = np.array([0.3, 0.4, 0.3])
        for kind in ("svdd", "ocsvm"):
            J, sol = mkl_objective(d, w, 0.2, kind, kkt_tol=1e-10)
            g = mkl_gradient(d, sol, kind)
            assert float(w @ g) == pytest.approx(J, rel=1e-10)

    def test_finite_differences(self):
        rng = np.random.default_rng(8)
        X = gen_2d_target(8, 2, 18)
        d = rbf_dict(X, [0.5, 1.0, 5.0])
        w = np.array([0.35, 0.35, 0.30])
        for kind in ("svdd", "ocsvm"):
            _, sol = mkl_objective(d, w, 0.25, kind, kkt_tol=1e-12)
            g = mkl_gradient(d, sol, kind)
            for _ in range(5):
                u = rng.standard_normal(3)
                u -= u.mean()
                u /= np.linalg.norm(u)
                eps = 1e-5
                Jp, _ = mkl_objective(d, w + eps * u, 0.25, kind, kkt_tol=1e-12)
                Jm, _ = mkl_objective(d, w - eps * u, 0.25, kind, kkt_tol=1e-12)
                fd = (Jp - Jm) / (2 * eps)
                assert fd == pytest.approx(float(g @ u), rel=1e-4, abs=1e-9)

    def test_one_gather_keeps_the_per_kernel_bits(self):
        # each kernel's support block and diagonal, gathered on its own:
        # the sums the gradient has always made, bit for bit
        X = gen_2d_target(12, 2, 120)
        d = rbf_dict(X, [0.3, 0.5, 1.0, 2.0, 5.0])
        w = np.array([0.1, 0.3, 0.2, 0.0, 0.4])
        for kind in ("svdd", "ocsvm"):
            _, sol = mkl_objective(d, w, 0.05, kind)
            idx, a = sol.sv_indices, sol.alpha[sol.sv_indices]
            want = np.array([
                (float(np.diagonal(K)[idx] @ a) if kind == "svdd" else 0.0)
                - float(a @ (K[np.ix_(idx, idx)] @ a))
                for K in d.stack
            ])
            got = mkl_gradient(d, sol, kind) / models.KINDS[kind].scale
            assert got.tobytes() == want.tobytes()

    def test_stale_alpha_dimension(self):
        X = gen_2d_target(9, 1, 10)
        d = rbf_dict(X, [1.0])
        _, sol = mkl_objective(d, [1.0], 0.3, "svdd")
        other = rbf_dict(gen_2d_target(9, 1, 12), [1.0])
        with pytest.raises(ValueError, match="alpha length"):
            mkl_gradient(other, sol, "svdd")


class TestDualityGap:
    def test_single_kernel_gap_zero_exactly(self):
        X = gen_2d_target(10, 1, 12)
        d = rbf_dict(X, [1.0])
        for kind in ("svdd", "ocsvm"):
            J, sol = mkl_objective(d, [1.0], 0.3, kind)
            assert duality_gap(d, [1.0], sol, kind, objective=J) == 0.0

    def test_duplicated_kernels_gap_zero(self):
        X = gen_2d_target(11, 1, 10)
        d = rbf_dict(X, [0.7, 0.7])
        for kind in ("svdd", "ocsvm"):
            J, sol = mkl_objective(d, [0.3, 0.7], 0.4, kind)
            assert duality_gap(d, [0.3, 0.7], sol, kind) == 0.0

    def test_nonnegative_at_init_small_at_convergence(self):
        X = gen_2d_target(12, 2, 20)
        d = rbf_dict(X, [0.5, 1.0, 5.0])
        uniform = np.full(3, 1 / 3)
        J0, sol0 = mkl_objective(d, uniform, 0.2, "svdd")
        assert duality_gap(d, uniform, sol0, "svdd") >= 0.0
        cfg = MklConfig(C=0.2, gap_tol=1e-4)
        model, trace = fit_mkl(d, cfg, "svdd")
        assert trace.converged
        _, sol = mkl_objective(d, model.weights, 0.2, "svdd")
        gap = duality_gap(d, model.weights, sol, "svdd")
        assert gap <= 1e-4 * max(abs(trace.steps[-1].objective), 1e-12)

    def test_stale_objective_detected(self):
        X = gen_2d_target(13, 1, 10)
        d = rbf_dict(X, [0.5, 5.0])
        J, sol = mkl_objective(d, [0.5, 0.5], 0.4, "svdd")
        with pytest.raises(ValueError, match="stale"):
            duality_gap(d, [0.5, 0.5], sol, "svdd", objective=J + 0.5)


class TestFitMkl:
    def test_single_kernel_immediate(self):
        X = gen_2d_target(14, 1, 15)
        d = rbf_dict(X, [1.0])
        cfg = MklConfig(C=0.2)
        model, trace = fit_mkl(d, cfg, "svdd")
        assert model.weights.tolist() == [1.0]
        assert len(trace.steps) == 1
        assert trace.converged
        direct = fit_svdd(d, [1.0], 0.2)
        assert model.threshold == direct.threshold
        assert (model.alpha.alpha == direct.alpha.alpha).all()

    def test_lambda_below_resolution_identical(self):
        X = gen_2d_target(15, 2, 20)
        d = rbf_dict(X, [0.5, 1.0, 5.0])
        runs = []
        for lam in (0.0, 1e-12):
            model, trace = fit_mkl(d, MklConfig(C=0.2, lam=lam), "svdd")
            runs.append((model, trace))
        t0, t1 = runs[0][1], runs[1][1]
        assert len(t0.steps) == len(t1.steps)
        for a, b in zip(t0.steps, t1.steps):
            assert (a.weights == b.weights).all()
            assert a.objective == b.objective
        assert (runs[0][0].weights == runs[1][0].weights).all()

    def test_slim_zero_equals_plain_bitwise(self):
        X = gen_2d_target(16, 2, 20)
        d = rbf_dict(X, [0.5, 1.0, 5.0])
        plain_model, plain_trace = fit_method("mk-svdd", d, 0.2, lam=0.7)
        slim_model, slim_trace = fit_method("slim-mk-svdd", d, 0.2, lam=0.0)
        assert len(plain_trace.steps) == len(slim_trace.steps)
        for a, b in zip(plain_trace.steps, slim_trace.steps):
            assert (a.weights == b.weights).all()
            assert a.objective == b.objective
        assert (plain_model.weights == slim_model.weights).all()

    def test_loose_kernel_wins_at_lambda_zero(self):
        X = gen_2d_target(17, 1, 30)
        d = rbf_dict(X, [0.1, 100.0])
        model, trace = fit_mkl(d, MklConfig(C=0.2), "svdd")
        assert model.weights[1] > 0.9

    def test_slim_shifts_weight_and_cardinality(self):
        for seed in (5, 21):
            X = gen_2d_target(seed, 2, 40)
            d = rbf_dict(X, [0.1, 100.0])
            loose, _ = fit_mkl(d, MklConfig(C=0.2, lam=0.0), "svdd")
            tight, _ = fit_mkl(d, MklConfig(C=0.2, lam=1.0), "svdd")
            assert tight.weights[0] > loose.weights[0]
            assert tight.card > loose.card

    def test_objective_non_increasing_lambda_zero(self):
        for kind in ("svdd", "ocsvm"):
            X = gen_2d_target(18, 2, 25)
            d = rbf_dict(X, [0.5, 1.0, 5.0, 10.0])
            _, trace = fit_mkl(d, MklConfig(C=0.15), kind)
            objs = [s.objective for s in trace.steps]
            assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))

    def test_simplex_preserved_on_every_iterate(self):
        X = gen_2d_target(19, 2, 25)
        d = rbf_dict(X, [0.1, 0.5, 1.0, 5.0, 100.0])
        _, trace = fit_mkl(d, MklConfig(C=0.1, lam=0.05), "svdd")
        for step in trace.steps:
            assert (step.weights >= 0.0).all()
            assert abs(step.weights.sum() - 1.0) <= 1e-10

    def test_kkt_at_convergence(self):
        X = gen_2d_target(20, 2, 25)
        d = rbf_dict(X, [0.5, 1.0, 5.0])
        cfg = MklConfig(C=0.2, gap_tol=1e-6)
        model, trace = fit_mkl(d, cfg, "svdd")
        assert trace.converged
        _, sol = mkl_objective(d, model.weights, 0.2, "svdd")
        g = mkl_gradient(d, sol, "svdd")
        active = model.weights > 0.05
        if active.sum() > 1:
            mu = g[active].mean()
            scale = max(abs(trace.steps[-1].objective), 1.0)
            assert np.abs(g[active] - mu).max() <= 1e-4 * scale

    def test_first_step_is_objective_at_uniform_weights(self):
        # probes and mkl_objective share one inner solve, bit for bit
        for seed in range(4):
            X = gen_2d_target(30 + seed, 2, 30)
            d = rbf_dict(X, [0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0])
            uniform = np.full(d.nk, 1.0 / d.nk)
            for kind, sign in (("svdd", 1.0), ("ocsvm", -1.0)):
                J, _ = mkl_objective(d, uniform, 0.1, kind)
                for lam in (0.0, 0.1):
                    cfg = MklConfig(C=0.1, lam=lam, max_outer_iters=1)
                    _, trace = fit_mkl(d, cfg, kind)
                    assert trace.steps[0].objective == sign * J

    def test_trace_csv(self):
        X = gen_2d_target(22, 1, 15)
        d = rbf_dict(X, [0.5, 5.0])
        _, trace = fit_mkl(d, MklConfig(C=0.3), "svdd")
        header, rows = trace.table()
        assert header == ["iteration", "objective", "gap", "card", "step_size", "d0", "d1"]
        assert len(rows) == len(trace.steps)
        assert [r[0] for r in rows] == [s.iteration for s in trace.steps]


class TestFitMethod:
    def test_table_covers_six_methods(self):
        assert sorted(METHOD_FAMILIES) == [
            "mk-ocsvm",
            "mk-svdd",
            "ocsvm",
            "slim-mk-ocsvm",
            "slim-mk-svdd",
            "svdd",
        ]

    def test_single_kernel_requires_one_entry(self):
        X = gen_2d_target(23, 1, 10)
        d = rbf_dict(X, [0.5, 5.0])
        with pytest.raises(ValueError, match="single-kernel"):
            fit_method("svdd", d, 0.3)

    def test_unknown_method(self):
        X = gen_2d_target(23, 1, 10)
        with pytest.raises(ValueError, match="unknown method"):
            fit_method("deep-svdd", rbf_dict(X, [1.0]), 0.3)

    @pytest.mark.parametrize("method", ["svdd", "ocsvm"])
    def test_single_kernel_trace_is_one_gap_step(self, method):
        # a one-kernel fit runs fit_mkl's loop: its first gap is exactly 0,
        # so it stops there with its cold solve, the model of fit_one_class
        d = rbf_dict(gen_2d_target(24, 1, 10), [1.0])
        for C in (0.15, 0.5):
            model, trace = fit_method(method, d, C)
            assert model.kind == method
            assert [(s.iteration, s.gap, s.step_size) for s in trace.steps] == [(1, 0.0, 0.0)]
            assert trace.converged and not trace.probes
            assert trace.message == "duality gap within tolerance"
            assert_same_model(model, fit_one_class(method, fresh(d), [1.0], C))

    @pytest.mark.parametrize("method", sorted(METHOD_FAMILIES))
    @pytest.mark.parametrize("options, error", [
        ({"bogus": 3}, TypeError),
        ({"gap_tol": -1}, ValueError),
        ({"max_outer_iters": 0}, ValueError),
    ])
    def test_every_method_checks_its_options(self, method, options, error):
        X = gen_2d_target(24, 1, 10)
        d = rbf_dict(X, [1.0, 3.0] if METHOD_FAMILIES[method][1] else [1.0])
        with pytest.raises(error):
            fit_method(method, d, 0.5, **options)
        with pytest.raises(ValueError, match="C must be"):
            fit_method(method, d, -0.5)


class TestMklConfig:
    @pytest.mark.parametrize("field, value, message", [
        ("C", 0.0, "C must be"),
        ("C", -0.1, "C must be"),
        ("C", np.nan, "C must be"),
        ("C", np.inf, "C must be"),
        ("C", "0.1", "C must be"),
        ("lam", -0.1, "lambda must be"),
        ("lam", np.nan, "lambda must be"),
        ("lam", np.inf, "lambda must be"),
        ("lam", "0", "lambda must be"),
        ("gap_tol", -1.0, "gap_tol must be"),
        ("gap_tol", np.nan, "gap_tol must be"),
        ("gap_tol", np.inf, "gap_tol must be"),
        ("gap_tol", "1e-3", "gap_tol must be"),
        ("max_outer_iters", 0, "max_outer_iters must be"),
        ("max_outer_iters", -3, "max_outer_iters must be"),
        ("max_outer_iters", 2.5, "max_outer_iters must be"),
        ("max_outer_iters", "5", "max_outer_iters must be"),
        ("max_outer_iters", True, "max_outer_iters must be"),
    ])
    def test_rejects(self, field, value, message):
        kwargs = {"C": 0.2, field: value}
        with pytest.raises(ValueError, match=message):
            MklConfig(**kwargs)

    def test_accepts_boundary_values(self):
        cfg = MklConfig(C=np.float64(0.2), lam=0, gap_tol=0.0, max_outer_iters=np.int64(1))
        assert (cfg.lam, cfg.gap_tol, cfg.max_outer_iters) == (0, 0.0, 1)

    def test_stores_C_and_lam_as_floats_and_integral_iters_as_int(self):
        # a JSON C of 1 fits, and is written, as 1.0; 7.0 iterations are 7
        cfg = MklConfig(C=1, lam=0, max_outer_iters=7.0)
        assert [(v, type(v)) for v in (cfg.C, cfg.lam, cfg.max_outer_iters)] == [
            (1.0, float), (0.0, float), (7, int)
        ]

    def test_options_are_the_fields_besides_C_and_lam(self):
        options = {"gap_tol": 1e-3, "max_outer_iters": 7}
        assert check_options(options) == options
        for name in ("C", "lam", "ls_shrink"):
            with pytest.raises(ValueError, match=f"unknown mkl options: \\['{name}'\\]"):
                check_options({name: 0.5})
        with pytest.raises(ValueError, match="gap_tol must be"):
            check_options({"gap_tol": -1})


def assert_same_model(model, want):
    for name in ("alpha", "sv_indices", "margin_sv_indices"):
        np.testing.assert_array_equal(getattr(model.alpha, name), getattr(want.alpha, name))
    np.testing.assert_array_equal(model.weights, want.weights)
    assert (model.C, model.threshold, model.self_term, model.alpha.objective) == (
        want.C, want.threshold, want.self_term, want.alpha.objective
    )


def assert_same_fit(got, expected):
    (model, trace), (want, want_trace) = got, expected
    assert_same_model(model, want)
    assert trace.table() == want_trace.table()
    assert (trace.converged, trace.message) == (want_trace.converged, want_trace.message)


def count_solves(monkeypatch) -> list:
    """A list that gains an entry each time an inner solve runs."""
    calls, solve_raw = [], models.solve_raw
    monkeypatch.setattr(models, "solve_raw", lambda *a, **k: calls.append(0) or solve_raw(*a, **k))
    return calls


def fresh(d: KernelDictionary) -> KernelDictionary:
    """d's Grams in a new dictionary, whose memo holds no solve yet."""
    return KernelDictionary(d.specs, d.stack, d.train)


def stored_solves(d: KernelDictionary) -> list:
    """Every solution in d's memo."""
    return [s for solves in d._memo.values() for _, s in solves]


class TestSvddEqualsOcsvmOnRbf:
    """With every k(x, x) = 1, svdd's linear term is constant on the
    simplex: the two duals share their solutions, and ocsvm's descended
    objective and gap are affine images of svdd's, (J - 1) / 2 and gap / 2.
    Halving the objective doubles the weight of the slim penalty, so
    slim-mk-ocsvm at lambda takes the steps of slim-mk-svdd at 2 lambda."""

    RBF = (0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0)

    @pytest.mark.parametrize("n, areas", [(360, 2), (2000, 3)])
    def test_loops_take_the_same_steps(self, n, areas):
        d = rbf_dict(gen_2d_target(1, areas, n), self.RBF)
        for C in (0.05, 0.2):
            for svdd_fit, ocsvm_fit in ((("mk-svdd", 0.0), ("mk-ocsvm", 0.0)),
                                        (("slim-mk-svdd", 0.02), ("slim-mk-ocsvm", 0.01))):
                _, svdd = fit_method(svdd_fit[0], d, C, svdd_fit[1])
                _, ocsvm = fit_method(ocsvm_fit[0], d, C, ocsvm_fit[1])
                for s, o in zip(svdd.steps, ocsvm.steps):
                    assert s.card == o.card
                    # the inner solves agree within their KKT tolerance only
                    np.testing.assert_allclose(o.weights, s.weights, rtol=0, atol=1e-5)
                    assert o.objective == pytest.approx(0.5 * (s.objective - 1.0), abs=1e-6)
                    assert o.gap == pytest.approx(0.5 * s.gap, abs=1e-6)
                # both stop for the same reason; a gap stop may come one step
                # apart, as gap <= gap_tol * |objective| reads each kind's own
                # objective, which the affine map does not carry over
                assert svdd.message == ocsvm.message, (svdd_fit, C)


class TestSharedFits:
    """Fits on one dictionary equal fits on a fresh one, bit for bit: its
    memo returns an earlier inner solve only where solving again would
    repeat it."""

    C_GRID = (0.04, 0.06, 0.1, 0.2, 0.5, 1.0)  # n = 30: the box binds below 0.1
    LAM_GRID = (0.0, 0.001, 0.01, 0.1, 1.0)

    @pytest.mark.parametrize("method", ["slim-mk-svdd", "slim-mk-ocsvm"])
    def test_shuffled_grids_equal_independent_fits(self, method, monkeypatch):
        calls = count_solves(monkeypatch)
        rng = np.random.default_rng(7)
        cells = [(C, lam) for C in self.C_GRID for lam in self.LAM_GRID]
        shared = independent = bound = 0
        for seed in range(2):
            d = rbf_dict(gen_2d_target(40 + seed, 2, 30), [0.5, 5.0, 50.0])
            for k in rng.permutation(len(cells)):
                C, lam = cells[k]
                start = len(calls)
                got = fit_method(method, d, C, lam, gap_tol=1e-3)
                middle = len(calls)
                want = fit_method(method, fresh(d), C, lam, gap_tol=1e-3)
                assert_same_fit(got, want)
                assert got[1].probes == want[1].probes
                shared += middle - start
                independent += len(calls) - middle
                bound += bounded_sv_indices(got[0]).size > 0
        assert 2 * shared < independent and bound >= 10

    def test_refuses_when_the_source_box_binds(self, monkeypatch):
        base = rbf_dict(gen_2d_target(41, 2, 30), [0.1, 0.5, 1.0, 5.0, 50.0])
        d = fresh(base)
        fit_method("slim-mk-svdd", d, 0.04, 0.1)
        assert any(s.peak >= 0.04 - 1e-7 for s in stored_solves(d))
        calls = count_solves(monkeypatch)
        for C in (0.06, 0.5):  # above the peak, which sits on the source's box
            start = len(calls)
            got = fit_method("slim-mk-svdd", d, C, 0.1)
            assert len(calls) > start  # at least the first, cold solve again
            assert_same_fit(got, fit_method("slim-mk-svdd", fresh(base), C, 0.1))
        d = fresh(base)
        fit_method("slim-mk-svdd", d, 1.0, 0.1)
        start = len(calls)
        got = fit_method("slim-mk-svdd", d, 0.04, 0.1)
        assert len(calls) > start
        assert_same_fit(got, fit_method("slim-mk-svdd", fresh(base), 0.04, 0.1))

    def test_refuses_a_flipped_accept_flag(self, monkeypatch):
        d = rbf_dict(gen_2d_target(5, 2, 40), [0.1, 100.0])
        loose = fit_method("slim-mk-svdd", d, 0.2, 0.0)
        assert any(p.card_try != p.card for p in loose[1].probes)
        calls = count_solves(monkeypatch)
        got = fit_method("slim-mk-svdd", d, 0.2, 1.0)
        assert calls and got[0].card > loose[0].card  # solves past the flip
        assert_same_fit(got, fit_method("slim-mk-svdd", fresh(d), 0.2, 1.0))
        # lambda below every probe's |delta work| / |delta card| takes
        # loose's path, every solve of which is in the memo
        start = len(calls)
        tiny = fit_method("slim-mk-svdd", d, 0.2, 1e-12)
        assert len(calls) == start
        assert_same_fit(tiny, fit_method("slim-mk-svdd", fresh(d), 0.2, 1e-12))

    def test_refuses_another_threshold_or_kind(self, monkeypatch):
        base = rbf_dict(gen_2d_target(42, 2, 30), [0.5, 5.0])
        d = fresh(base)
        fit_method("mk-svdd", d, 1.0, 0.0)
        assert max(s.peak for s in stored_solves(d)) < 0.6
        calls = count_solves(monkeypatch)
        for method, C, options, solves in (
            ("mk-svdd", 0.7, {}, False),
            # the options reach no inner solve: a fit that stops sooner shares all
            ("mk-svdd", 1.0, {"gap_tol": 1e-3}, False),
            # sv_threshold(2.0) != sv_threshold(1.0), though the box binds at neither
            ("mk-svdd", 2.0, {}, True),
            ("mk-ocsvm", 1.0, {}, True),
        ):
            start = len(calls)
            got = fit_method(method, d, C, 0.0, **options)
            assert (len(calls) > start) == solves
            assert_same_fit(got, fit_method(method, fresh(base), C, 0.0, **options))

    def test_repeated_fits_on_one_dictionary_solve_nothing(self, monkeypatch):
        # every fit on a dictionary shares its memo, not only grid_search's
        # cells: a second fit_mkl, and slim-mk-svdd at lambda = 0 after
        # mk-svdd, run no inner solve and equal fits on a fresh dictionary
        d = rbf_dict(gen_2d_target(42, 2, 30), [0.5, 5.0, 50.0])
        config = MklConfig(C=0.2, gap_tol=1e-3)
        first = fit_mkl(d, config)
        calls = count_solves(monkeypatch)
        again = fit_mkl(d, config)
        slim = fit_method("slim-mk-svdd", d, 0.2, 0.0, gap_tol=1e-3)
        assert calls == []
        want = fit_mkl(fresh(d), config)
        for got in (first, again, slim):
            assert_same_fit(got, want)
            assert got[1].probes == want[1].probes


def probes_per_iteration(trace):
    """Line-search probes of each outer iteration, in order: each run ends
    at its accepted probe, or at the end of the trace."""
    counts, run = [], 0
    for probe in trace.probes:
        run += 1
        if probe.accepted:
            counts.append(run)
            run = 0
    return counts + [run] if run else counts


def halving_fit_mkl(dictionary, config, kind="svdd"):
    """fit_mkl with its line search as plain halving, no screen: every
    search probes from the longest step down, up to LS_MAX_PROBES probes.
    The reference the screened search must match wherever no step it
    skips would have improved."""
    scale = abs(models.KINDS[kind].scale)
    nk = dictionary.nk
    d = np.full(nk, 1.0 / nk)
    trace = mkl.MklTrace(kind=kind, config=config)
    sol = models._inner_solve(kind, dictionary, d, config.C)
    work = scale * sol.objective
    penalized = work - config.lam * sol.card
    step_size = 0.0
    for it in range(1, config.max_outer_iters + 1):
        grad_work = scale * mkl._optimum_gradient(dictionary, sol, kind)
        gap = mkl._gap(d, grad_work)
        trace.steps.append(mkl.MklStep(it, d.copy(), work, sol.card, gap, step_size))
        if gap <= config.gap_tol * max(abs(work), 1e-12):
            trace.converged = True
            trace.message = "duality gap within tolerance"
            break
        direction = mkl._descent_direction(d, grad_work)
        if not np.any(direction != 0.0):
            trace.converged = True
            trace.message = "stationary weights (zero reduced gradient)"
            break
        negative = direction < 0.0
        gamma = float(np.min(d[negative] / -direction[negative]))
        for _ in range(mkl.LS_MAX_PROBES):
            d_try = mkl._step(d, direction, gamma)
            sol_try = models._inner_solve(kind, dictionary, d_try, config.C, sol.alpha)
            work_try = scale * sol_try.objective
            pen_try = work_try - config.lam * sol_try.card
            accepted = pen_try < penalized
            trace.probes.append(mkl.MklProbe(work, sol.card, work_try, sol_try.card, accepted))
            if accepted:
                break
            gamma *= mkl.LS_SHRINK
        if not accepted:
            trace.message = "line search found no improving step"
            break
        d, work, sol, penalized = d_try, work_try, sol_try, pen_try
        step_size = gamma
    else:
        trace.message = "outer iteration cap reached"
    return models._model_at(kind, dictionary, d, config.C, sol), trace


def ends_on_a_screen(trace) -> bool:
    return trace.message == "line search found no improving step"


def assert_matches_halving(got, want):
    """got, a screened fit, equals want, the halving search's, bit for bit:
    model, steps and probes, but for the probes a final failing search
    skipped (it lists its longest step and its shortest, want's first and
    last of LS_MAX_PROBES)."""
    assert_same_fit(got, want)
    probes = want[1].probes
    if ends_on_a_screen(want[1]):
        probes = probes[: -mkl.LS_MAX_PROBES] + [probes[-mkl.LS_MAX_PROBES], probes[-1]]
    assert got[1].probes == probes


class TestScreenedLineSearch:
    """A search whose longest step fails solves its shortest next, and ends
    there when that fails too; every fit in which no skipped step would
    have improved keeps the halving search's bits."""

    RBF = [0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0]

    def test_lambda_zero_fits_match_the_halving_search(self):
        # the descended objective is convex along the ray at lambda = 0
        for run in range(25):
            X = gen_2d_target(600 + run, 1 + run % 3, 40)
            for kind in ("svdd", "ocsvm"):
                config = MklConfig(C=0.15, gap_tol=1e-4)
                got = fit_mkl(rbf_dict(X, self.RBF), config, kind)
                assert_matches_halving(got, halving_fit_mkl(rbf_dict(X, self.RBF), config, kind))

    @pytest.mark.parametrize("seed, sigmas, config, kind", [
        (4, [0.1, 0.5, 1.0, 5.0, 10.0], MklConfig(C=0.1, lam=0.01), "ocsvm"),
        (6, [0.2, 1.0, 5.0], MklConfig(C=0.1, lam=0.1), "ocsvm"),
    ])
    def test_slim_fits_whose_screens_improve_match(self, seed, sigmas, config, kind):
        X = gen_2d_target(seed, 2, 40)
        got = fit_mkl(rbf_dict(X, sigmas), config, kind)
        assert_matches_halving(got, halving_fit_mkl(rbf_dict(X, sigmas), config, kind))
        # some search rejected its longest step, and its screen improved
        assert max(probes_per_iteration(got[1])[:-1]) > 1

    @pytest.mark.parametrize("kind", ["svdd", "ocsvm"])
    def test_a_slim_fit_that_cannot_move_stops_after_two_probes(self, kind):
        # the slim fits of the fit-large benchmark: both probes lose card
        X = gen_2d_target(0, 3, 2000)
        config = MklConfig(C=0.05, lam=0.1)
        got = fit_mkl(rbf_dict(X, self.RBF), config, kind)
        assert ends_on_a_screen(got[1]) and len(got[1].probes) == 2
        assert (got[1].solves, got[1].memo_hits) == (3, 0)
        assert_matches_halving(got, halving_fit_mkl(rbf_dict(X, self.RBF), config, kind))


class TestFitCounters:
    """MklTrace counts the inner solves a fit ran, its memo hits and the
    pair updates of the solves it ran."""

    def test_fresh_dictionary_counts_every_solve(self, monkeypatch):
        iterations, solve_raw = [], models.solve_raw

        def counted(*args, **kwargs):
            solution = solve_raw(*args, **kwargs)
            iterations.append(solution.iterations)
            return solution

        monkeypatch.setattr(models, "solve_raw", counted)
        X = gen_2d_target(6, 2, 40)
        for config in (MklConfig(C=0.1, lam=0.1), MklConfig(C=0.2, lam=1.0)):
            del iterations[:]
            _, trace = fit_mkl(rbf_dict(X, [0.2, 1.0, 5.0]), config, "svdd")
            assert trace.solves == len(iterations) > 1
            assert trace.pair_updates == sum(iterations) > 0
            assert trace.solves + trace.memo_hits >= len(trace.probes) + 1

    def test_repeated_fit_is_all_memo_hits(self, monkeypatch):
        d = rbf_dict(gen_2d_target(6, 2, 40), [0.2, 1.0, 5.0])
        config = MklConfig(C=0.1, lam=0.1)
        _, first = fit_mkl(d, config, "svdd")
        calls = count_solves(monkeypatch)
        _, again = fit_mkl(d, config, "svdd")
        assert calls == [] and (again.solves, again.pair_updates) == (0, 0)
        assert again.memo_hits == first.solves + first.memo_hits > 1


class TestLineSearchCap:
    """The line search gives up after LS_MAX_PROBES probes: a step-length
    tolerance of LS_SHRINK**(LS_MAX_PROBES - 1) of the largest feasible
    step, which only fits that would crawl ever reach."""

    CRAWL = (5, [0.1, 100.0], MklConfig(C=0.2, lam=1.0))  # seed, bandwidths, config

    def test_no_iteration_exceeds_the_cap(self):
        for seed, sigmas, config in (self.CRAWL, (6, [0.2, 1.0, 5.0], MklConfig(C=0.1, lam=0.1))):
            d = rbf_dict(gen_2d_target(seed, 2, 40), sigmas)
            for kind in ("svdd", "ocsvm"):
                _, trace = fit_mkl(d, config, kind)
                assert max(probes_per_iteration(trace)) <= mkl.LS_MAX_PROBES

    def test_fit_within_the_cap_equals_a_cap_of_20(self, monkeypatch):
        d = rbf_dict(gen_2d_target(4, 2, 40), [0.1, 0.5, 1.0, 5.0, 10.0])
        config = MklConfig(C=0.1, lam=0.01)
        got = fit_mkl(d, config, "ocsvm")
        assert got[1].converged and max(probes_per_iteration(got[1])) == 7
        monkeypatch.setattr(mkl, "LS_MAX_PROBES", 20)
        want = fit_mkl(d, config, "ocsvm")
        assert_same_fit(got, want)
        assert got[1].probes == want[1].probes

    def test_crawling_slim_fit_stops_sooner(self, monkeypatch):
        seed, sigmas, config = self.CRAWL
        d = rbf_dict(gen_2d_target(seed, 2, 40), sigmas)
        _, capped = fit_mkl(d, config, "svdd")
        monkeypatch.setattr(mkl, "LS_MAX_PROBES", 20)
        _, crawl = fit_mkl(d, config, "svdd")
        assert len(capped.probes) < len(crawl.probes)
        # the last search fails at its longest step and its shortest
        assert probes_per_iteration(capped)[-1] == 2
        for trace in (capped, crawl):
            assert not trace.converged
            assert trace.message == "line search found no improving step"


def test_fits_without_forming_the_combined_kernel(monkeypatch):
    # every probe and the model read K_d by rows; nothing forms it whole
    X = gen_2d_target(6, 2, 40)
    dictionary = rbf_dict(X, [0.2, 1.0, 5.0])
    expected, _ = fit_mkl(dictionary, MklConfig(C=0.1, lam=0.1), "svdd")

    def refuse(*args, **kwargs):
        raise AssertionError("the combined kernel was formed")

    monkeypatch.setattr(kernels, "combine", refuse)
    monkeypatch.setattr(np, "tensordot", refuse)
    for kind in ("svdd", "ocsvm"):
        model, trace = fit_mkl(dictionary, MklConfig(C=0.1, lam=0.1), kind)
        assert trace.steps and model.alpha.alpha.sum() == pytest.approx(1.0)
    model, _ = fit_mkl(dictionary, MklConfig(C=0.1, lam=0.1), "svdd")
    assert np.array_equal(model.alpha.alpha, expected.alpha.alpha)


class TestModelIsTheLoopsSolve:
    """fit_mkl builds its model from the loop's last accepted solve and
    solves nothing after the loop."""

    GAP = (18, 25, [0.5, 1.0, 5.0, 10.0], MklConfig(C=0.15))  # seed, n, bandwidths, config
    LINE_SEARCH = (6, 40, [0.2, 1.0, 5.0], MklConfig(C=0.1, lam=0.1))

    def fit(self, case, kind):
        seed, n, sigmas, config = case
        return fit_mkl(rbf_dict(gen_2d_target(seed, 2, n), sigmas), config, kind)

    def test_model_is_the_last_step(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("fit_mkl solved again after its loop")

        monkeypatch.setattr(models, "fit_one_class", refuse)
        for case, message in (
            (self.GAP, "duality gap within tolerance"),
            (self.LINE_SEARCH, "line search found no improving step"),
        ):
            for kind, sign in (("svdd", 1.0), ("ocsvm", -1.0)):
                model, trace = self.fit(case, kind)
                assert trace.message == message and any(p.accepted for p in trace.probes)
                last = trace.steps[-1]
                np.testing.assert_array_equal(model.weights, last.weights)
                assert model.card == last.card
                J = model.alpha.objective if kind == "svdd" else -model.alpha.objective / 2.0
                assert sign * J == last.objective

    def test_fit_that_stops_at_once_equals_a_direct_fit(self):
        d = rbf_dict(gen_2d_target(2, 2, 20), [0.7, 0.7])
        for kind in ("svdd", "ocsvm"):
            model, trace = fit_mkl(d, MklConfig(C=0.2, lam=0.1), kind)
            assert len(trace.steps) == 1 and trace.steps[0].gap == 0.0
            assert trace.converged and not trace.probes
            assert_same_model(model, fit_one_class(kind, d, [0.5, 0.5], 0.2))

    def test_multi_step_fit_is_an_inner_optimum(self):
        kkt_tol = 1e-6  # the inner solves' default
        for kind in ("svdd", "ocsvm"):
            model, trace = self.fit(self.LINE_SEARCH, kind)
            assert len(trace.steps) > 1
            alpha, C = model.alpha.alpha, model.C
            assert (alpha >= 0.0).all() and (alpha <= C).all()
            assert alpha.sum() == pytest.approx(1.0, abs=1e-12)
            cold = fit_one_class(kind, model.dictionary, model.weights, C)
            assert abs(model.alpha.objective - cold.alpha.objective) <= kkt_tol

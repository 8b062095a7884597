import dataclasses

import numpy as np
import pytest

from mksvdd.data import gen_2d_target
from mksvdd import kernels, models, qp
from mksvdd.kernels import KernelDictionary, KernelSpec, cross_gram
from mksvdd.mkl import fit_method
from mksvdd.models import (
    KINDS,
    _inner_solve,
    bounded_sv_indices,
    fit_ocsvm,
    fit_svdd,
    model_from_dict,
    model_to_dict,
    score,
    score_ids,
    train_scores,
)
from mksvdd.qp import AlphaSolution, cold_start, sv_threshold
from oracles import random_psd, svdd_decision_loops


def rbf_dictionary(X, sigma=1.0):
    return KernelDictionary.from_data([KernelSpec.rbf(sigma)], X)


class TestFitSvdd:
    def test_single_point_zero_radius(self):
        d = rbf_dictionary(np.array([[0.3, -0.2]]))
        model = fit_svdd(d, [1.0], 2.0)
        assert model.alpha.alpha.tolist() == [1.0]
        assert model.threshold == pytest.approx(0.0, abs=1e-12)
        assert score(model, np.array([[0.3, -0.2]]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_non_finite_weights_rejected(self):
        d = KernelDictionary.from_data(
            [KernelSpec.rbf(0.5), KernelSpec.rbf(5.0)], gen_2d_target(2, 1, 10).features
        )
        with pytest.raises(ValueError, match="finite"):
            fit_svdd(d, [np.nan, np.nan], 0.2)

    @pytest.mark.parametrize("C", [np.nan, np.inf])
    def test_non_finite_C_rejected(self, C):
        d = rbf_dictionary(gen_2d_target(2, 1, 10).features)
        with pytest.raises(ValueError, match="C must be finite"):
            fit_svdd(d, [1.0], C)

    def test_two_identical_points(self):
        X = np.array([[1.0, 1.0], [1.0, 1.0]])
        model = fit_svdd(rbf_dictionary(X), [1.0], 0.5)
        assert model.threshold == pytest.approx(0.0, abs=1e-9)

    def test_training_constraint_against_triple_sum(self):
        X = gen_2d_target(21, 1, 20).features
        d = rbf_dictionary(X, 1.0)
        model = fit_svdd(d, [1.0], 0.1, kkt_tol=1e-8)
        K = d.grams[0].values
        alpha = model.alpha.alpha
        tau = sv_threshold(0.1)
        for i in range(20):
            f_i = svdd_decision_loops(K.tolist(), alpha.tolist(), i)
            slack = f_i - model.threshold
            if alpha[i] < 0.1 - tau:
                assert slack <= 1e-6
        # and the library's own training scores agree with the loops
        lib = train_scores(model)
        for i in range(20):
            f_i = svdd_decision_loops(K.tolist(), alpha.tolist(), i)
            assert lib[i] == pytest.approx(f_i - model.threshold, abs=1e-10)

    # frozen value of qp_grid_search(K, diag(K), 0.5, step=1e-3) on the
    # rng(33) instance below (exhaustive 1e-3 enumeration, ~13 s)
    GRID_VALUE = 0.45411755148204747

    def test_objective_matches_grid_oracle(self):
        rng = np.random.default_rng(33)
        X = rng.standard_normal((4, 2))
        d = rbf_dictionary(X, 1.2)
        model = fit_svdd(d, [1.0], 0.5, kkt_tol=1e-8)
        assert model.alpha.objective == pytest.approx(self.GRID_VALUE, abs=1e-4)


class TestFitOcsvm:
    def test_single_point(self):
        d = rbf_dictionary(np.array([[2.0, 0.0]]))
        model = fit_ocsvm(d, [1.0], 2.0)
        assert model.alpha.alpha.tolist() == [1.0]
        assert model.threshold == pytest.approx(1.0)  # rho = k11 = 1 for rbf
        assert score(model, np.array([[2.0, 0.0]]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_alpha_matches_svdd_for_rbf(self):
        # constant diagonal shifts the objective by a constant only
        X = gen_2d_target(5, 2, 25).features
        d = rbf_dictionary(X, 0.8)
        a = fit_svdd(d, [1.0], 0.2, kkt_tol=1e-9).alpha.alpha
        b = fit_ocsvm(d, [1.0], 0.2, kkt_tol=1e-9).alpha.alpha
        np.testing.assert_allclose(a, b, atol=1e-6)

    # frozen value of qp_grid_search(K, zeros, 0.5, step=1e-3) on the
    # rng(35) instance below
    GRID_VALUE = -0.03697363031554059

    def test_objective_matches_grid_oracle(self):
        rng = np.random.default_rng(35)
        K = random_psd(rng, 4)
        d = KernelDictionary.from_matrices({"k": K})
        model = fit_ocsvm(d, [1.0], 0.5, kkt_tol=1e-8)
        assert model.alpha.objective == pytest.approx(self.GRID_VALUE, abs=1e-4)


class TestScore:
    def fit(self, seed=3, C=0.15, sigma=1.0, n=30):
        X = gen_2d_target(seed, 2, n).features
        model = fit_svdd(rbf_dictionary(X, sigma), [1.0], C, kkt_tol=1e-9)
        return X, model

    def test_margin_sv_on_boundary(self):
        X, model = self.fit()
        margin = model.alpha.margin_sv_indices
        assert margin.size > 0
        values = score(model, X[margin])
        np.testing.assert_allclose(values, 0.0, atol=1e-6)

    def test_far_point_limit(self):
        X, model = self.fit(sigma=0.5)
        far = X.mean(axis=0) + np.array([1e3 * 0.5, 0.0])
        val = score(model, far[None, :])[0]
        # decision value tends to 1 + alpha' K alpha
        assert val == pytest.approx(1.0 + model.self_term - model.threshold, abs=1e-12)
        assert val > 0

    def test_interior_points_accepted(self):
        X, model = self.fit(C=0.2)
        tau = sv_threshold(model.C)
        free = model.alpha.alpha < model.C - tau
        assert (train_scores(model)[free] <= 1e-6).all()

    def test_slacks_only_at_bounded(self):
        X, model = self.fit(C=0.07)
        slacks = np.maximum(train_scores(model), 0.0)
        bounded = set(bounded_sv_indices(model).tolist())
        for i in np.flatnonzero(slacks > 1e-6):
            assert i in bounded

    def test_dimension_mismatch(self):
        X, model = self.fit()
        with pytest.raises(ValueError, match="dimension"):
            score(model, np.zeros((2, 5)))

    def test_permutation_invariance(self):
        X = gen_2d_target(13, 2, 24).features
        grid = np.random.default_rng(0).uniform(-2, 2, size=(40, 2))
        base = score(fit_svdd(rbf_dictionary(X), [1.0], 0.2, kkt_tol=1e-10), grid)
        perm = np.random.default_rng(1).permutation(24)
        shuffled = score(
            fit_svdd(rbf_dictionary(X[perm]), [1.0], 0.2, kkt_tol=1e-10), grid
        )
        np.testing.assert_allclose(base, shuffled, atol=1e-6)


def count_solves(monkeypatch) -> list:
    """A list that gains an entry each time an inner solve runs."""
    calls, solve_raw = [], models.solve_raw
    monkeypatch.setattr(models, "solve_raw", lambda *a, **k: calls.append(0) or solve_raw(*a, **k))
    return calls


def assert_same_solution(got: AlphaSolution, want: AlphaSolution):
    for name in ("alpha", "sv_indices", "margin_sv_indices"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert (got.objective, got.iterations, got.peak, got.violation, got.finished,
            got.finish_systems) == (
        want.objective, want.iterations, want.peak, want.violation, want.finished,
        want.finish_systems,
    )


def fresh(d: KernelDictionary) -> KernelDictionary:
    """d's kernels and training examples in a new dictionary, whose memo
    holds no solve yet and whose rows are recomputed with the same bits."""
    return KernelDictionary(d.specs, d.train)


class TestInnerSolveMemo:
    """_inner_solve returns a solution from the dictionary's memo only
    where solving again would repeat it bit for bit."""

    # n = 30; a cold solve at these weights peaks at 0.194 for any C >= 0.2,
    # one warm-started from it at 0.211, and both bind a box of 0.06
    WEIGHTS = np.array([0.3, 0.7])
    OTHER = np.array([0.6, 0.4])

    def dictionary(self):
        X = gen_2d_target(41, 2, 30)
        return KernelDictionary.from_data([KernelSpec.rbf(0.5), KernelSpec.rbf(5.0)], X)

    def test_same_C_returns_the_stored_solution(self, monkeypatch):
        d = self.dictionary()
        calls = count_solves(monkeypatch)
        for C in (0.06, 1.0):  # the box binds at 0.06 and at 1.0 does not
            cold = _inner_solve("svdd", d, self.WEIGHTS, C)
            warm = _inner_solve("svdd", d, self.OTHER, C, cold.alpha)
            start = len(calls)
            assert _inner_solve("svdd", d, self.WEIGHTS, C) is cold
            assert _inner_solve("svdd", d, self.OTHER, C, cold.alpha.copy()) is warm
            assert len(calls) == start

    def test_another_C_under_both_boxes_equals_a_fresh_solve(self, monkeypatch):
        base = self.dictionary()
        calls = count_solves(monkeypatch)
        for kind in KINDS:
            for source, C in ((1.0, 0.5), (0.5, 1.0)):
                d = fresh(base)
                cold = _inner_solve(kind, d, self.WEIGHTS, source)
                _inner_solve(kind, d, self.OTHER, source, cold.alpha)
                start = len(calls)
                got_cold = _inner_solve(kind, d, self.WEIGHTS, C)
                got_warm = _inner_solve(kind, d, self.OTHER, C, cold.alpha)
                assert len(calls) == start
                want_cold = _inner_solve(kind, fresh(base), self.WEIGHTS, C)
                want_warm = _inner_solve(kind, fresh(base), self.OTHER, C, cold.alpha)
                assert max(want_cold.peak, want_warm.peak) < 0.5 - sv_threshold(C)
                assert_same_solution(got_cold, want_cold)
                assert_same_solution(got_warm, want_warm)

    def test_recomputes_when_a_box_binds(self, monkeypatch):
        base = self.dictionary()
        calls = count_solves(monkeypatch)
        # the stored solve bound its own box (0.06), or would bind the new one
        for source, C in ((0.06, 0.5), (1.0, 0.06)):
            d = fresh(base)
            stored = _inner_solve("svdd", d, self.WEIGHTS, source)
            assert stored.peak >= min(source, C) - sv_threshold(C)
            start = len(calls)
            got = _inner_solve("svdd", d, self.WEIGHTS, C)
            assert len(calls) == start + 1
            assert_same_solution(got, _inner_solve("svdd", fresh(base), self.WEIGHTS, C))

    def test_recomputes_at_another_threshold_kind_or_start(self, monkeypatch):
        d = self.dictionary()
        stored = _inner_solve("svdd", d, self.WEIGHTS, 1.0)
        assert stored.peak < 1.0 - sv_threshold(1.0)
        calls = count_solves(monkeypatch)
        # sv_threshold(2.0) != sv_threshold(1.0), though neither box binds
        got = _inner_solve("svdd", d, self.WEIGHTS, 2.0)
        _inner_solve("ocsvm", d, self.WEIGHTS, 1.0)
        _inner_solve("svdd", d, self.WEIGHTS, 1.0, np.full(30, 1 / 30))
        _inner_solve("svdd", d, self.OTHER, 1.0)
        assert len(calls) == 4
        assert_same_solution(got, _inner_solve("svdd", fresh(d), self.WEIGHTS, 2.0))

    def test_hit_after_finish_tries_equals_a_fresh_solve(self, monkeypatch):
        # the finish tests its systems against C and repairs the active set
        # on what it finds; each system tested there enters peak, so a hit
        # at another C, above or below, stays exact: a candidate a small box
        # rejected may pass a larger one. Every third set is 20 points
        # twice: twin rows, both free, make the finish's systems singular,
        # so pair updates end those solves
        tries = []
        finish = qp._finish
        monkeypatch.setattr(qp, "_finish", lambda *a: tries.append(finish(*a)) or tries[-1])
        rng = np.random.default_rng(75)
        hits = []  # (finished, a try took a repair step)
        for round in range(6):
            X = rng.normal(size=(40, 2))
            if round % 3 == 2:
                X[20:] = X[:20]
            base = KernelDictionary.from_data([KernelSpec.rbf(0.1), KernelSpec.rbf(1.0)], X)
            weights, other = rng.dirichlet(np.ones(2), size=2)
            for kind in KINDS:
                cold = _inner_solve(kind, fresh(base), weights, 1.0)
                mid = 0.5 * (1.0 + max(cold.peak, 1 / 40))
                for w, start in ((weights, None), (other, cold.alpha)):
                    for source, C in ((1.0, mid), (mid, 1.0)):
                        d = fresh(base)
                        tries.clear()
                        stored = _inner_solve(kind, d, w, source, start)
                        repaired = any(systems > 1 for *_, systems in tries)
                        calls = count_solves(monkeypatch)
                        got = _inner_solve(kind, d, w, C, start)
                        if not calls:
                            hits.append((stored.finished, repaired))
                        assert_same_solution(got, _inner_solve(kind, fresh(base), w, C, start))
                        monkeypatch.setattr(models, "solve_raw", qp.solve_raw)
        # hits of solves the finish ended and of solves the pair updates
        # ended, and of solves whose finish repaired its active set
        assert len(hits) >= 20
        assert {finished for finished, _ in hits} == {True, False}
        assert sum(repaired for _, repaired in hits) >= 5

    def test_cold_solves_share_only_a_start(self):
        # n = 200: a cold solve at C = 0.03 < 1/COLD_START_ROWS starts on
        # ceil(1/C) = 34 rows and stays under 0.03, one at C = 0.5 starts on
        # COLD_START_ROWS = 24 rows, so only the start in the key keeps the
        # first from serving the second
        d = KernelDictionary.from_data([KernelSpec.rbf(0.003)], gen_2d_target(0, 2, 200))
        cold = _inner_solve("svdd", fresh(d), np.ones(1), 0.03)
        assert np.count_nonzero(cold_start(200, 0.03)) == 34
        assert cold.peak < 0.03 - sv_threshold(0.5)
        for method in ("svdd", "ocsvm"):
            for C in (0.03, 0.5):
                model, trace = fit_method(method, d, C)
                want, want_trace = fit_method(method, fresh(d), C)
                assert_same_solution(model.alpha, want.alpha)
                assert (model.threshold, model.self_term) == (want.threshold, want.self_term)
                assert trace.table() == want_trace.table()

    def test_builds_a_combined_kernel_per_solve_and_per_model(self, monkeypatch):
        builds, init = [], kernels.CombinedKernel.__init__
        monkeypatch.setattr(
            kernels.CombinedKernel, "__init__", lambda op, *a: builds.append(0) or init(op, *a)
        )
        calls = count_solves(monkeypatch)
        d = self.dictionary()
        stored = _inner_solve("svdd", d, self.WEIGHTS, 1.0)
        assert len(builds) == len(calls) == 1
        # memo hits, at the same C and at one under both boxes, build nothing
        assert _inner_solve("svdd", d, self.WEIGHTS, 1.0) is stored
        _inner_solve("svdd", d, self.WEIGHTS, 0.5)
        assert len(builds) == len(calls) == 1
        # a (C, lambda) grid of MKL fits, whose solves the memo partly serves
        models_built, asked = 0, len(calls)
        for C in (0.1, 0.5, 1.0):
            for lam in (0.0, 0.1):
                _, trace = fit_method("slim-mk-svdd", d, C, lam)
                models_built += 1
                asked += 1 + len(trace.probes)  # the start, then each probe
        assert len(calls) < asked
        assert len(builds) == len(calls) + models_built

    def test_stored_solutions_are_read_only(self):
        # every model fitted on the dictionary shares the stored alpha, so
        # a write into one would change what later fits return
        d = self.dictionary()
        model = fit_svdd(d, self.WEIGHTS, 0.5)
        with pytest.raises(ValueError, match="read-only"):
            model.alpha.alpha[0] = 0.5
        again, want = fit_svdd(d, self.WEIGHTS, 0.5), fit_svdd(fresh(d), self.WEIGHTS, 0.5)
        assert again.alpha is model.alpha
        assert_same_solution(again.alpha, want.alpha)
        assert (again.threshold, again.self_term) == (want.threshold, want.self_term)


class TestEquivalence:
    def test_svdd_ocsvm_same_decisions_rbf(self):
        for seed in range(5):
            X = gen_2d_target(seed, 2, 30).features
            d = rbf_dictionary(X, 1.0)
            m_svdd = fit_svdd(d, [1.0], 0.2, kkt_tol=1e-9)
            m_ocsvm = fit_ocsvm(d, [1.0], 0.2, kkt_tol=1e-9)
            g = np.random.default_rng(seed).uniform(-2, 2, size=(200, 2))
            s1 = score(m_svdd, g)
            s2 = score(m_ocsvm, g)
            assert ((s1 > 0) == (s2 > 0)).all()
            # svdd score is exactly twice the ocsvm score for unit-diagonal kernels
            np.testing.assert_allclose(s1, 2.0 * s2, atol=1e-6)


class TestPrecomputedScoring:
    def test_score_ids_matches_feature_path(self):
        X = gen_2d_target(9, 1, 15).features
        spec = KernelSpec.rbf(0.9)
        feature_dict = KernelDictionary.from_data([spec], X)
        full = feature_dict.grams[0].values
        pre_dict = KernelDictionary.from_matrices({"k": full}, train_ids=np.arange(10))
        model_pre = fit_svdd(pre_dict, [1.0], 0.3, kkt_tol=1e-10)
        train_dict = KernelDictionary.from_data([spec], X[:10])
        model_feat = fit_svdd(train_dict, [1.0], 0.3, kkt_tol=1e-10)
        np.testing.assert_allclose(
            score_ids(model_pre, np.arange(10, 15)),
            score(model_feat, X[10:]),
            atol=1e-9,
        )


class TestSupportScoring:
    """Scores read only rows with alpha != 0 and kernels with d_m != 0."""

    WEIGHTS = [0.6, 0.0, 0.4]

    @staticmethod
    def dense(model, cross, diags):
        """The all-rows x all-kernels formula, zero terms included."""
        d = model.weights
        g = sum(w * c for w, c in zip(d, cross)) @ model.alpha.alpha
        if model.kind == "svdd":
            return d @ diags - 2.0 * g + model.self_term - model.threshold
        return model.threshold - g

    @pytest.mark.parametrize("fit", [fit_svdd, fit_ocsvm])
    def test_feature_path_equals_dense_formula(self, fit):
        X = gen_2d_target(4, 2, 40).features
        specs = [KernelSpec.rbf(0.5), KernelSpec.poly(2), KernelSpec.rbf(5.0)]
        model = fit(KernelDictionary.from_data(specs, X), self.WEIGHTS, 0.1)
        assert (model.alpha.alpha == 0.0).any() and (model.weights == 0.0).any()
        T = np.random.default_rng(8).uniform(-2, 2, size=(50, 2))
        cross = [cross_gram(spec, X, T) for spec in specs]
        ones, poly = np.ones(len(T)), (np.sum(T * T, axis=1) + 1.0) ** 2
        diags = np.stack([ones, poly, ones])  # k(t, t) of each spec
        np.testing.assert_allclose(score(model, T), self.dense(model, cross, diags), atol=1e-12, rtol=0)

    @pytest.mark.parametrize("fit", [fit_svdd, fit_ocsvm])
    def test_precomputed_path_equals_dense_formula(self, fit):
        rng = np.random.default_rng(9)
        fulls = {f"k{m}": random_psd(rng, 30) for m in range(3)}
        train, test = np.arange(0, 30, 2), np.arange(30)
        dictionary = KernelDictionary.from_matrices(fulls, train_ids=train)
        model = fit(dictionary, self.WEIGHTS, 0.2)
        assert (model.alpha.alpha == 0.0).any() and (model.weights == 0.0).any()
        cross = [M[np.ix_(test, train)] for M in fulls.values()]
        diags = np.stack([np.diag(M)[test] for M in fulls.values()])
        np.testing.assert_allclose(
            score_ids(model, test), self.dense(model, cross, diags), atol=1e-12, rtol=0
        )

    def test_only_active_kernels_over_support_rows(self, monkeypatch):
        X = gen_2d_target(4, 2, 40).features
        specs = [KernelSpec.rbf(0.5), KernelSpec.poly(2), KernelSpec.rbf(5.0)]
        model = fit_svdd(KernelDictionary.from_data(specs, X), self.WEIGHTS, 0.1)
        calls, blocks, entry_calls, entries = [], kernels._blocks, [], kernels._entries

        def counting(block_specs, A, B=None):
            calls.append((list(block_specs), np.asarray(B).copy()))
            return blocks(block_specs, A, B)

        def counting_entries(A, B, kind, *args):
            out = entries(A, B, kind, *args)
            entry_calls.append((kind, out.shape))
            return out

        support = X[np.flatnonzero(model.alpha.alpha)]
        assert 0 < len(support) < len(X)
        monkeypatch.setattr(kernels, "_blocks", counting)
        monkeypatch.setattr(kernels, "_entries", counting_entries)
        # test rows in blocks of two: a full block, then a ragged one
        monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 2 * len(support))
        score(model, np.zeros((3, 2)))
        [(active, rows)] = calls
        assert active == [specs[0], specs[2]]
        np.testing.assert_array_equal(rows, support)
        # the two active rbf kernels share one block of squared distances
        assert entry_calls == [("rbf", (2, len(support))), ("rbf", (1, len(support)))]

    def test_test_examples_checked_once(self, monkeypatch):
        # one check serves the blocks and the test diagonals of every kernel
        X = gen_2d_target(4, 2, 40).features
        specs = [KernelSpec.rbf(0.5), KernelSpec.poly(2), KernelSpec.rbf(5.0)]
        model = fit_svdd(KernelDictionary.from_data(specs, X), [0.3, 0.3, 0.4], 0.1)
        calls, examples = [], kernels._examples

        def counting(example_specs, examples_in):
            calls.append(len(examples_in))
            return examples(example_specs, examples_in)

        monkeypatch.setattr(kernels, "_examples", counting)
        score(model, np.zeros((3, 2)))
        assert calls == [3]


class TestScoresPerRow:
    """A test row's score is a function of that row and the model alone."""

    @pytest.mark.parametrize("dim", [2, 7])
    @pytest.mark.parametrize("fit", [fit_svdd, fit_ocsvm])
    def test_a_batch_scores_as_each_row_alone_and_permuted(self, fit, dim):
        rng = np.random.default_rng(dim)
        X, T = rng.standard_normal((300, dim)), 1.5 * rng.standard_normal((997, dim))
        specs = [KernelSpec.rbf(0.5), KernelSpec.rbf(2.0), KernelSpec.poly(2)]
        model = fit(KernelDictionary.from_data(specs, X), [0.4, 0.3, 0.3], 0.05)
        batch = score(model, T)
        alone = np.concatenate([score(model, T[i : i + 1]) for i in range(len(T))])
        assert batch.tobytes() == alone.tobytes()
        perm = rng.permutation(len(T))
        assert batch[perm].tobytes() == score(model, T[perm]).tobytes()


class TestSerialization:
    def test_round_trip_scores(self):
        X = gen_2d_target(2, 2, 18).features
        d = rbf_dictionary(X, 1.5)
        model = fit_svdd(d, [1.0], 0.25)
        raw = model_to_dict(model)
        back = model_from_dict(raw)
        grid = np.random.default_rng(5).uniform(-2, 2, size=(30, 2))
        np.testing.assert_allclose(score(model, grid), score(back, grid), atol=1e-12)
        # the loaded model runs over the support rows only
        assert model.card < d.n_train
        np.testing.assert_array_equal(back.dictionary.train, X[model.alpha.sv_indices])
        raw["support_features"].pop()
        with pytest.raises(ValueError, match="support vectors"):
            model_from_dict(raw)

    def test_loading_and_scoring_compute_no_training_row(self):
        X = gen_2d_target(3, 2, 60).features
        specs = [KernelSpec.rbf(0.5), KernelSpec.poly(2), KernelSpec.rbf(5.0)]
        model = fit_svdd(KernelDictionary.from_data(specs, X), [0.5, 0.2, 0.3], 0.1)
        computed = model.dictionary.rows_computed
        back = model_from_dict(model_to_dict(model))
        T = np.random.default_rng(6).uniform(-2, 2, size=(20, 2))
        score(back, T)
        score(model, T)
        assert back.dictionary.rows_computed == 0
        assert model.dictionary.rows_computed == computed
        # the loaded model's Grams are still there to read, over its support
        sv = np.flatnonzero(model.alpha.alpha)
        grams = back.dictionary.grams
        assert len(grams) == len(specs)
        for loaded, fitted in zip(grams, model.dictionary.grams):
            assert loaded.values.tobytes() == fitted.values[np.ix_(sv, sv)].tobytes()

    def test_stores_every_nonzero_alpha(self):
        # move 6.2e-8 of one support vector's weight to a row outside the
        # support: an alpha below sv_threshold(C) but read by score, so
        # the file must keep it
        X = gen_2d_target(9, 1, 200).features
        d = KernelDictionary.from_data([KernelSpec.rbf(b) for b in (0.1, 0.3, 1, 3)], X)
        fitted, _ = fit_method("slim-mk-svdd", d, 0.2, 0.1)
        a = fitted.alpha
        alpha = a.alpha.copy()
        alpha[a.sv_indices[0]] -= 6.2e-8
        alpha[np.flatnonzero(alpha == 0.0)[0]] = 6.2e-8
        solution = AlphaSolution.from_alpha(alpha, a.objective, fitted.C, a.iterations, a.peak)
        model = dataclasses.replace(fitted, alpha=solution)
        raw = model_to_dict(model)
        assert raw["alpha"]["indices"] == np.flatnonzero(model.alpha.alpha).tolist()
        assert len(raw["alpha"]["indices"]) > model.card
        assert abs(sum(raw["alpha"]["values"]) - 1.0) <= 1e-12
        grid = np.random.default_rng(3).uniform(-3, 3, size=(40, 2))
        np.testing.assert_allclose(
            score(model_from_dict(raw), grid), score(model, grid), atol=1e-12, rtol=0
        )

    def test_sparse_alpha_stored(self):
        X = gen_2d_target(2, 1, 40).features
        model = fit_svdd(rbf_dictionary(X, 0.7), [1.0], 0.1)
        raw = model_to_dict(model)
        assert len(raw["alpha"]["indices"]) == model.card
        assert raw["alpha"]["length"] == 40

    def test_kernel_mismatch_rejected(self):
        X = gen_2d_target(2, 1, 10).features
        model = fit_svdd(rbf_dictionary(X, 0.7), [1.0], 0.2)
        raw = model_to_dict(model)
        raw["kernels"].append(KernelSpec.rbf(0.9).to_dict())
        with pytest.raises(ValueError, match="weights"):
            model_from_dict(raw)

    def fit_precomputed(self):
        rng = np.random.default_rng(9)
        fulls = {f"k{m}": random_psd(rng, 30) for m in range(2)}
        train = np.arange(0, 30, 2)
        dictionary = KernelDictionary.from_matrices(fulls, train_ids=train)
        model = fit_svdd(dictionary, [0.5, 0.5], 0.2)
        return fulls, train, model

    def test_precomputed_round_trip(self):
        fulls, train, model = self.fit_precomputed()
        raw = model_to_dict(model)
        assert raw["train_ids"] == train.tolist() and "support_features" not in raw
        back = model_from_dict(raw, fulls)
        np.testing.assert_array_equal(back.dictionary.train, train[model.alpha.sv_indices])
        test = np.arange(30)
        np.testing.assert_allclose(score(back, test), score_ids(model, test), atol=1e-12, rtol=0)

    @pytest.mark.parametrize("key, value, message", [
        ("train_ids", 5, "train_ids must be a JSON list"),
        ("alpha", {"indices": 0, "values": [1.0]}, "alpha.indices must be a JSON list"),
        # ids kept from before the messages named the entry
        pytest.param("alpha", {"indices": ["0"], "values": [1.0]},
                     r"alpha.indices\[0\] must be an integer",
                     id="alpha-value2-alpha.indices must hold rows"),
        ("alpha", {"indices": [15], "values": [1.0]}, "alpha.indices must hold rows"),
        pytest.param("alpha", {"indices": [-1], "values": [1.0]},
                     r"alpha.indices\[0\] must be an integer",
                     id="alpha-value4-alpha.indices must hold rows"),
        ("kernels", [], "kernels must name at least one kernel"),
        pytest.param("kernels", [{"kind": "precomputed", "matrix_id": ["k0"]}],
                     r"kernels\[0\].matrix_id must be a string",
                     id="kernels-value6-needs a matrix_id"),
    ])
    def test_wrong_type_names_the_key(self, key, value, message):
        # each ended in a TypeError or IndexError; -1 picked the last id
        fulls, _, model = self.fit_precomputed()
        raw = model_to_dict(model)
        raw[key] = value
        with pytest.raises(ValueError, match=message):
            model_from_dict(raw, fulls)

    def test_precomputed_missing_matrix(self):
        fulls, _, model = self.fit_precomputed()
        raw = model_to_dict(model)
        with pytest.raises(ValueError, match="no matrix loaded for precomputed kernel 'k1'"):
            model_from_dict(raw, {"k0": fulls["k0"]})
        with pytest.raises(ValueError, match="no matrix loaded"):
            model_from_dict(raw)

import numpy as np
import pytest

from mksvdd import evaluation, mkl, models
from mksvdd.data import SplitPlan, gen_2d_target, split
from mksvdd.evaluation import (
    UndefinedMetricError,
    auc,
    classification_accuracy,
    detections_before_first_false_alarm,
    grid_search,
    precision_recall,
    rank_metrics,
)
from mksvdd.kernels import KernelDictionary, KernelSpec, gram
from mksvdd.models import fit_svdd, score
from mksvdd.qp import ConvergenceError
from oracles import auc_pair_count, pr_curve_thresholds


def fresh(d: KernelDictionary) -> KernelDictionary:
    """d's Grams in a new dictionary, whose memo holds no solve yet."""
    return KernelDictionary(d.specs, d.stack, d.train)


class TestAuc:
    def test_perfect_separation(self):
        scores = np.array([5.0, 4.0, 1.0, 0.0, -1.0])
        labels = np.array([-1, -1, 1, 1, 1])
        assert auc(scores, labels) == 1.0

    def test_all_ties(self):
        scores = np.zeros(6)
        labels = np.array([-1, 1, -1, 1, -1, 1])
        assert auc(scores, labels) == 0.5

    def test_six_example_mixed_matches_pair_count(self):
        scores = np.array([3.0, 1.0, 2.0, 2.0, 0.5, -1.0])
        labels = np.array([-1, 1, -1, 1, -1, 1])
        assert auc(scores, labels) == pytest.approx(
            auc_pair_count(scores, labels), abs=1e-15
        )

    def test_random_cases_match_pair_count(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(4, 30))
            scores = np.round(rng.standard_normal(n), 1)  # induce ties
            labels = rng.choice([-1, 1], size=n)
            if len(set(labels.tolist())) < 2:
                continue
            assert auc(scores, labels) == pytest.approx(
                auc_pair_count(scores, labels), abs=1e-12
            )

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auc(np.array([1.0, 2.0]), np.array([1, 1]))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal(30)
        labels = rng.choice([-1, 1], size=30)
        labels[0], labels[1] = -1, 1
        base = auc(scores, labels)
        for transform in (np.tanh, lambda s: s**3, lambda s: 2.0 * s + 7.0):
            assert auc(transform(scores), labels) == pytest.approx(base, abs=1e-12)



def loop_average_ranks(values):
    """Tie-averaged ranks by a scan over sorted tie runs, one run at a time."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


class TestAverageRanks:
    def check(self, values):
        values = np.asarray(values, dtype=float)
        got = evaluation._average_ranks(values)
        assert got.tobytes() == loop_average_ranks(values).tobytes()

    def test_random_tie_patterns(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            n = int(rng.integers(1, 200))
            values = rng.integers(0, int(rng.integers(1, 40)), size=n) * 0.1
            if trial % 4 == 0:
                values[rng.random(n) < 0.1] = -0.0
            self.check(values)

    def test_size_one_all_equal_and_nan(self):
        self.check([3.0])
        self.check(np.full(17, 0.25))
        self.check([np.nan, 1.0, np.nan, 1.0, 0.0, np.nan])
        self.check([np.nan] * 5)

    def test_ties_share_their_average_rank(self):
        ranks = evaluation._average_ranks(np.array([2.0, 1.0, 2.0, 0.0, 2.0]))
        assert ranks.tolist() == [4.0, 2.0, 4.0, 1.0, 4.0]


class TestPrecisionRecall:
    def test_all_outliers_first(self):
        # the sweep continues past full recall, so assert that the first
        # threshold reaching each recall level has precision 1.0
        scores = np.array([4.0, 3.0, 2.0, 1.0])
        labels = np.array([-1, -1, 1, 1])
        curve = precision_recall(scores, labels)
        for r in np.unique(curve[:, 0]):
            assert curve[curve[:, 0] == r][0, 1] == 1.0

    def test_one_outlier_last(self):
        scores = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        labels = np.array([-1, 1, 1, 1, -1])
        curve = precision_recall(scores, labels)
        full_recall = curve[curve[:, 0] == 1.0]
        assert full_recall[-1, 1] == pytest.approx(2.0 / 5.0)

    def test_eight_point_exhaustive_match(self):
        scores = np.array([3.0, 2.5, 2.5, 2.0, 1.0, 0.5, 0.5, -1.0])
        labels = np.array([-1, 1, -1, -1, 1, -1, 1, 1])
        curve = precision_recall(scores, labels)
        expected = pr_curve_thresholds(scores, labels)
        np.testing.assert_allclose(curve[1:], expected, atol=1e-15)

    def test_anchor_and_row_count(self):
        scores = np.array([3.0, 2.0, 2.0, 1.0])
        labels = np.array([-1, 1, -1, 1])
        curve = precision_recall(scores, labels)
        assert curve.shape[0] == 3 + 1  # distinct scores + anchor
        assert curve[0, 0] == 0.0
        assert curve[0, 1] == 1.0  # top example is an outlier

    def test_recalls_non_decreasing(self):
        rng = np.random.default_rng(2)
        scores = rng.standard_normal(25)
        labels = rng.choice([-1, 1], size=25)
        labels[:2] = [-1, 1]
        curve = precision_recall(scores, labels)
        assert (np.diff(curve[:, 0]) >= 0).all()

    def test_no_outlier_undefined(self):
        with pytest.raises(UndefinedMetricError):
            precision_recall(np.array([1.0]), np.array([1]))


class TestDetections:
    def test_counts_before_first_target(self):
        scores = np.array([9.0, 8.0, 7.0, 6.0, 5.0])
        labels = np.array([-1, -1, 1, -1, 1])
        assert detections_before_first_false_alarm(scores, labels) == 2

    def test_all_outliers_first(self):
        scores = np.array([2.0, 1.0, 0.0])
        labels = np.array([-1, -1, 1])
        assert detections_before_first_false_alarm(scores, labels) == 2


class TestAccuracy:
    def test_decision_rule(self):
        scores = np.array([-1.0, 0.0, 0.5, 2.0])
        labels = np.array([1, 1, -1, -1])
        assert classification_accuracy(scores, labels) == 1.0
        assert classification_accuracy(scores, -labels) == 0.0


class TestRankMetrics:
    def test_target_on_top(self):
        m = rank_metrics(np.array([-2.0, 1.0, 3.0]), ["target", "similar", "other"])
        assert m.win is True
        assert m.rank_first_target == 1
        assert m.rank_first_similar == 2

    def test_ties_stable_by_position(self):
        m = rank_metrics(np.zeros(3), ["other", "target", "similar"])
        assert m.rank_first_target == 2
        assert m.rank_first_similar == 3

    def test_no_target_undefined(self):
        with pytest.raises(UndefinedMetricError):
            rank_metrics(np.array([1.0]), ["similar"])

    def test_missing_similar_is_none(self):
        m = rank_metrics(np.array([1.0, 2.0]), ["target", "other"])
        assert m.rank_first_similar is None

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.standard_normal(40)
        roles = np.array(["other"] * 40, dtype=object)
        roles[rng.integers(0, 40, 5)] = "target"
        roles[0] = "similar"
        base = rank_metrics(scores, roles)
        scaled = rank_metrics(3.0 * scores + 11.0, roles)
        assert base == scaled

    def test_monte_carlo_expected_first_rank(self):
        # 10 targets uniformly placed among 100: E[first rank] = 101/11
        rng = np.random.default_rng(4)
        ranks = []
        for _ in range(3000):
            scores = rng.standard_normal(100)
            roles = np.array(["other"] * 100, dtype=object)
            roles[rng.choice(100, size=10, replace=False)] = "target"
            ranks.append(rank_metrics(scores, roles).rank_first_target)
        assert np.mean(ranks) == pytest.approx(101.0 / 11.0, abs=0.4)


class TestGridSearch:
    def make_outlier_matrix(self, seed=0, n_in=40, n_out=6):
        rng = np.random.default_rng(seed)
        inliers = rng.standard_normal((n_in, 2)) * 0.2
        outliers = rng.uniform(-3, 3, size=(n_out, 2))
        feats = np.vstack([inliers, outliers])
        labels = np.array([1] * n_in + [-1] * n_out)
        from mksvdd.data import SampleMatrix

        return SampleMatrix(feats, labels)

    def test_singleton_grid_equals_direct_fit(self):
        m = self.make_outlier_matrix()
        result = grid_search(m, [KernelSpec.rbf(0.5)], ["svdd"], [0.1])
        cell = result.best["svdd"]
        dictionary = KernelDictionary.from_data([KernelSpec.rbf(0.5)], m)
        model = fit_svdd(dictionary, [1.0], 0.1)
        direct = auc(score(model, m.features), m.labels)
        assert cell.score == pytest.approx(direct, abs=1e-12)
        assert len(result.table) == 1

    def test_methods_may_be_a_generator(self):
        m = self.make_outlier_matrix()
        result = grid_search(m, [KernelSpec.rbf(0.5)], (x for x in ["svdd"]), [0.1, 0.3])
        assert len(result.table) == 2
        assert result.best["svdd"].error is None

    def test_shared_cells_equal_independent_fits(self, monkeypatch):
        m = self.make_outlier_matrix(n_in=60)
        args = (
            m,
            [KernelSpec.rbf(0.5), KernelSpec.rbf(5.0)],
            ["slim-mk-ocsvm", "mk-svdd", "svdd"],
            [0.5, 0.03, 1.0, 0.2],
            [0.1, 0.0, 1.0],
        )
        fit_mkl, fits = mkl.fit_mkl, []
        monkeypatch.setattr(mkl, "fit_mkl", lambda *a, **k: fits.append(0) or fit_mkl(*a, **k))
        solve_raw, solves = models.solve_raw, []
        monkeypatch.setattr(
            models, "solve_raw", lambda *a, **k: solves.append(0) or solve_raw(*a, **k)
        )
        shared = grid_search(*args)
        shared_fits, shared_solves = len(fits), len(solves)
        fit_method = evaluation.fit_method
        monkeypatch.setattr(
            evaluation,
            "fit_method",
            lambda method, d, C, lam, **k: fit_method(method, fresh(d), C, lam, **k),
        )
        independent = grid_search(*args)
        # every cell runs fit_mkl's loop, the 2 x 4 single-kernel svdd
        # cells too; the dictionary's memo saves inner solves
        assert shared_fits == len(fits) - shared_fits == 4 * 3 + 4 + 2 * 4
        assert shared_solves < len(solves) - shared_solves
        assert shared.table == independent.table
        assert shared.best == independent.best
        for a, b in zip(shared.table, independent.table):
            assert a.error is None and a.model.C == a.C
            np.testing.assert_array_equal(a.model.alpha.alpha, b.model.alpha.alpha)
            np.testing.assert_array_equal(a.model.weights, b.model.weights)
            assert (a.model.threshold, a.model.self_term) == (b.model.threshold, b.model.self_term)

    def test_single_kernel_cells_share_solves(self, monkeypatch):
        # svdd and ocsvm cells share the memo of their one-kernel dictionary
        # too: a solve whose box never binds serves every C above its peak,
        # bit for bit
        m = self.make_outlier_matrix(n_in=60)
        args = (
            m,
            [KernelSpec.rbf(0.5), KernelSpec.rbf(5.0)],
            ["svdd", "ocsvm"],
            [0.5, 0.03, 1.0, 0.2, 0.8],
        )
        solve_raw, solves = models.solve_raw, []
        monkeypatch.setattr(
            models, "solve_raw", lambda *a, **k: solves.append(0) or solve_raw(*a, **k)
        )
        shared = grid_search(*args)
        shared_solves = len(solves)
        fit_method = evaluation.fit_method
        monkeypatch.setattr(
            evaluation,
            "fit_method",
            lambda method, d, C, lam, **k: fit_method(method, fresh(d), C, lam, **k),
        )
        independent = grid_search(*args)
        assert len(solves) - shared_solves == len(independent.table) == 2 * 2 * 5
        assert shared_solves < len(independent.table)
        assert shared.table == independent.table
        assert shared.best == independent.best
        for a, b in zip(shared.table, independent.table):
            assert a.error is None and a.model.C == a.C
            np.testing.assert_array_equal(a.model.alpha.alpha, b.model.alpha.alpha)
            assert a.model.alpha.objective == b.model.alpha.objective
            assert (a.model.threshold, a.model.self_term) == (b.model.threshold, b.model.self_term)

    def test_single_kernel_methods_sweep_dictionary(self):
        m = self.make_outlier_matrix()
        sigmas = [0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0]
        degrees = [1, 2, 3, 4]
        specs = [KernelSpec.rbf(s) for s in sigmas] + [
            KernelSpec.poly(p) for p in degrees
        ]
        c_grid = [round(0.05 * k, 2) for k in range(1, 11)]
        result = grid_search(m, specs, ["svdd"], c_grid)
        assert len(result.table) == len(specs) * len(c_grid)
        assert result.best["svdd"].error is None
        assert result.best["svdd"].score >= 0.5

    def test_slim_lambda_grid_dimensions(self):
        # the standard filtering grids; C = 0.01 needs at least 100 examples
        m = self.make_outlier_matrix(n_in=120, n_out=6)
        lam_grid = [0.0, 0.001, 0.01, 0.1, 1.0]
        c_grid = [0.01, 0.05, 0.1, 0.2]
        result = grid_search(
            m,
            [KernelSpec.rbf(0.1), KernelSpec.rbf(10.0)],
            ["slim-mk-svdd", "mk-svdd"],
            c_grid,
            lam_grid,
            mkl_options={"gap_tol": 1e-3, "max_outer_iters": 50},
        )
        slim_cells = [c for c in result.table if c.method == "slim-mk-svdd"]
        plain_cells = [c for c in result.table if c.method == "mk-svdd"]
        assert len(slim_cells) == len(c_grid) * len(lam_grid)
        assert len(plain_cells) == len(c_grid)  # lambda collapses to 0
        assert all(c.lam == 0.0 for c in plain_cells)
        assert all(c.error is None for c in result.table)

    def test_infeasible_cells_recorded_not_fatal(self, monkeypatch):
        m = self.make_outlier_matrix(n_in=20, n_out=4)
        result = grid_search(m, [KernelSpec.rbf(1.0)], ["svdd"], [0.005, 0.2])
        errors = [c for c in result.table if c.error is not None]
        assert len(errors) == 1
        assert "infeasible" in errors[0].error
        assert result.best["svdd"].C == 0.2

        # numerical failures are recorded; programming errors propagate
        def fit_raising(error):
            def fit(*args, **kwargs):
                raise error
            return fit

        stalled = ConvergenceError("pair-update cap reached", solution=None)
        monkeypatch.setattr(evaluation, "fit_method", fit_raising(stalled))
        result = grid_search(m, [KernelSpec.rbf(1.0)], ["svdd"], [0.005, 0.2])
        assert [c.error for c in result.table] == ["pair-update cap reached"] * 2
        assert "svdd" not in result.best
        monkeypatch.setattr(evaluation, "fit_method", fit_raising(TypeError("bug")))
        with pytest.raises(TypeError, match="bug"):
            grid_search(m, [KernelSpec.rbf(1.0)], ["svdd"], [0.005, 0.2])

    @pytest.mark.parametrize("methods, options, message", [
        (["mk-svdd"], {"gap_tol": -1}, "gap_tol must be"),
        (["svdd"], {"ls_shrink": 0.3}, "unknown mkl options"),
        (["svdd", "banana"], {}, "unknown method"),
    ])
    def test_bad_setting_raises_before_any_fit(self, monkeypatch, methods, options, message):
        def refuse(*args, **kwargs):
            raise AssertionError("fit_method reached")

        monkeypatch.setattr(evaluation, "fit_method", refuse)
        m = self.make_outlier_matrix()
        with pytest.raises(ValueError, match=message):
            grid_search(m, [KernelSpec.rbf(0.5)], methods, [0.1, 0.2], mkl_options=options)

    def test_positive_fraction_policy(self):
        m = self.make_outlier_matrix(n_in=60, n_out=6)
        plan = split(m, "supervised", seed=1, train_count=30, validation_count=10)
        result = grid_search(
            m,
            [KernelSpec.rbf(0.5)],
            ["svdd"],
            [0.1, 0.3],
            policy="positive-fraction",
            plan=plan,
        )
        best = result.best["svdd"]
        assert best.error is None
        assert 0.0 <= best.score <= 1.0

    def test_positive_fraction_ties_go_to_the_larger_card(self):
        # both cells accept 9 of 10 validation positives; the kernel-index
        # tie-break alone would pick the first
        m = self.make_outlier_matrix(n_in=60, n_out=6)
        plan = split(m, "supervised", seed=2, train_count=30, validation_count=10)
        specs = [KernelSpec.rbf(0.5), KernelSpec.rbf(1.0)]
        result = grid_search(m, specs, ["svdd"], [0.5], policy="positive-fraction", plan=plan)
        first, second = result.table
        assert first.score == second.score
        assert first.model.card < second.model.card
        assert result.best["svdd"] is second

    def test_cells_keep_their_fitted_models(self):
        # the selected cell's model is the fit at that cell, so callers
        # score it instead of refitting
        m = self.make_outlier_matrix(n_in=60, n_out=6)
        plan = split(m, "supervised", seed=1, train_count=30, validation_count=10)
        specs = [KernelSpec.rbf(0.5), KernelSpec.rbf(5.0)]
        result = grid_search(
            m, specs, ["svdd"], [0.1, 0.3], policy="positive-fraction", plan=plan
        )
        train = m.features[plan.train_ids]
        for cell in result.table:
            assert cell.error is None
            spec = specs[cell.kernel_index]
            direct = fit_svdd(KernelDictionary.from_data([spec], train), [1.0], cell.C)
            np.testing.assert_array_equal(cell.model.alpha.alpha, direct.alpha.alpha)
            np.testing.assert_array_equal(score(cell.model, m.features), score(direct, m.features))
        assert "model" not in repr(result.best["svdd"])

    @pytest.mark.parametrize("bad", [46, -1, 2.5])
    @pytest.mark.parametrize("field", ["train_ids", "test_ids"])
    def test_plan_ids_must_be_dataset_rows(self, field, bad):
        # an example's id is its row: an id past the last row, a negative
        # one (which bare indexing would read from the end) or a float one
        # is refused, naming it
        m = self.make_outlier_matrix()  # 46 rows
        ids = {"train_ids": np.arange(40), "test_ids": np.arange(46)}
        ids[field] = np.r_[ids[field][:5], bad, ids[field][5:]]
        plan = SplitPlan(ids["train_ids"], [], ids["test_ids"], 0, "unsupervised")
        for kernels in ([KernelSpec.rbf(0.5)], {"k": gram(KernelSpec.rbf(0.5), m).values}):
            with pytest.raises(ValueError, match=f"example id {bad}"):
                grid_search(m, kernels, ["svdd"], [0.1], plan=plan)

    def test_precomputed_mapping_equals_feature_specs(self):
        m = self.make_outlier_matrix()
        specs = [KernelSpec.rbf(0.5), KernelSpec.rbf(5.0)]
        mapping = {f"k{i}": gram(s, m).values for i, s in enumerate(specs)}
        for method in ("svdd", "mk-svdd"):
            by_features = grid_search(m, specs, [method], [0.1, 0.3]).table
            by_matrices = grid_search(m, mapping, [method], [0.1, 0.3]).table
            for a, b in zip(by_features, by_matrices):
                assert a.score == pytest.approx(b.score, abs=1e-12)

    def test_positive_fraction_needs_validation(self):
        m = self.make_outlier_matrix()
        with pytest.raises(ValueError, match="validation"):
            grid_search(
                m, [KernelSpec.rbf(0.5)], ["svdd"], [0.1], policy="positive-fraction"
            )

    def test_tie_break_smallest_c(self):
        # perfectly separable data: many cells reach auc 1.0
        m = self.make_outlier_matrix(seed=5, n_in=30, n_out=5)
        result = grid_search(m, [KernelSpec.rbf(0.5)], ["svdd"], [0.5, 0.2, 0.1])
        top = max(c.score for c in result.table if c.error is None)
        tied = sorted(
            c.C for c in result.table if c.error is None and c.score == top
        )
        assert result.best["svdd"].C == tied[0]

    def test_unknown_method_and_policy(self):
        m = self.make_outlier_matrix()
        with pytest.raises(ValueError, match="method"):
            grid_search(m, [KernelSpec.rbf(1.0)], ["nope"], [0.1])
        with pytest.raises(ValueError, match="policy"):
            grid_search(m, [KernelSpec.rbf(1.0)], ["svdd"], [0.1], policy="magic")

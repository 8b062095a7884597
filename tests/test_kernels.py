import itertools
import re
import tracemalloc

import numpy as np
import pytest

from mksvdd import kernels
from mksvdd.data import SampleMatrix, gen_2d_target
from mksvdd.kernels import (
    BLOCK_ENTRIES,
    SYMMETRY_TILE,
    SYMMETRY_TOL,
    CombinedKernel,
    GramMatrix,
    KernelDictionary,
    KernelSpec,
    as_weights,
    combine,
    cross_gram,
    gram,
    load_manifest,
    load_matrix,
    write_manifest,
)
from mksvdd.mkl import fit_method
from oracles import poly_gram_loops, random_psd, rbf_gram_loops, weighted_sum_loops


def self_similarities(spec, T):
    """k(t, t) for each example t of T, in plain numpy."""
    if spec.kind == "rbf":
        return np.ones(len(T))
    if spec.kind == "poly":
        return (np.sum(T * T, axis=1) + 1.0) ** spec.degree
    return spec.matrix[T, T]


class TestKernelSpec:
    def test_rbf_needs_positive_bandwidth(self):
        with pytest.raises(ValueError):
            KernelSpec.rbf(0.0)
        with pytest.raises(ValueError):
            KernelSpec.rbf(-1.0)

    def test_poly_needs_degree_at_least_one(self):
        with pytest.raises(ValueError):
            KernelSpec.poly(0)

    def test_rbf_rejects_a_nan_bandwidth(self):
        # was accepted, and a fit on it failed in the solver instead
        for bandwidth in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="strictly positive bandwidth"):
                KernelSpec.rbf(bandwidth)

    def test_from_dict_rejects_wrong_types(self):
        # a string bandwidth ended in a TypeError, an unhashable matrix_id in
        # another, and a bool bandwidth read as 1
        for bandwidth in ("0.5", True, None):
            with pytest.raises(ValueError, match="strictly positive bandwidth"):
                KernelSpec.from_dict({"kind": "rbf", "bandwidth": bandwidth})
        for matrix_id in (["m1"], 3, ""):
            with pytest.raises(ValueError, match="needs a matrix_id"):
                KernelSpec.from_dict({"kind": "precomputed", "matrix_id": matrix_id}, {"m1": 1})

    def test_poly_rejects_a_fractional_degree(self):
        # was truncated to degree 2
        for degree in (2.5, float("nan"), "2"):
            with pytest.raises(ValueError, match="integer degree >= 1"):
                KernelSpec.poly(degree)
        assert KernelSpec.poly(2.0).degree == 2 and KernelSpec.poly(np.int64(3)).degree == 3

    def test_poly_rejects_a_bool_degree(self):
        # True was read as degree 1
        for degree in (True, False):
            with pytest.raises(ValueError, match="integer degree >= 1"):
                KernelSpec.poly(degree)

    def test_round_trip(self):
        for spec in (KernelSpec.rbf(0.5), KernelSpec.poly(3), KernelSpec.precomputed("m1")):
            assert KernelSpec.from_dict(spec.to_dict()) == spec

    def test_matrix_outside_identity(self):
        # the loaded matrix is data, not part of what the kernel is
        full = random_psd(np.random.default_rng(1), 4)
        bare, loaded = KernelSpec.precomputed("m1"), KernelSpec.precomputed("m1", full)
        assert loaded == bare and hash(loaded) == hash(bare)
        assert loaded.to_dict() == bare.to_dict() == {"kind": "precomputed", "matrix_id": "m1"}
        assert repr(loaded) == repr(bare)
        assert KernelSpec.from_dict(loaded.to_dict(), {"m1": full}).matrix is not None
        with pytest.raises(ValueError, match="square"):
            KernelSpec.precomputed("m1", np.zeros((2, 3)))
        with pytest.raises(ValueError, match="only precomputed"):
            KernelSpec("rbf", bandwidth=1.0, matrix=full)

    @pytest.mark.parametrize("own, stray, owner", [
        ({"kind": "rbf", "bandwidth": 0.5}, {"degree": "abc"}, "poly"),
        ({"kind": "rbf", "bandwidth": 0.5}, {"matrix_id": "m1"}, "precomputed"),
        ({"kind": "poly", "degree": 2}, {"bandwidth": 1.0}, "rbf"),
        ({"kind": "precomputed", "matrix_id": "m1"}, {"degree": 2}, "poly"),
    ])
    def test_fields_of_another_kind_rejected(self, own, stray, owner):
        # such a field was kept, compared and written back by to_dict
        [name] = stray
        with pytest.raises(ValueError, match=f"only {owner} kernels carry a {name}"):
            KernelSpec.from_dict({**own, **stray})
        assert KernelSpec.from_dict(own).to_dict() == own

    def test_non_finite_matrix_names_it(self):
        for bad in (np.nan, np.inf, -np.inf):
            matrix = random_psd(np.random.default_rng(3), 4)
            matrix[1, 2] = matrix[2, 1] = bad
            with pytest.raises(ValueError, match="'graphs_L3' holds non-finite"):
                KernelSpec.precomputed("graphs_L3", matrix)
            with pytest.raises(ValueError, match="'graphs_L3' holds non-finite"):
                KernelDictionary.from_matrices({"graphs_L3": matrix})

    def test_precomputed_without_matrix_names_it(self):
        spec = KernelSpec.precomputed("graphs_L3")
        for evaluate in (lambda: gram(spec, [0, 1]),
                         lambda: KernelDictionary.from_data([spec], [0]),
                         lambda: cross_gram(spec, [0], [1])):
            with pytest.raises(ValueError, match="precomputed kernel 'graphs_L3'"):
                evaluate()

    def test_example_ids_range_checked(self):
        spec = KernelSpec.precomputed("m", random_psd(np.random.default_rng(2), 4))
        block = spec.matrix[np.ix_([3, 0], [3, 0])]
        np.testing.assert_array_equal(gram(spec, [3, 0]).values, block)
        for ids in ([-1], [0, 4], [999]):
            with pytest.raises(ValueError, match="out of range"):
                gram(spec, ids)
        for ids in ([0.0, 1.0], [[0, 1]], []):
            with pytest.raises(ValueError, match="integer example ids"):
                gram(spec, ids)
        with pytest.raises(ValueError, match="out of range"):
            KernelDictionary.from_matrices({"m": spec.matrix}, train_ids=[-1])


class TestGram:
    def test_rbf_unit_diagonal(self):
        X = np.random.default_rng(0).standard_normal((6, 3))
        for sigma in (0.1, 1.0, 50.0):
            g = gram(KernelSpec.rbf(sigma), X)
            np.testing.assert_allclose(g.diag, 1.0, atol=1e-15)

    def test_poly_degree_one_orthogonal_points(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        g = gram(KernelSpec.poly(1), X)
        assert g.values[0, 1] == pytest.approx(1.0, abs=1e-15)

    def test_rbf_matches_double_loop(self):
        rng = np.random.default_rng(42)
        X = rng.standard_normal((5, 4))
        g = gram(KernelSpec.rbf(1.0), X)
        np.testing.assert_allclose(g.values, rbf_gram_loops(X, 1.0), atol=1e-12)

    def test_poly_matches_double_loop(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((5, 3))
        g = gram(KernelSpec.poly(3), X)
        np.testing.assert_allclose(g.values, poly_gram_loops(X, 3), rtol=1e-12)

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((20, 2))
        for spec in (KernelSpec.rbf(0.5), KernelSpec.rbf(10.0), KernelSpec.poly(2)):
            g = gram(spec, X)
            assert np.abs(g.values - g.values.T).max() <= 1e-10
            assert g.eigenvalue_floor_ok()

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            gram(KernelSpec.rbf(1.0), np.array([[np.nan, 0.0]]))

    def test_accepts_sample_matrix(self):
        m = SampleMatrix(np.array([[0.0, 0.0], [1.0, 1.0]]))
        g = gram(KernelSpec.rbf(1.0), m)
        assert g.size == 2


class TestCrossGram:
    def test_train_point_row_matches_gram(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((6, 2))
        g = gram(KernelSpec.rbf(0.7), X)
        cross = cross_gram(KernelSpec.rbf(0.7), X, X[2:3])
        np.testing.assert_allclose(cross[0], g.values[2], atol=1e-12)

    def test_matches_loops_on_randoms(self):
        rng = np.random.default_rng(8)
        A, B = rng.standard_normal((4, 3)), rng.standard_normal((5, 3))
        cross = cross_gram(KernelSpec.rbf(1.3), A, B)
        full = rbf_gram_loops(np.vstack([B, A]), 1.3)
        np.testing.assert_allclose(cross, full[:5, 5:], atol=1e-12)

    def test_rbf_self_diag_is_one(self):
        X = np.random.default_rng(2).standard_normal((4, 2))
        _, diags = KernelDictionary.from_data([KernelSpec.rbf(2.0)], X).cross(X, [0], [0])
        np.testing.assert_allclose(diags, 1.0)


class TestGramMatrix:
    def test_rejects_asymmetric(self):
        asym = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            GramMatrix(asym)
        with pytest.raises(ValueError, match="symmetric"):
            KernelDictionary.from_matrices({"a": asym})
        # only the training block enters the dictionary's stack
        full = random_psd(np.random.default_rng(3), 4)
        full[0, 2] += 0.5
        with pytest.raises(ValueError, match="symmetric"):
            KernelDictionary.from_matrices({"a": full}, train_ids=[0, 2])
        assert KernelDictionary.from_matrices({"a": full}, train_ids=[1, 3]).nk == 1

    def test_rejects_one_asymmetric_entry_across_tiles(self):
        # the check runs tile by tile; the lone mismatch sits far from the
        # diagonal, with its row and column in different tiles
        base = gram(KernelSpec.rbf(2.0), np.random.default_rng(7).standard_normal((600, 2))).values
        assert 3 // SYMMETRY_TILE != 597 // SYMMETRY_TILE
        GramMatrix(base)
        for i, j in ((3, 597), (597, 3)):
            values = base.copy()
            values[i, j] += 1e-6
            with pytest.raises(ValueError, match="symmetric"):
                GramMatrix(values)
        # below SYMMETRY_TOL * max |v_ij| the mismatch is round-off
        values = base.copy()
        values[597, 3] += 0.5 * SYMMETRY_TOL * np.abs(base).max()
        GramMatrix(values)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            GramMatrix(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="square"):
            KernelDictionary.from_matrices({"a": np.zeros((2, 3))})
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="square"):
            KernelDictionary.from_matrices({"a": random_psd(rng, 3), "b": random_psd(rng, 4)})
        with pytest.raises(ValueError, match="square"):
            KernelDictionary(
                (KernelSpec.precomputed("a"),), np.zeros((1, 2, 3)), np.arange(2)
            )


class TestSimplexWeights:
    def test_validates(self):
        cases = [
            (np.ones((1, 1)), 1, "nonempty 1D"),
            ([], 1, "nonempty 1D"),
            ([0.5, 0.6], 2, "sum to 1"),
            ([-0.1, 1.1], 2, "nonnegative"),
            ([0.5, 0.5], 3, "expected 3 weights, got 2"),
        ]
        for d, nk, message in cases:
            with pytest.raises(ValueError, match=message):
                as_weights(d, nk)
        d = np.array([1.0 + 1e-13, -1e-13])
        out = as_weights(d, 2)
        assert out.tolist() == [1.0 + 1e-13, 0.0] and out is not d

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # every comparison with nan is False, so no other check catches it
        for d in ([bad, bad], [bad, 0.5]):
            with pytest.raises(ValueError, match="finite"):
                as_weights(d, 2)


class TestCombine:
    def build_dictionary(self, seed=0, nk=3, n=6):
        rng = np.random.default_rng(seed)
        mats = [random_psd(rng, n) for _ in range(nk)]
        named = {f"m{i}": m for i, m in enumerate(mats)}
        return KernelDictionary.from_matrices(named), mats

    def test_unit_vector_returns_component_exactly(self):
        d, mats = self.build_dictionary()
        out = combine(d, [1.0, 0.0, 0.0])
        assert (out.values == d.grams[0].values).all()

    def test_identical_grams_any_weights(self):
        rng = np.random.default_rng(4)
        m = random_psd(rng, 5)
        d = KernelDictionary.from_matrices({"a": m, "b": m.copy()})
        out = combine(d, [0.25, 0.75])
        np.testing.assert_allclose(out.values, m, rtol=1e-14)

    def test_matches_weighted_sum_oracle(self):
        d, mats = self.build_dictionary(seed=9)
        weights = [0.2, 0.3, 0.5]
        out = combine(d, weights)
        np.testing.assert_allclose(
            out.values, weighted_sum_loops(mats, weights), atol=1e-12
        )

    def test_weight_length_mismatch(self):
        d, _ = self.build_dictionary()
        with pytest.raises(ValueError):
            combine(d, [0.5, 0.5])

    def test_combination_of_psd_stays_psd(self):
        for seed in range(5):
            d, _ = self.build_dictionary(seed=seed)
            rng = np.random.default_rng(seed + 100)
            w = rng.dirichlet(np.ones(3))
            assert combine(d, w).eigenvalue_floor_ok()

    def test_linear_in_weights(self):
        # combination at a blend of weight vectors equals the blend of
        # combinations, entrywise
        d, _ = self.build_dictionary(seed=2)
        rng = np.random.default_rng(11)
        w1, w2 = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
        t = 0.3
        lhs = combine(d, t * w1 + (1 - t) * w2).values
        rhs = t * combine(d, w1).values + (1 - t) * combine(d, w2).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestCombinedKernel:
    """K_d read by rows must be combine()'s K_d, whatever is cached."""

    def dictionary(self, seed, nk=4, n=40):
        rng = np.random.default_rng(seed)
        named = {f"m{m}": random_psd(rng, n) for m in range(nk)}
        d = rng.dirichlet(np.ones(nk))
        d[rng.choice(nk, 2, replace=False)] = 0.0  # exact zeros
        return KernelDictionary.from_matrices(named), d / d.sum(), rng

    @staticmethod
    def sparse(rng, n):
        alpha = rng.dirichlet(np.ones(n))
        alpha[rng.random(n) < 0.6] = 0.0
        return alpha / alpha.sum()

    def test_rows_and_products_match_combine(self):
        for seed in range(5):
            dictionary, d, rng = self.dictionary(seed)
            dense = combine(dictionary, d).values
            scale = np.abs(dense).max()
            op = CombinedKernel(dictionary.stack, d)
            for i in range(dictionary.n_train):
                assert np.abs(op.row(i) - dense[i]).max() <= 1e-14 * scale
            assert np.abs(op.diag - np.diag(dense)).max() <= 1e-14 * scale
            for alpha in (rng.dirichlet(np.ones(dictionary.n_train)),
                          self.sparse(rng, dictionary.n_train)):
                ref = dense @ alpha
                assert np.abs(op.matvec(alpha) - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_one_kernel_is_read_as_is(self):
        rng = np.random.default_rng(3)
        K = random_psd(rng, 30)
        op = CombinedKernel(K[None], np.ones(1))
        for i in range(30):
            assert np.array_equal(op.row(i), K[i])
        assert np.array_equal(op.diag, np.diag(K))
        # a cold start's all-nonzero alpha: the dense product itself
        alpha = rng.dirichlet(np.ones(30))
        assert np.array_equal(op.matvec(alpha), K @ alpha)

    def test_cold_product_sums_kernels_in_order(self):
        dictionary, d, rng = self.dictionary(7, nk=5, n=60)
        d = rng.dirichlet(np.ones(5))  # every kernel active
        alpha = rng.dirichlet(np.ones(60))
        expected = d[0] * (dictionary.stack[0] @ alpha)
        for m in range(1, 5):
            expected += d[m] * (dictionary.stack[m] @ alpha)
        op = CombinedKernel(dictionary.stack, d)
        op.rows(np.arange(60))
        assert np.array_equal(op.matvec(alpha), expected)

    def test_zero_weight_kernels_never_read(self):
        dictionary, d, rng = self.dictionary(11)
        active = np.flatnonzero(d)
        poisoned = dictionary.stack.copy()
        poisoned[d == 0.0] = np.nan  # their diagonals too
        op = CombinedKernel(poisoned, d)
        ref = CombinedKernel(dictionary.stack[active], d[active])
        n = dictionary.n_train
        assert np.array_equal(op.diag, ref.diag)
        for alpha in (rng.dirichlet(np.ones(n)), self.sparse(rng, n)):
            assert np.array_equal(op.matvec(alpha), ref.matvec(alpha))
        assert np.array_equal(op.rows(np.arange(n)), ref.rows(np.arange(n)))

    def test_values_independent_of_order_and_cache(self):
        dictionary, d, rng = self.dictionary(13)
        n = dictionary.n_train
        alpha = self.sparse(rng, n)
        forward, backward = (CombinedKernel(dictionary.stack, d) for _ in range(2))
        cold = CombinedKernel(dictionary.stack, d).matvec(alpha)
        rows = [forward.row(i).copy() for i in range(n)]
        back = [backward.row(i).copy() for i in reversed(range(n))][::-1]
        assert all(np.array_equal(a, b) for a, b in zip(rows, back))
        assert np.array_equal(forward.rows(np.arange(n)), np.array(rows))
        # once every row is cached, the products are the same bits
        assert np.array_equal(forward.matvec(alpha), cold)
        assert np.array_equal(backward.matvec(alpha), cold)

    def test_cached_rows_are_the_computed_rows(self):
        dictionary, d, rng = self.dictionary(19, n=30)

        def operator():
            return CombinedKernel(dictionary.stack, d)

        op, asked = operator(), set()
        for i in np.concatenate([rng.permutation(30)[:12], rng.choice(30, 25)]):
            assert op.row(i).tobytes() == operator().row(i).tobytes()
            asked.add(int(i))
            assert op.cached_rows == len(asked)
        # rows() over cached, uncached and repeated indices, then row() again
        mixed = np.concatenate([rng.choice(sorted(asked), 5), rng.choice(30, 10)])
        block = op.rows(mixed)
        asked.update(mixed.tolist())
        assert op.cached_rows == len(asked)
        assert block.tobytes() == np.stack([op.row(i) for i in mixed]).tobytes()
        assert block.tobytes() == operator().rows(mixed).tobytes()
        assert op.cached_rows == len(asked)

    def test_rows_fill_the_buffer_from_its_start(self):
        # the buffer's touched memory follows the rows computed, not their
        # indices: distinct rows take its slots in the order first asked
        dictionary, d, _ = self.dictionary(23, n=40)
        op = CombinedKernel(dictionary.stack, d)
        for i in (39, 0, 17, 39, 25, 0):
            op.row(i)
        for slot, i in enumerate((39, 0, 17, 25)):
            assert np.shares_memory(op.row(i), op._rows[slot])
        assert op.rows(np.array([25, 39])).tobytes() == np.stack([op.row(25), op.row(39)]).tobytes()

    def test_cache_never_exceeds_n_rows(self):
        dictionary, d, rng = self.dictionary(17, n=25)
        op = CombinedKernel(dictionary.stack, d)
        for _ in range(2):
            for i in rng.permutation(25):
                op.row(i)
            op.matvec(self.sparse(rng, 25))
            op.rows(np.arange(25))
        assert op.cached_rows == 25


class TestDictionary:
    def test_from_data_sizes(self):
        X = np.random.default_rng(0).standard_normal((7, 2))
        d = KernelDictionary.from_data(
            [KernelSpec.rbf(0.5), KernelSpec.poly(2)], X
        )
        assert d.nk == 2
        assert d.n_train == 7

    def test_needs_at_least_one_kernel(self):
        with pytest.raises(ValueError):
            KernelDictionary.from_data([], np.zeros((3, 2)))

    def test_precomputed_train_block_and_cross(self):
        rng = np.random.default_rng(6)
        full = random_psd(rng, 8)
        d = KernelDictionary.from_matrices({"g": full}, train_ids=[1, 3, 5])
        np.testing.assert_array_equal(
            d.grams[0].values, full[np.ix_([1, 3, 5], [1, 3, 5])]
        )
        blocks, diags = d.cross([0, 2], np.arange(3), [0])
        np.testing.assert_array_equal(blocks[0], full[np.ix_([0, 2], [1, 3, 5])])
        np.testing.assert_array_equal(diags[0], full[[0, 2], [0, 2]])
        # narrowed to training rows 0 and 2, i.e. example ids 1 and 5
        blocks, diags = d.cross([0, 2], [0, 2], [0])
        np.testing.assert_array_equal(blocks[0], full[np.ix_([0, 2], [1, 5])])
        np.testing.assert_array_equal(diags[0], full[[0, 2], [0, 2]])

    def test_rejects_mixed_kinds(self):
        X = np.random.default_rng(0).standard_normal((3, 2))
        specs = [KernelSpec.precomputed("g", random_psd(np.random.default_rng(1), 3)),
                 KernelSpec.rbf(1.0)]
        for train in (X, [0, 1, 2]):
            with pytest.raises(ValueError, match="cannot mix"):
                KernelDictionary.from_data(specs, train)

    def test_stack_holds_the_grams_once(self):
        # from_data's Grams are gram()'s, bit for bit, though its rbf
        # kernels share one pass of squared distances
        X = np.random.default_rng(0).standard_normal((6, 2))
        specs = [KernelSpec.rbf(0.5), KernelSpec.poly(2), KernelSpec.rbf(2.0)]
        d = KernelDictionary.from_data(specs, X)
        assert d.stack.shape == (3, 6, 6) and d.stack.flags.c_contiguous
        for m, spec in enumerate(specs):
            values = gram(spec, X).values
            assert (d.stack[m] == values).all()
            assert (d.grams[m].values == values).all()
            one_hot = np.eye(len(specs))[m]
            assert (CombinedKernel(d.stack, one_hot).diag == np.diag(values)).all()
        with pytest.raises(ValueError, match="one Gram matrix per kernel"):
            KernelDictionary(tuple(specs[:1]), d.stack, d.train)

    def test_rbf_stack_is_exactly_symmetric(self, monkeypatch):
        # from_data writes computed Grams unchecked: symmetric by
        # construction, in one row block or in many with a ragged last one
        rng = np.random.default_rng(11)
        rbf = [KernelSpec.rbf(b) for b in np.logspace(-3, 3, 7)]
        poly = [KernelSpec.poly(degree) for degree in (1, 2, 3)]
        for entries, sizes in ((BLOCK_ENTRIES, [1, 2, 300, 601]),
                               (100, rng.integers(2, 60, size=10))):
            monkeypatch.setattr(kernels, "BLOCK_ENTRIES", entries)
            # at dim 64, BLAS rounds some x_i . x_j and x_j . x_i apart
            for specs, n, dim in itertools.product((rbf, poly), sizes, (1, 2, 7, 64)):
                X = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3, 3)
                X[rng.integers(0, n, size=n // 3)] = X[0]  # duplicate rows
                stack = KernelDictionary.from_data(specs, X).stack
                assert (stack == stack.transpose(0, 2, 1)).all(), (specs[0].kind, n, dim)

    @pytest.mark.parametrize("kind", ["features", "precomputed"])
    def test_one_call_blocks_equal_single_kernel_blocks(self, kind, monkeypatch):
        # from_data and cross evaluate all their kernels in one call, and
        # give gram()'s and cross_gram()'s values and k(t, t) bit for bit, here in row blocks of about 20 entries, the last one ragged
        monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 20)
        rng = np.random.default_rng(12)
        dims = (1, 2, 7) if kind == "features" else (None,)
        for n, dim in itertools.product((1, 9), dims):
            if kind == "features":
                X, T = rng.standard_normal((n, dim)), rng.standard_normal((7, dim))
                specs = [KernelSpec.rbf(0.5), KernelSpec.poly(2), KernelSpec.rbf(2.0)]
                used = [2, 0, 1]
            else:
                X, T = np.arange(0, 2 * n, 2), np.array([1, 3, 0, 17, 4, 2, 5])
                specs = [KernelSpec.precomputed(f"k{m}", random_psd(rng, 18)) for m in range(2)]
                used = [1, 0]
            rows = np.array([0, 2, 3, 8]) if n > 1 else np.array([0])
            d = KernelDictionary.from_data(specs, X)
            cross, diags = d.cross(T, rows, used)
            assert cross.shape == (len(used), len(T), len(rows))
            assert diags.shape == (len(used), len(T))
            for k, m in enumerate(used):
                assert np.array_equal(cross[k], cross_gram(specs[m], X[rows], T))
                assert np.array_equal(diags[k], self_similarities(specs[m], T))
            for m, spec in enumerate(specs):
                assert np.array_equal(d.stack[m], gram(spec, X).values)

    @pytest.mark.parametrize("kind", ["rbf", "poly", "precomputed"])
    def test_row_blocks_equal_one_block_build(self, kind, monkeypatch):
        # small integer features make every inner product exact, so BLAS
        # rounds none of them and the comparison reads the block loop alone
        rng = np.random.default_rng(13)
        n = 37
        if kind == "precomputed":
            specs = [KernelSpec.precomputed(f"k{m}", random_psd(rng, 50)) for m in range(2)]
            X, T = rng.permutation(50)[:n], rng.integers(0, 50, size=11)
        else:
            specs = ([KernelSpec.rbf(0.7), KernelSpec.rbf(4.0)] if kind == "rbf"
                     else [KernelSpec.poly(1), KernelSpec.poly(3)])
            X = rng.integers(-9, 10, size=(n, 3)).astype(float)
            T = rng.integers(-9, 10, size=(11, 3)).astype(float)
        rows = np.sort(rng.choice(n, 15, replace=False))

        def build():
            d = KernelDictionary.from_data(specs, X)
            return d.stack, d.cross(T, rows, [1, 0])[0]

        assert n * n <= BLOCK_ENTRIES
        whole = build()
        # one row per block; cross rows in blocks of 4, 4 and 3; Gram rows
        # in blocks of 7, the last of 2; Gram rows in blocks of 19 and 18
        for entries in (1, 4 * len(rows), 7 * n, n * (n - 1)):
            monkeypatch.setattr(kernels, "BLOCK_ENTRIES", entries)
            for parts, one in zip(build(), whole):
                assert np.array_equal(parts, one), entries

    def test_build_holds_no_n_by_n_buffer(self):
        # from_data computes no row, and a fit only the rows it reads: fewer
        # than n/8 for each of four multi-kernel methods at n = 2000
        specs = [KernelSpec.rbf(b) for b in (0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0)]
        X = gen_2d_target(0, 3, 2000).features
        for method in ("mk-svdd", "slim-mk-svdd", "mk-ocsvm", "slim-mk-ocsvm"):
            d = KernelDictionary.from_data(specs, X)
            assert d.rows_computed == 0
            fit_method(method, d, 0.05, 0.1)
            assert 0 < d.rows_computed < len(X) / 8, (method, d.rows_computed)
        # beyond the stack, computing every row holds a few row blocks
        for n in (1000, 2000):
            X = np.random.default_rng(n).standard_normal((n, 2))
            tracemalloc.start()
            try:
                stack = KernelDictionary.from_data(specs, X).stack
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - stack.nbytes < 4 * 2**20, (n, peak - stack.nbytes)
            del stack

    def test_rows_are_the_same_bits_however_computed(self, monkeypatch):
        # one at a time in any order, in one batch of several row blocks,
        # and through stack: each entry depends on its two examples alone
        monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 100)
        rng = np.random.default_rng(21)
        specs = [KernelSpec.rbf(0.5), KernelSpec.poly(3), KernelSpec.rbf(4.0)]
        for dim in (1, 2, 7, 64):
            X = rng.standard_normal((40, dim))
            whole = KernelDictionary.from_data(specs, X).stack
            single, batch = (KernelDictionary.from_data(specs, X) for _ in range(2))
            order = rng.permutation(40)
            for k, i in enumerate(order):
                single.block(np.array([i]))
                assert single.rows_computed == k + 1
            batch.block(order[:25])
            assert batch.rows_computed == 25
            for m in range(len(specs)):
                one_hot = np.eye(len(specs))[m]
                for d in (single, batch):
                    rows = CombinedKernel(d, one_hot).rows(order)
                    assert rows.tobytes() == whole[m][order].tobytes(), (dim, m)
            for d in (single, batch):
                assert d.stack.tobytes() == whole.tobytes(), dim
                assert d.rows_computed == 40

    def test_a_run_of_kernels_reads_the_bits_of_a_gather(self):
        # weights on contiguous kernels read the store through a view,
        # weights with a gap gather their planes: a row is the same product
        rng = np.random.default_rng(23)
        specs = [KernelSpec.rbf(b) for b in (0.2, 1.0, 5.0, 25.0)]
        X = rng.standard_normal((60, 3))
        for d, run in (([0.0, 0.2, 0.3, 0.5], True), ([0.1, 0.2, 0.3, 0.4], True),
                       ([0.5, 0.0, 0.2, 0.3], False)):
            view, gather = (CombinedKernel(KernelDictionary.from_data(specs, X), d)
                            for _ in range(2))
            gather._planes = gather.kernels
            assert isinstance(view._planes, slice) == run
            for i in rng.permutation(60):
                assert view.row(i).tobytes() == gather.row(i).tobytes()

    def test_each_diagonal_entry_has_one_value(self):
        # k(x, x) as the computed rows hold it (exactly 1 for rbf), as the
        # store's diagonal gives CombinedKernel.diag, and as scoring reads it
        rng = np.random.default_rng(22)
        rbf = [KernelSpec.rbf(b) for b in np.logspace(-3, 3, 7)]
        specs = rbf + [KernelSpec.poly(2), KernelSpec.poly(3)]
        for n, dim in itertools.product((1, 50), (1, 2, 7, 64)):
            X = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3, 3)
            d = KernelDictionary.from_data(specs, X)
            w = rng.dirichlet(np.ones(len(specs)))
            op = CombinedKernel(d, w)
            op.rows(rng.permutation(n))  # computed in any order
            assert np.array_equal(op.diag, np.diagonal(op.rows(np.arange(n)))), (n, dim)
            diagonals = np.diagonal(d.stack, axis1=1, axis2=2)
            assert (diagonals[: len(rbf)] == 1.0).all(), (n, dim)
            _, test_diags = d.cross(X, np.arange(n), range(len(specs)))
            assert np.array_equal(test_diags, diagonals), (n, dim)

    def test_select_shares_the_store(self):
        X = np.random.default_rng(23).standard_normal((30, 2))
        specs = [KernelSpec.rbf(0.5), KernelSpec.poly(2), KernelSpec.rbf(4.0)]
        d = KernelDictionary.from_data(specs, X)
        sub = d.select(2)
        assert sub.specs == (specs[2],) and sub.nk == 1 and sub.n_train == 30
        op = CombinedKernel(sub, np.ones(1))
        assert op.row(7).tobytes() == gram(specs[2], X).values[7].tobytes()
        # the row was computed once, for every kernel, and serves both
        assert d.rows_computed == sub.rows_computed == 1
        d.block(np.array([7, 3]))
        assert d.rows_computed == 2
        assert sub.stack.tobytes() == d.stack[2:].tobytes()
        assert sub._memo is not d._memo

    def test_cross_for_feature_dictionary(self):
        X = np.random.default_rng(0).standard_normal((5, 2))
        T = np.random.default_rng(1).standard_normal((3, 2))
        specs = [KernelSpec.rbf(1.0), KernelSpec.poly(2)]
        d = KernelDictionary.from_data(specs, X)
        blocks, _ = d.cross(T, np.arange(5), [0])
        np.testing.assert_allclose(blocks[0], cross_gram(specs[0], X, T))
        # narrowed to training rows 1 and 4 and to the second kernel only
        (block,), diags = d.cross(T, [1, 4], [1])
        np.testing.assert_allclose(block, cross_gram(specs[1], X[[1, 4]], T))
        np.testing.assert_allclose(diags, [self_similarities(specs[1], T)])


class TestMatrixIO:
    def test_manifest_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        m1, m2 = random_psd(rng, 4), random_psd(rng, 4)
        write_manifest(
            tmp_path,
            [
                {"id": "k1", "matrix": m1, "kind": "test"},
                {"id": "k2", "matrix": m2},
            ],
        )
        loaded = load_manifest(tmp_path / "manifest.json")
        assert set(loaded) == {"k1", "k2"}
        np.testing.assert_allclose(loaded["k1"], m1, atol=1e-15)
        np.testing.assert_allclose(loaded["k2"], m2, atol=1e-15)

    @pytest.mark.parametrize("bad", ["../escaped", "sub/k", "sub\\k", "", ".", ".."])
    def test_ids_must_be_plain_file_names(self, tmp_path, bad):
        # every id is checked before any file is written
        entries = [{"id": "ok", "matrix": np.eye(2)}, {"id": bad, "matrix": np.eye(2)}]
        with pytest.raises(ValueError, match=f"matrix id {re.escape(repr(bad))} "):
            write_manifest(tmp_path / "out", entries)
        assert list(tmp_path.iterdir()) == []

    def test_matrix_file_is_plain_text(self, tmp_path):
        m = np.array([[1.0, 0.5], [0.5, 2.0]])
        write_manifest(tmp_path, [{"id": "p", "matrix": m}])
        text = (tmp_path / "p.txt").read_text()
        assert len(text.splitlines()) == 2
        np.testing.assert_allclose(load_matrix(tmp_path / "p.txt"), m)

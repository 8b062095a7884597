import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from mksvdd import graphs as graphs_module
from mksvdd import kernels
from mksvdd.graphs import (
    LabeledGraph,
    PathBag,
    PathKernelConfig,
    build_graph_gram,
    collection_from_json,
    graph_kernel_value,
    path_similarity,
    sample_paths,
)
from oracles import bag_kernel_loops, path_product_loops, sample_walks_loops


def random_graph(rng, n_vertices, n_edges, dv=2, de=1):
    edges = set()
    while len(edges) < n_edges:
        i, j = rng.integers(0, n_vertices, size=2)
        if i != j:
            edges.add((min(i, j), max(i, j)))
    edges = sorted(edges)
    return LabeledGraph(
        rng.standard_normal((n_vertices, dv)),
        np.array(edges, dtype=int),
        rng.standard_normal((len(edges), de)),
    )


def single_vertex_graph(labels):
    return LabeledGraph(np.asarray([labels]), np.zeros((0, 2), dtype=int), np.zeros((0, 0)))


def path_graph(labels, edge_labels):
    n = len(labels)
    edges = [(i, i + 1) for i in range(n - 1)]
    return LabeledGraph(np.asarray(labels), np.asarray(edges), np.asarray(edge_labels))


def varied_graphs():
    """Chains and rings, graphs of random shape, one graph listed twice
    with its edges reversed and written as [j, i], a single-vertex graph
    and a graph with a self-loop."""
    rng = np.random.default_rng(24)
    graphs = []
    for n, ring in ((4, False), (5, True), (4, False), (5, True), (4, False)):
        edges = [(i, (i + 1) % n) for i in range(n if ring else n - 1)]
        graphs.append(LabeledGraph(rng.standard_normal((n, 2)), np.array(edges),
                                   rng.standard_normal((len(edges), 1))))
    graphs += [random_graph(rng, 6, 7), random_graph(rng, 5, 6)]
    twin = graphs[-1]
    graphs.append(LabeledGraph(twin.vertex_labels, twin.edges[::-1, ::-1],
                               twin.edge_labels[::-1]))
    graphs.insert(3, single_vertex_graph([0.4, -0.2]))
    graphs.append(LabeledGraph(rng.standard_normal((3, 2)), np.array([[0, 1], [1, 1], [1, 2]]),
                               rng.standard_normal((3, 1))))
    return graphs


class TestLabeledGraph:
    def test_bad_edge_endpoint(self):
        with pytest.raises(ValueError, match="missing vertex"):
            LabeledGraph(np.zeros((2, 1)), np.array([[0, 5]]), np.zeros((1, 1)))

    @pytest.mark.parametrize("edges", [[[0, 1.9]], [[True, 2]], np.array([[False, True]])])
    def test_fractional_or_boolean_endpoint_rejected(self, edges):
        # dtype=int read 1.9 as 1 and true as 1
        with pytest.raises(ValueError, match="edge endpoint must be an integer"):
            LabeledGraph(np.zeros((3, 1)), edges, np.zeros((1, 1)))

    @pytest.mark.parametrize("edges", [[0, 1, 1, 2], [[0, 1, 2]], [[0, 1, 2, 3]], [[0, 1], [2]]])
    def test_edges_are_pairs(self, edges):
        # reshape(-1, 2) read [0, 1, 1, 2] as two edges and [[0, 1, 2, 3]]
        # as two
        with pytest.raises(ValueError, match=r"edges must be pairs of vertices, shape \(k, 2\)"):
            LabeledGraph(np.zeros((4, 1)), edges, np.zeros((2, 1)))
        assert LabeledGraph(np.zeros((2, 1)), [], []).edges.shape == (0, 2)

    def test_edge_labels_must_match(self):
        with pytest.raises(ValueError, match="per edge"):
            LabeledGraph(np.zeros((3, 1)), np.array([[0, 1]]), np.zeros((2, 1)))

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            LabeledGraph(np.zeros((0, 1)), np.zeros((0, 2)), np.zeros((0, 1)))

    def test_json_round_trip(self, tmp_path):
        g = random_graph(np.random.default_rng(0), 4, 3)
        (tmp_path / "g.json").write_text(json.dumps({"graphs": [g.to_dict()]}))
        [back] = collection_from_json(tmp_path / "g.json")["default"]
        assert (back.vertex_labels == g.vertex_labels).all()
        assert (back.edges == g.edges).all()
        assert (back.edge_labels == g.edge_labels).all()

    def test_collection_json(self, tmp_path):
        g = random_graph(np.random.default_rng(1), 3, 2)
        (tmp_path / "c.json").write_text(
            json.dumps({"functions": {"f1": [g.to_dict()], "f2": [g.to_dict()]}})
        )
        coll = collection_from_json(tmp_path / "c.json")
        assert sorted(coll) == ["f1", "f2"]


class TestSamplePaths:
    def test_isolated_vertex(self):
        g = LabeledGraph(np.zeros((1, 1)), np.zeros((0, 2), dtype=int), np.zeros((0, 1)))
        bag = sample_paths(g, PathKernelConfig(max_length=4, bag_size=10, seed=0))
        assert all(p == (0,) for p in bag.paths)

    def test_two_vertex_walk_universe(self):
        g = path_graph([[0.0], [1.0]], [[0.5]])
        universe = {(0,), (1,), (0, 1), (1, 0)}
        bag = sample_paths(g, PathKernelConfig(max_length=2, bag_size=50, seed=3))
        assert set(bag.paths) <= universe
        assert len(set(bag.paths)) > 1

    def test_deterministic(self):
        g = random_graph(np.random.default_rng(5), 6, 8)
        cfg = PathKernelConfig(max_length=4, bag_size=20, seed=11)
        assert sample_paths(g, cfg).paths == sample_paths(g, cfg).paths

    def test_bag_size_and_length_cap(self):
        g = random_graph(np.random.default_rng(6), 7, 10)
        cfg = PathKernelConfig(max_length=3, bag_size=25, seed=2)
        bag = sample_paths(g, cfg)
        assert bag.size == 25
        assert max(len(p) for p in bag.paths) <= 3

    def test_paths_respect_adjacency(self):
        g = random_graph(np.random.default_rng(7), 6, 7)
        edge_set = {tuple(sorted(e)) for e in g.edges.tolist()}
        bag = sample_paths(g, PathKernelConfig(max_length=5, bag_size=30, seed=4))
        for p in bag.paths:
            for a, b in zip(p, p[1:]):
                assert tuple(sorted((a, b))) in edge_set

    # sample_paths at max_length 2, 3 and 4, seeds 0 and 1, bag_size 6:
    # manifests record only the seed, so the stream must not change
    PINNED_WALKS = {
        ("chain", 0): (((2, 3), (1,), (0,), (0,), (2, 3), (2, 3)),
                       ((2, 3, 2), (1,), (0,), (0,), (2, 3, 2), (2, 3)),
                       ((2, 3, 2, 1), (0, 1), (0,), (3,), (3, 2, 3), (3, 2, 3))),
        ("chain", 1): (((2,), (3, 2), (0,), (3, 2), (1,), (1, 0)),
                       ((2, 3), (0, 1, 0), (3, 2, 1), (3,), (1, 2), (1,)),
                       ((2, 3), (0, 1, 0, 1), (3, 2, 1, 0), (1, 0, 1, 2), (1, 2), (0, 1, 0))),
        ("ring", 0): (((3, 4), (1,), (0,), (0,), (3, 4), (3, 4)),
                      ((3, 4, 0), (0,), (0,), (4,), (4, 3), (4, 3)),
                      ((3, 4, 0, 1), (0,), (0,), (3, 4, 3, 4), (3, 4, 3, 4), (1, 2, 3, 2))),
        ("ring", 1): (((2,), (4, 0), (4,), (1, 0), (2, 1), (1, 0)),
                      ((2, 3), (0, 1, 2), (1, 0, 4), (1, 2), (2,), (2, 1)),
                      ((2, 3), (0, 1, 2, 3), (1,), (2, 1, 2, 1), (3, 4), (0,))),
        ("edgeless", 0): (((1,), (0,), (0,), (0,), (2,), (2,)),) * 3,
        ("edgeless", 1): (((1,), (2,), (0,), (2,), (0,), (1,)),) * 3,
    }

    def test_walk_stream_is_pinned(self):
        shapes = {
            "chain": LabeledGraph(np.zeros((4, 1)), np.array([(0, 1), (1, 2), (2, 3)]),
                                  np.zeros((3, 1))),
            "ring": LabeledGraph(np.zeros((5, 1)), np.array([(i, (i + 1) % 5) for i in range(5)]),
                                 np.zeros((5, 1))),
            "edgeless": LabeledGraph(np.zeros((3, 1)), np.zeros((0, 2), dtype=int),
                                     np.zeros((0, 0))),
        }
        for (name, seed), want in self.PINNED_WALKS.items():
            for max_length, paths in zip((2, 3, 4), want):
                cfg = PathKernelConfig(max_length=max_length, bag_size=6, seed=seed)
                assert sample_paths(shapes[name], cfg).paths == paths, (name, seed, max_length)

    def test_walks_equal_scalar_draws(self):
        # the reference makes one rng.integers call per draw; bags of 40
        # walks fetch raw words more than once, a bound of 3 * 2**30
        # rejects a quarter of its words, and 2**32, the largest
        # max_length, is the largest bound numpy draws from 32-bit words
        edgeless = LabeledGraph(np.zeros((3, 1)), np.zeros((0, 2), dtype=int), np.zeros((0, 0)))
        cases = [(g, max_length, bag_size)
                 for g in TestBuildGraphGram.bench_sized_graphs()[::6] + varied_graphs()
                 for max_length in (1, 2, 5) for bag_size in (1, 40)]
        cases += [(edgeless, max_length, 40) for max_length in (3 * 2**30, 2**32)]
        for graph, max_length, bag_size in cases:
            for seed in range(4):
                cfg = PathKernelConfig(max_length=max_length, bag_size=bag_size, seed=seed)
                assert sample_paths(graph, cfg).paths == sample_walks_loops(graph, cfg)
        with pytest.raises(ValueError, match=r"max_length must be at most 2\*\*32, got 4294967297"):
            PathKernelConfig(max_length=2**32 + 1)

    def test_bag_validates_paths(self):
        g = path_graph([[0.0], [1.0], [2.0]], [[0.1], [0.2]])
        with pytest.raises(ValueError, match="not a graph edge"):
            PathBag(g, ((0, 2),))
        # a one-vertex walk has no step to check: its vertex must exist
        # (-1 would read the last vertex's labels, 3 another bag's)
        for vertex in (-1, 3):
            with pytest.raises(ValueError, match=f"path vertex {vertex} is not a graph vertex"):
                PathBag(g, ((1,), (vertex,)))


class TestPathKernelConfig:
    def test_rejects_a_non_finite_bandwidth(self):
        for field in ("sigma", "vertex_bandwidth", "edge_bandwidth"):
            for value in (float("nan"), float("inf"), 0.0):
                with pytest.raises(ValueError, match="strictly positive"):
                    PathKernelConfig(**{field: value})

    @pytest.mark.parametrize("field", ["sigma", "vertex_bandwidth", "edge_bandwidth"])
    @pytest.mark.parametrize("value", [True, "1.0", None, -1.0])
    def test_rejects_a_non_number_bandwidth(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a finite, strictly positive"):
            PathKernelConfig(**{field: value})

    @pytest.mark.parametrize("field", ["sigma", "vertex_bandwidth", "edge_bandwidth"])
    def test_stores_a_bandwidth_as_a_float(self, field, tmp_path):
        # a numpy float32 once built every Gram, then failed writing the
        # manifest after the matrix files
        cfg = PathKernelConfig(**{field: np.float32(0.5)}, max_length=2, bag_size=3)
        assert type(getattr(cfg, field)) is float and getattr(cfg, field) == 0.5
        _, entries = build_graph_gram([path_graph([[0.0], [1.0]], [[0.5]])], [cfg])
        manifest = kernels.write_manifest(tmp_path, entries)
        assert json.loads(manifest.read_text())["matrices"][0]["params"][field] == 0.5

    @pytest.mark.parametrize("field", ["max_length", "bag_size", "seed"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 1.5, 4.7, True, "3", None])
    def test_rejects_a_non_integral_count(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            PathKernelConfig(**{field: value})

    @pytest.mark.parametrize("field, least", [("max_length", 1), ("bag_size", 1), ("seed", 0)])
    def test_rejects_a_count_below_its_least(self, field, least):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= {least}"):
            PathKernelConfig(**{field: least - 1})

    def test_reads_an_integral_float_as_an_int(self):
        cfg = PathKernelConfig(max_length=3.0, bag_size=np.float64(7.0), seed=np.int64(2))
        for field, want in (("max_length", 3), ("bag_size", 7), ("seed", 2)):
            assert type(getattr(cfg, field)) is int and getattr(cfg, field) == want
        assert cfg == PathKernelConfig(max_length=3, bag_size=7, seed=2)


class TestPathSimilarity:
    def test_different_lengths_zero(self):
        g = path_graph([[0.0], [1.0], [2.0]], [[0.1], [0.2]])
        cfg = PathKernelConfig(sigma=1.0)
        assert path_similarity(g, (0, 1), g, (0, 1, 2), cfg) == 0.0

    def test_identical_single_vertex(self):
        g = path_graph([[0.3, 0.7]], [])
        for sigma in (0.5, 1.0, 2.0):
            cfg = PathKernelConfig(sigma=sigma)
            expected = math.exp(-1.0 / (2.0 * sigma**2))
            assert path_similarity(g, (0,), g, (0,), cfg) == pytest.approx(
                expected, abs=1e-15
            )

    def test_matches_product_oracle(self):
        rng = np.random.default_rng(9)
        ga = path_graph(rng.standard_normal((3, 2)), rng.standard_normal((2, 2)))
        gb = path_graph(rng.standard_normal((3, 2)), rng.standard_normal((2, 2)))
        cfg = PathKernelConfig(sigma=0.8, vertex_bandwidth=0.6, edge_bandwidth=1.4)
        pa, pb = (0, 1, 2), (0, 1, 2)
        d = path_product_loops(
            ga.vertex_labels, ga.edge_labels, gb.vertex_labels, gb.edge_labels,
            0.6, 1.4,
        )
        expected = math.exp(-(d**2) / (2 * 0.8**2))
        assert path_similarity(ga, pa, gb, pb, cfg) == pytest.approx(expected, abs=1e-12)

    def test_label_dimension_mismatch(self):
        ga = path_graph([[0.0, 1.0]], [])
        gb = path_graph([[0.0]], [])
        with pytest.raises(ValueError, match="dimension"):
            path_similarity(ga, (0,), gb, (0,), PathKernelConfig())
        # checked before lengths are compared
        gc = path_graph([[0.0], [1.0]], [[0.5]])
        with pytest.raises(ValueError, match="dimension"):
            path_similarity(ga, (0,), gc, (0, 1), PathKernelConfig())

    def test_one_minus_product_mode(self):
        g = path_graph([[0.3]], [])
        cfg = PathKernelConfig(sigma=1.0, distance_mode="one_minus_product")
        # identical paths: product 1, distance 0, similarity 1
        assert path_similarity(g, (0,), g, (0,), cfg) == pytest.approx(1.0)


class TestGraphKernelValue:
    def test_single_identical_paths(self):
        g = path_graph([[0.1, 0.2]], [])
        cfg = PathKernelConfig(sigma=1.5)
        bag = PathBag(g, ((0,),))
        expected = math.exp(-1.0 / (2.0 * 1.5**2))
        assert graph_kernel_value(bag, bag, cfg) == pytest.approx(expected, abs=1e-15)

    def test_disjoint_lengths_zero(self):
        g = path_graph([[0.0], [1.0], [2.0]], [[0.1], [0.2]])
        cfg = PathKernelConfig()
        bag_short = PathBag(g, ((0,), (1,)))
        bag_long = PathBag(g, ((0, 1), (1, 2)))
        assert graph_kernel_value(bag_short, bag_long, cfg) == 0.0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(15)
        ga = random_graph(rng, 5, 6)
        gb = random_graph(rng, 4, 5)
        cfg = PathKernelConfig(
            sigma=0.9, vertex_bandwidth=0.7, edge_bandwidth=1.1,
            max_length=3, bag_size=3, seed=1,
        )
        bag_a = sample_paths(ga, cfg)
        bag_b = PathBag(gb, sample_paths(gb, cfg).paths[:2])
        total = 0.0
        for pa in bag_a.paths:
            for pb in bag_b.paths:
                total += path_similarity(ga, pa, gb, pb, cfg)
        expected = total / (bag_a.size * bag_b.size)
        assert graph_kernel_value(bag_a, bag_b, cfg) == pytest.approx(expected, abs=1e-12)

    def test_an_edge_listed_twice_takes_its_last_label(self):
        # the step 0-1 is listed as [0, 1] and again as [1, 0]: a walk
        # through it reads the label of the later listing, as an edge
        # label lookup over the edges in order does
        rng = np.random.default_rng(27)
        ga = LabeledGraph(rng.standard_normal((3, 2)), np.array([[0, 1], [1, 2], [1, 0]]),
                          np.array([[0.2], [0.9], [-1.4]]))
        gb = random_graph(rng, 4, 4)
        cfg = PathKernelConfig(sigma=0.8, edge_bandwidth=0.5, max_length=3, bag_size=12, seed=3)
        [gram], _ = build_graph_gram([ga, gb], [cfg])
        bags = [sample_paths(g, cfg) for g in (ga, gb)]
        assert any(1 in p[1:] and 0 in p for p in bags[0].paths)
        assert abs(gram.values[0, 1] - bag_kernel_loops(*bags, cfg)) <= 1e-15

    def test_symmetry(self):
        rng = np.random.default_rng(16)
        ga, gb = random_graph(rng, 5, 6), random_graph(rng, 5, 6)
        cfg = PathKernelConfig(max_length=3, bag_size=8, seed=2)
        va = graph_kernel_value(sample_paths(ga, cfg), sample_paths(gb, cfg), cfg)
        vb = graph_kernel_value(sample_paths(gb, cfg), sample_paths(ga, cfg), cfg)
        assert va == pytest.approx(vb, abs=1e-12)

    def test_pairwise_bounds(self):
        # same-length pairs live in [exp(-1/(2 sigma^2)), 1): the label
        # product is in (0, 1], so the envelope exponent is in (0, 1/(2s^2)].
        # The open upper bound closes to 1.0 in floating point when the
        # product underflows for very dissimilar labels.
        rng = np.random.default_rng(17)
        cfg = PathKernelConfig(sigma=1.0, max_length=3, bag_size=6, seed=3)
        floor = math.exp(-1.0 / (2.0 * cfg.sigma**2))
        for _ in range(5):
            ga, gb = random_graph(rng, 4, 4), random_graph(rng, 4, 4)
            ba, bb = sample_paths(ga, cfg), sample_paths(gb, cfg)
            for pa in ba.paths:
                for pb in bb.paths:
                    v = path_similarity(ga, pa, gb, pb, cfg)
                    assert v == 0.0 or floor <= v <= 1.0

    def test_bandwidth_rescaling_invariance(self):
        rng = np.random.default_rng(18)
        ga, gb = random_graph(rng, 5, 6), random_graph(rng, 5, 6)
        scale = 3.7
        cfg = PathKernelConfig(
            sigma=0.8, vertex_bandwidth=0.5, edge_bandwidth=1.2,
            max_length=3, bag_size=10, seed=4,
        )
        cfg_scaled = PathKernelConfig(
            sigma=0.8, vertex_bandwidth=0.5 * scale, edge_bandwidth=1.2 * scale,
            max_length=3, bag_size=10, seed=4,
        )

        def rescale(g):
            return LabeledGraph(
                g.vertex_labels * scale, g.edges, g.edge_labels * scale
            )

        base = graph_kernel_value(sample_paths(ga, cfg), sample_paths(gb, cfg), cfg)
        scaled = graph_kernel_value(
            sample_paths(rescale(ga), cfg_scaled),
            sample_paths(rescale(gb), cfg_scaled),
            cfg_scaled,
        )
        assert scaled == pytest.approx(base, rel=1e-12)


class TestBuildGraphGram:
    def test_single_graph(self):
        g = path_graph([[0.0], [1.0]], [[0.5]])
        cfg = PathKernelConfig(max_length=2, bag_size=5, seed=0)
        grams, entries = build_graph_gram([g], [cfg])
        assert grams[0].values.shape == (1, 1)
        bag = sample_paths(g, cfg)
        assert grams[0].values[0, 0] == pytest.approx(
            graph_kernel_value(bag, bag, cfg)
        )
        assert entries[0]["id"].endswith("000")

    def test_identical_graphs_off_diagonal(self):
        g = path_graph([[0.2], [0.4], [0.8]], [[0.1], [0.3]])
        twin = LabeledGraph(g.vertex_labels.copy(), g.edges.copy(), g.edge_labels.copy())
        cfg = PathKernelConfig(max_length=3, bag_size=12, seed=5)
        grams, _ = build_graph_gram([g, twin], [cfg])
        v = grams[0].values
        assert v[0, 1] == v[0, 0]
        assert v[0, 1] == v[1, 1]

    def test_symmetry_and_psd_pathway_on_small_collection(self, caplog):
        # The verbatim product-in-envelope reading is an empirical
        # similarity: identical paths score lower than dissimilar ones,
        # so its Gram can be indefinite. The eigenvalue check must run
        # and the jitter/warning pathway must fire when it fails.
        rng = np.random.default_rng(19)
        graphs = [random_graph(rng, 4, 4) for _ in range(5)]
        cfgs = [
            PathKernelConfig(sigma=s, max_length=L, bag_size=10, seed=6)
            for s, L in itertools.product((0.5, 1.0), (2, 3))
        ]
        with caplog.at_level("WARNING", logger="mksvdd.graphs"):
            grams, entries = build_graph_gram(graphs, cfgs)
        assert len(grams) == 4
        assert len(entries) == 4
        for g in grams:
            assert np.abs(g.values - g.values.T).max() <= 1e-10
            if not g.eigenvalue_floor_ok():
                assert any("PSD floor" in r.message for r in caplog.records)

    def test_one_minus_product_mode_is_psd_here(self):
        # the alternate distance reading yields PSD matrices on these
        # collections, making it the safe choice for downstream fitting
        rng = np.random.default_rng(19)
        graphs = [random_graph(rng, 4, 4) for _ in range(5)]
        cfgs = [
            PathKernelConfig(
                sigma=s, max_length=L, bag_size=10, seed=6,
                distance_mode="one_minus_product",
            )
            for s, L in itertools.product((0.5, 1.0), (2, 3))
        ]
        grams, _ = build_graph_gram(graphs, cfgs)
        for g in grams:
            eigs = np.linalg.eigvalsh(g.values)
            assert eigs[0] >= -1e-8 * max(eigs[-1], 1e-30)

    def test_bags_shared_across_bandwidths(self):
        # same (max_length, bag_size, seed) across configs: entries with
        # identical sampling params must agree when bandwidths also agree
        g1 = path_graph([[0.2], [0.6]], [[0.3]])
        g2 = path_graph([[0.9], [0.1]], [[0.7]])
        cfg_a = PathKernelConfig(sigma=1.0, max_length=2, bag_size=8, seed=7)
        cfg_b = PathKernelConfig(sigma=1.0, max_length=2, bag_size=8, seed=7)
        grams, _ = build_graph_gram([g1, g2], [cfg_a, cfg_b])
        assert (grams[0].values == grams[1].values).all()

    def test_label_dimension_consistency_required(self):
        g1 = path_graph([[0.0, 1.0]], [])
        g2 = path_graph([[0.0]], [])
        with pytest.raises(ValueError, match="label dimension"):
            build_graph_gram([g1, g2], [PathKernelConfig()])

    def test_edge_label_dimension_consistency_required(self):
        # (..., 1) against (..., 2) edge labels must not broadcast
        g1 = path_graph([[0.0], [1.0]], [[0.5]])
        g2 = path_graph([[0.0], [1.0]], [[0.5, 0.1]])
        cfg = PathKernelConfig(max_length=2, bag_size=4)
        with pytest.raises(ValueError, match="graphs must share the edge label dimension"):
            build_graph_gram([g1, g2], [cfg])
        with pytest.raises(ValueError, match="edge label dimension"):
            graph_kernel_value(sample_paths(g1, cfg), sample_paths(g2, cfg), cfg)
        # graphs without edges carry no edge labels and mix with either
        for g in (g1, g2):
            grams, _ = build_graph_gram([g, single_vertex_graph([0.3])], [cfg])
            assert grams[0].values.shape == (2, 2)

    @pytest.mark.parametrize("mode", ["product", "one_minus_product"])
    @pytest.mark.parametrize("max_length", [1, 2, 3, 4])
    def test_batched_gram_matches_per_pair_formula(self, mode, max_length):
        # the edgeless graph in the middle owns length-1 walks only, so
        # later column graphs follow a graph with no walk of each longer
        # length; small bags leave other lengths missing too
        rng = np.random.default_rng(20 + max_length)
        graphs = [random_graph(rng, int(rng.integers(2, 6)), 1) for _ in range(2)]
        graphs.append(single_vertex_graph([0.4, -0.2]))
        graphs += [random_graph(rng, int(rng.integers(3, 6)), int(rng.integers(2, 4)))
                   for _ in range(3)]
        cfgs = [
            PathKernelConfig(sigma=sigma, vertex_bandwidth=0.7, edge_bandwidth=1.3,
                             max_length=max_length, bag_size=5, seed=3, distance_mode=mode)
            for sigma in (0.5, 1.5)
        ]
        grams, _ = build_graph_gram(graphs, cfgs)
        for cfg, gram_matrix in zip(cfgs, grams):
            v = gram_matrix.values
            assert np.array_equal(v, v.T)
            bags = [sample_paths(g, cfg) for g in graphs]
            for i, j in itertools.combinations(range(len(graphs)), 2):
                assert abs(v[i, j] - bag_kernel_loops(bags[i], bags[j], cfg)) <= 1e-12
                # i < j: the same rows and column sums as the upper triangle
                assert graph_kernel_value(bags[i], bags[j], cfg) == v[i, j]
            for i in range(len(graphs)):
                # the diagonal may carry the PSD jitter
                assert abs(v[i, i] - bag_kernel_loops(bags[i], bags[i], cfg)) <= 1e-8

    @staticmethod
    def bench_sized_graphs():
        """48 noisy chains and rings of 5 to 8 vertices."""
        rng = np.random.default_rng(21)
        graphs = []
        for ring in (False, True):
            for _ in range(24):
                n = int(rng.integers(5, 9))
                edges = [(i, (i + 1) % n) for i in range(n if ring else n - 1)]
                graphs.append(LabeledGraph(
                    0.6 * ring + 0.3 * rng.standard_normal((n, 2)),
                    np.array(edges),
                    ring + 0.3 * rng.standard_normal((len(edges), 1)),
                ))
        return graphs

    def test_bench_sized_build_stays_small(self):
        # per-graph rows against later graphs keep the temporaries at
        # (rows, cols); an all-pairs (N, N, L, d) broadcast over these
        # ~600 walks per length needs over 10 MiB
        graphs = self.bench_sized_graphs()
        cfg = PathKernelConfig(max_length=2, bag_size=25, seed=1,
                               distance_mode="one_minus_product")
        tracemalloc.start()
        try:
            build_graph_gram(graphs, [cfg])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_repeated_walks_count_with_their_weight(self):
        # every walk of a one-vertex graph is (0,), and a one-edge graph
        # has only four walks of length <= 2: each is kept once, counted
        graphs = [single_vertex_graph([0.3, -0.1]),
                  path_graph([[0.1, 0.2], [0.5, -0.4]], [[0.7]])]
        for mode in ("product", "one_minus_product"):
            cfg = PathKernelConfig(sigma=0.8, vertex_bandwidth=0.6, max_length=2,
                                   bag_size=25, seed=2, distance_mode=mode)
            bags = [sample_paths(g, cfg) for g in graphs]
            walks = graphs_module._walks_by_length(bags)
            owner, count, _, _ = walks[1]
            assert count[owner == 0].tolist() == [25.0]
            assert sum(count.sum() for _, count, _, _ in walks.values()) == 50
            [gram], _ = build_graph_gram(graphs, [cfg])
            want = bag_kernel_loops(bags[0], bags[1], cfg)
            assert abs(gram.values[0, 1] - want) <= 1e-15
            for bag in bags:
                got = graph_kernel_value(bag, bag, cfg)
                assert abs(got - bag_kernel_loops(bag, bag, cfg)) <= 1e-15

    def test_bench_configs_match_per_pair_formula(self):
        # the 12 configs of the bench's graph-gram workload; the diagonal
        # may carry the PSD jitter
        graphs = self.bench_sized_graphs()
        cfgs = [PathKernelConfig(sigma=sigma, vertex_bandwidth=bw, max_length=max_length,
                                 bag_size=25, seed=1, distance_mode="one_minus_product")
                for max_length in (2, 3, 4) for sigma in (0.3, 1.0) for bw in (0.5, 1.0)]
        grams, _ = build_graph_gram(graphs, cfgs)
        rng = np.random.default_rng(23)
        pairs = {tuple(sorted(rng.choice(len(graphs), size=2, replace=False))) for _ in range(40)}
        for cfg, gram_matrix in zip(cfgs, grams):
            bags = [sample_paths(g, cfg) for g in graphs]
            for i, j in pairs:
                want = bag_kernel_loops(bags[i], bags[j], cfg)
                assert abs(gram_matrix.values[i, j] - want) <= 1e-14

    def test_grouped_build_equals_one_config_builds(self, monkeypatch):
        # configs of two bag keys interleaved, one config repeated, both
        # distance modes, two vertex and two edge bandwidths, over a
        # collection with an edgeless graph: every Gram is that of its own
        # one-config build
        rng = np.random.default_rng(22)
        graphs = [random_graph(rng, int(rng.integers(3, 6)), 3) for _ in range(3)]
        graphs.insert(1, single_vertex_graph([0.4, -0.2]))
        cfgs = []
        for mode, edge_bw, sigma in itertools.product(
            ("product", "one_minus_product"), (0.6, 1.3), (0.5, 1.5)
        ):
            for max_length in (3, 2):
                cfgs.append(PathKernelConfig(
                    sigma=sigma, vertex_bandwidth=0.8 if mode == "product" else 1.1,
                    edge_bandwidth=edge_bw,
                    max_length=max_length, bag_size=6, seed=4, distance_mode=mode,
                ))
        cfgs.insert(5, cfgs[2])
        checks = []
        floor_ok = graphs_module.GramMatrix.eigenvalue_floor_ok
        monkeypatch.setattr(
            graphs_module.GramMatrix, "eigenvalue_floor_ok",
            lambda self: checks.append(self.values) or floor_ok(self),
        )
        sampled, streams = [], {}
        monkeypatch.setattr(
            graphs_module, "sample_paths",
            lambda g, cfg, words, adjacency: (
                sampled.append((id(g), cfg.max_length))
                or streams.setdefault(cfg.max_length, []).append(words)
                or sample_paths(g, cfg, words, adjacency)),
        )
        grams, entries = build_graph_gram(graphs, cfgs)
        assert len(checks) == len(grams) == len(cfgs)
        # each graph sampled once per bag key, all from the key's one stream
        assert sorted(sampled) == sorted({(id(g), L) for g in graphs for L in (2, 3)})
        for words in streams.values():
            assert all(w is words[0] for w in words)
        assert streams[2][0] is not streams[3][0]
        for k, (cfg, gram_matrix) in enumerate(zip(cfgs, grams)):
            # checked in config order; a jitter changes the diagonal only
            assert np.array_equal(np.triu(checks[k], 1), np.triu(gram_matrix.values, 1))
            [alone], _ = build_graph_gram(graphs, [cfg])
            assert np.array_equal(gram_matrix.values, alone.values)
            assert entries[k]["max_length"] == cfg.max_length
        assert grams[5].values is not grams[2].values

    def test_build_walks_equal_scalar_draws(self, monkeypatch):
        # every graph of a build reads its bag key's one word stream from
        # word 0, so its walks are those of its own default_rng(seed), with
        # the collection in either order, across fetches of more words
        # (bag size 40), and on edgeless graphs at a max_length that
        # rejects a quarter of the words and at the largest, 2**32
        rng = np.random.default_rng(26)
        graphs = varied_graphs() + [random_graph(rng, 7, 9)]
        edgeless = [single_vertex_graph([0.1, 0.2]),
                    LabeledGraph(rng.standard_normal((5, 2)), np.zeros((0, 2), dtype=int),
                                 np.zeros((0, 0))),
                    single_vertex_graph([-0.3, 0.5])]
        cases = [(graphs, PathKernelConfig(max_length=L, bag_size=size, seed=seed))
                 for L, size, seed in ((1, 7, 0), (3, 40, 1), (5, 13, 2))]
        cases += [(edgeless, PathKernelConfig(max_length=L, bag_size=30, seed=3))
                  for L in (3 * 2**30, 2**32)]
        sampled = []

        def spy(graph, cfg, *shared):
            bag = sample_paths(graph, cfg, *shared)
            sampled.append(bag)
            return bag

        monkeypatch.setattr(graphs_module, "sample_paths", spy)
        for collection, cfg in cases:
            for order in (collection, collection[::-1]):
                sampled.clear()
                build_graph_gram(order, [cfg])
                assert [id(bag.graph) for bag in sampled] == [id(g) for g in order]
                for bag in sampled:
                    assert bag.paths == sample_walks_loops(bag.graph, cfg)

    def test_bench_sized_grams_write_as_savetxt(self, tmp_path):
        # the bench's 48 x 48 Grams, each one block with every mirrored
        # pair formatted once, the jittered ones among them
        graphs = self.bench_sized_graphs()
        cfgs = [PathKernelConfig(sigma=sigma, vertex_bandwidth=bw, max_length=max_length,
                                 bag_size=25, seed=1, distance_mode="one_minus_product")
                for max_length in (2, 4) for sigma in (0.3, 1.0) for bw in (0.5, 1.0)]
        _, entries = build_graph_gram(graphs, cfgs)
        kernels.write_manifest(tmp_path, entries)
        for entry in entries:
            np.savetxt(tmp_path / "want.txt", entry["matrix"], fmt="%.17e")
            got = (tmp_path / f"{entry['id']}.txt").read_bytes()
            assert got == (tmp_path / "want.txt").read_bytes(), entry["id"]

    @staticmethod
    def one_row_graph_at_a_time(graphs, cfg):
        """A Gram scored one row graph at a time: per walk length, each
        graph's walks as rows against its own and every later graph's
        walks, summed per column and then per column graph, with
        build_graph_gram's jitter. These are the floating-point
        operations, in their order, that every build must reproduce."""
        bags = [sample_paths(g, cfg) for g in graphs]
        n = len(bags)
        scales = [np.array([[[-1.0 / (2.0 * bw**2)]]])
                  for bw in (cfg.vertex_bandwidth, cfg.edge_bandwidth)]
        sums = np.zeros((1, n, n))
        for owner, count, vertex, edge in graphs_module._walks_by_length(bags).values():
            starts = np.searchsorted(owner, np.arange(n + 1))
            owners = np.flatnonzero(np.diff(starts))
            for k, i in enumerate(owners.tolist()):
                lo, hi = starts[i], starts[i + 1]
                sim = graphs_module._label_products(
                    vertex[:, lo:hi], edge[:, lo:hi], vertex[:, lo:], edge[:, lo:], scales)
                if cfg.distance_mode == "one_minus_product":
                    np.subtract(1.0, sim, out=sim)
                sim *= sim
                sim *= -1.0 / (2.0 * cfg.sigma**2)
                np.exp(sim, out=sim)
                sim *= np.outer(count[lo:hi], count[lo:])
                present = owners[k:]
                sums[:, i, present] += np.add.reduceat(
                    sim.sum(axis=1), starts[present] - lo, axis=1)
        sizes = np.array([bag.size for bag in bags])
        values = sums[0] / np.outer(sizes, sizes)
        lower = np.tril_indices(n, -1)
        values[lower] = values.T[lower]
        if not kernels.GramMatrix(values).eigenvalue_floor_ok():
            values = values + 1e-8 * np.trace(values) / n * np.eye(n)
        return values

    def test_varied_collection_gives_the_same_bits(self):
        # repeated shapes, a graph whose edges are listed in another
        # order, an edgeless graph and a self-loop
        graphs = varied_graphs()
        cfgs = [PathKernelConfig(sigma=sigma, vertex_bandwidth=0.8, edge_bandwidth=1.2,
                                 max_length=max_length, bag_size=9, seed=5, distance_mode=mode)
                for max_length in (3, 1, 4) for mode in ("product", "one_minus_product")
                for sigma in (0.6, 1.4)]
        grams, _ = build_graph_gram(graphs, cfgs)
        for cfg, gram_matrix in zip(cfgs, grams):
            assert np.array_equal(gram_matrix.values, self.one_row_graph_at_a_time(graphs, cfg))

    def test_block_edges_give_the_same_bits(self, monkeypatch):
        # one row graph per block, a block that ends in the middle of a
        # walk length's row graphs, and one block per walk length
        graphs = self.bench_sized_graphs()[::4] + varied_graphs()
        cfgs = [PathKernelConfig(sigma=sigma, vertex_bandwidth=bw, max_length=3, bag_size=12,
                                 seed=2, distance_mode=mode)
                for sigma, bw, mode in itertools.product(
                    (0.4, 1.0), (0.7, 1.1), ("product", "one_minus_product"))]
        want = [self.one_row_graph_at_a_time(graphs, cfg) for cfg in cfgs]
        envelopes = len(cfgs)
        bags = [sample_paths(g, cfgs[0]) for g in graphs]
        walks = graphs_module._walks_by_length(bags)
        owner = walks[3][0]
        starts = np.searchsorted(owner, np.arange(len(graphs) + 1))
        second = np.flatnonzero(np.diff(starts))[1]
        # the first block of length 3 holds its first two row graphs
        middle = envelopes * starts[second + 1] * len(owner)
        total = sum(len(w[0]) for w in walks.values())
        label_products = graphs_module._label_products
        for entries in (1, middle, envelopes * total**2):
            blocks = []
            monkeypatch.setattr(kernels, "BLOCK_ENTRIES", entries)
            monkeypatch.setattr(graphs_module, "_label_products", lambda va, *rest: (
                blocks.append(va.shape[1]) or label_products(va, *rest)))
            got = build_graph_gram(graphs, cfgs)[0]
            for gram, values in zip(got, want):
                assert np.array_equal(gram.values, values)
            if entries == 1:
                assert len(blocks) == sum(len(np.unique(w[0])) for w in walks.values())
            elif entries == middle:
                assert starts[second + 1] in blocks
                assert len(walks) < len(blocks) < len(graphs) * len(walks)
            else:
                assert blocks == [len(w[0]) for w in walks.values()]

    def test_bench_sized_group_stays_small(self):
        # the four configs of one bag key (2 sigmas x 2 vertex bandwidths)
        # hold one product per bandwidth pair, not one per config
        graphs = self.bench_sized_graphs()
        cfgs = [
            PathKernelConfig(sigma=sigma, vertex_bandwidth=bw, max_length=2, bag_size=25,
                             seed=1, distance_mode="one_minus_product")
            for sigma, bw in itertools.product((0.3, 1.0), (0.5, 1.0))
        ]
        tracemalloc.start()
        try:
            grams, _ = build_graph_gram(graphs, cfgs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(grams) == 4
        assert peak < 4 * 2**20

    def test_empty_collection(self):
        with pytest.raises(ValueError, match="empty"):
            build_graph_gram([], [PathKernelConfig()])

"""End-to-end flows stitching several modules together."""

import json

import numpy as np
import pytest

import mksvdd
from mksvdd.cli import main as cli_main
from mksvdd.graphs import LabeledGraph, PathKernelConfig, build_graph_gram


def chain_graph(rng, n, offset):
    labels = offset + 0.3 * rng.standard_normal((n, 2))
    edges = np.array([[i, i + 1] for i in range(n - 1)])
    return LabeledGraph(labels, edges, 0.3 * rng.standard_normal((len(edges), 1)))


def ring_graph(rng, n, offset):
    labels = offset + 0.3 * rng.standard_normal((n, 2))
    edges = np.array([[i, (i + 1) % n] for i in range(n)])
    return LabeledGraph(labels, edges, 1.0 + 0.3 * rng.standard_normal((len(edges), 1)))


class TestGraphFilteringPipeline:
    """Precomputed graph kernels feeding a few-example one-class filter."""

    def build_matrices(self):
        rng = np.random.default_rng(0)
        targets = [chain_graph(rng, int(rng.integers(5, 9)), 0.0) for _ in range(8)]
        similars = [ring_graph(rng, int(rng.integers(5, 9)), 0.6) for _ in range(8)]
        collection = targets + similars
        roles = np.array(["target"] * 8 + ["similar"] * 8, dtype=object)
        configs = [
            PathKernelConfig(
                sigma=s, vertex_bandwidth=0.8, edge_bandwidth=0.8,
                max_length=L, bag_size=20, seed=1,
                distance_mode="one_minus_product",
            )
            for L in (2, 3)
            for s in (0.3, 1.0)
        ]
        _, entries = build_graph_gram(collection, configs)
        return {e["id"]: e["matrix"] for e in entries}, roles

    def test_few_example_filter_beats_random_ranking(self):
        matrices, roles = self.build_matrices()
        wins = 0
        ranks = []
        for split_seed in range(5):
            rng = np.random.default_rng(200 + split_seed)
            train_ids = np.sort(rng.choice(8, size=5, replace=False))
            test_ids = np.setdiff1d(np.arange(16), train_ids)
            dictionary = mksvdd.KernelDictionary.from_matrices(
                matrices, train_ids=train_ids
            )
            model, trace = mksvdd.fit_method(
                "slim-mk-svdd", dictionary, C=0.4, lam=0.01,
                gap_tol=1e-3, max_outer_iters=60,
            )
            metrics = mksvdd.rank_metrics(
                mksvdd.score_ids(model, test_ids), roles[test_ids]
            )
            wins += metrics.win
            ranks.append(metrics.rank_first_target)
        # random ranking: P(win) = 3/11, E[first-target rank] = 3
        assert wins >= 3
        assert np.mean(ranks) < 2.5

    def test_manifest_round_trip_preserves_scores(self, tmp_path):
        matrices, roles = self.build_matrices()
        entries = [{"id": k, "matrix": v} for k, v in matrices.items()]
        mksvdd.write_manifest(tmp_path, entries)
        loaded = mksvdd.load_manifest(tmp_path / "manifest.json")
        train_ids = np.arange(5)
        test_ids = np.arange(5, 16)
        direct = mksvdd.fit_method(
            "mk-svdd",
            mksvdd.KernelDictionary.from_matrices(matrices, train_ids=train_ids),
            C=0.4, gap_tol=1e-3,
        )[0]
        from_files = mksvdd.fit_method(
            "mk-svdd",
            mksvdd.KernelDictionary.from_matrices(
                {k: loaded[k] for k in matrices}, train_ids=train_ids
            ),
            C=0.4, gap_tol=1e-3,
        )[0]
        np.testing.assert_allclose(
            mksvdd.score_ids(direct, test_ids),
            mksvdd.score_ids(from_files, test_ids),
            atol=1e-12,
        )


class TestPrecomputedCliFlow:
    def test_gram_fit_eval_chain(self, tmp_path):
        rng = np.random.default_rng(3)
        feats = np.vstack([
            rng.standard_normal((30, 2)) * 0.3,
            rng.uniform(-3, 3, size=(5, 2)),
        ])
        lines = ["x1,x2,y"] + [
            f"{float(a)!r},{float(b)!r},{1 if i < 30 else -1}"
            for i, (a, b) in enumerate(feats)
        ]
        data = tmp_path / "data.csv"
        data.write_text("\n".join(lines) + "\n")

        grams_dir = tmp_path / "grams"
        assert cli_main(["gram", "--data", str(data), "--label-column", "y",
                         "--rbf", "0.5", "--rbf", "5.0",
                         "--out-dir", str(grams_dir)]) == 0

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dataset": {"kind": "csv", "path": str(data), "label_column": "y"},
            "kernels": {"manifest": str(grams_dir / "manifest.json")},
            "method": "mk-svdd",
            "C": 0.2,
        }))
        fit_dir = tmp_path / "fit"
        assert cli_main(["fit", "--config", str(cfg), "--out-dir", str(fit_dir)]) == 0

        eval_dir = tmp_path / "eval"
        assert cli_main(["eval", "--model", str(fit_dir / "model.json"),
                         "--manifest", str(grams_dir / "manifest.json"),
                         "--test-ids", "all",
                         "--out-dir", str(eval_dir)]) == 0
        rows = [
            line.split(",")
            for line in (eval_dir / "scores.csv").read_text().splitlines()
            if not line.startswith("#")
        ][1:]
        assert len(rows) == 35

        # cross-check against the in-process pipeline
        matrices = mksvdd.load_manifest(grams_dir / "manifest.json")
        dictionary = mksvdd.KernelDictionary.from_matrices(
            matrices, train_ids=np.arange(35)
        )
        model, _ = mksvdd.fit_method("mk-svdd", dictionary, 0.2)
        expected = mksvdd.score_ids(model, np.arange(35))
        got = np.array([float(r[1]) for r in rows])
        np.testing.assert_allclose(got, expected, atol=1e-12)


class TestParallelWorkers:
    def test_worker_pool_matches_serial_bytes(self, tmp_path):
        rng = np.random.default_rng(5)
        feats = np.vstack([
            rng.standard_normal((40, 2)) * 0.3,
            rng.uniform(-3, 3, size=(6, 2)),
        ])
        lines = ["x1,x2,y"] + [
            f"{float(a)!r},{float(b)!r},{1 if i < 40 else -1}"
            for i, (a, b) in enumerate(feats)
        ]
        data = tmp_path / "data.csv"
        data.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "dataset": {"kind": "csv", "path": str(data), "label_column": "y"},
            "kernels": {"rbf": [0.5, 5.0]},
            "methods": ["mk-svdd"],
            "grids": {"C": [0.1, 0.2]},
            "repetitions": 2,
            "policy": "auc",
        }))
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert cli_main(["experiment", "--config", str(cfg),
                         "--out-dir", str(serial), "--workers", "1"]) == 0
        assert cli_main(["experiment", "--config", str(cfg),
                         "--out-dir", str(parallel), "--workers", "2"]) == 0
        assert (serial / "results.csv").read_bytes() == (parallel / "results.csv").read_bytes()

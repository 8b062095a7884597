"""The four benchmark workloads: inputs made from the seed, calls, output checks.

Every call goes through ``mksvdd.cli.main`` with relative paths (the run
works from the checkout root), so output files do not depend on where the
checkout lives and their digests compare across checkouts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles

RBF = [0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0]
REFERENCE = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Call:
    """One CLI invocation; calls with equal keys have identical inputs."""

    key: str
    argv: tuple[str, ...]
    out_dir: Path


def _write_labeled_csv(path: Path, features: np.ndarray, labels) -> None:
    lines = ["label,x1,x2"]
    lines += [f"{int(l)},{float(a)!r},{float(b)!r}" for (a, b), l in zip(features, labels)]
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))


def blob_geometry(rng):
    """Two blobs as in acceptance criterion 8's synthetic substitute.

    Centers uniform in [-0.8, 0.8]^2 at least 0.8 apart, stds in [0.08, 0.15].
    """
    centers = rng.uniform(-0.8, 0.8, size=(2, 2))
    while np.linalg.norm(centers[0] - centers[1]) < 0.8:
        centers = rng.uniform(-0.8, 0.8, size=(2, 2))
    return centers, rng.uniform(0.08, 0.15, size=2)


def blob_sample(rng, geometry, n_in: int, n_out: int):
    """Inliers split over the two blobs, then uniform outliers on [-2, 2]^2."""
    centers, stds = geometry
    half = n_in // 2
    inliers = np.vstack(
        [centers[k] + stds[k] * rng.standard_normal((n, 2))
         for k, n in enumerate((half, n_in - half))]
    )
    outliers = rng.uniform(-2.0, 2.0, size=(n_out, 2))
    features = np.vstack([inliers, outliers])
    return features, np.array([1] * n_in + [-1] * n_out)


class Workload:
    """A pass of calls over inputs made by ``setup``; ``units_per_call`` ops each.

    ``boundary`` names a function whose calls split one CLI call into its
    ops: ("enter", owner, attr) marks an op start, ("exit", ...) an op end.
    """

    name = ""
    units_per_call = 1
    boundary = None

    def setup(self, work: Path, seed: int) -> None:
        raise NotImplementedError

    def calls(self) -> list[Call]:
        raise NotImplementedError

    def check(self, call: Call) -> list[list[str]]:
        """Problems found in the call's outputs, one list per op."""
        raise NotImplementedError

    def notes(self, call: Call) -> dict:
        """Facts about the outputs worth recording besides pass/fail."""
        return {}


class GridSlim(Workload):
    """The unsupervised (C, lambda) grid of acceptance criterion 8, via experiment.

    The two datasets are criterion 8's substitutes for dataset seeds 0 and 1
    in every run: the solver's work on this grid is chaotic in the data
    (permuting the rows alone moves a dataset's time by +-25%), so fresh data
    per seed would hide any change in noise. The seed orders the datasets
    and the C and lambda lists.
    """

    name = "grid-slim"
    units_per_call = 50
    dataset_seeds = (0, 1)

    @property
    def boundary(self):
        from mksvdd import evaluation

        return ("enter", evaluation, "fit_method")

    def setup(self, work, seed):
        rng = np.random.default_rng([seed, 1])
        c_grid = [round(0.05 * k, 2) for k in range(1, 11)]
        lam_grid = [0.0, 0.001, 0.01, 0.1, 1.0]
        self._calls = []
        for ds in rng.permutation(self.dataset_seeds):
            key = f"c8-{ds}"
            ds_rng = np.random.default_rng(int(ds))
            features, labels = blob_sample(ds_rng, blob_geometry(ds_rng), 350, 10)
            _write_labeled_csv(work / f"{key}.csv", features, labels)
            config = {
                "methods": ["slim-mk-svdd"],
                "dataset": {"kind": "csv", "path": str(work / f"{key}.csv"),
                            "label_column": "label"},
                "kernels": {"rbf": RBF},
                "grids": {"C": [c_grid[i] for i in rng.permutation(10)],
                          "lambda": [lam_grid[i] for i in rng.permutation(5)]},
                "mkl": {"gap_tol": 1e-3, "max_outer_iters": 100},
                "policy": "auc",
            }
            _write_json(work / f"{key}.json", config)
            out = work / "out" / key
            self._calls.append(Call(key, (
                "experiment", "--config", str(work / f"{key}.json"),
                "--out-dir", str(out), "--workers", "1"), out))
        self._reference = oracles.load_json(REFERENCE)[self.name]

    def calls(self):
        return self._calls

    def _selected(self, call):
        _, rows = oracles.read_cli_csv(call.out_dir / "results.csv")
        table = [dict(zip(rows[0], r)) for r in rows[1:]]
        return [r for r in table if r["row"] == "rep"]

    def check(self, call):
        reps = self._selected(call)
        ref = self._reference[call.key]
        if len(reps) != 1 or reps[0]["error"]:
            problem = [f"results.csv reports an error: {reps}"]
        elif float(reps[0]["auc"]) < ref["auc"]:
            problem = [f"selected AUC {reps[0]['auc']} < reference {ref['auc']!r}"]
        else:
            problem = []
        return [problem] * self.units_per_call

    def notes(self, call):
        rep = self._selected(call)[0]
        ref = self._reference[call.key]
        picked = {"C": float(rep["C"]), "lambda": float(rep["lambda"]),
                  "auc": float(rep["auc"])}
        return {"selected": picked,
                "selection_changed": (picked["C"], picked["lambda"]) != (ref["C"], ref["lambda"])}


class FitLarge(Workload):
    """``mksvdd fit`` of all four multi-kernel methods on gen2d data, n=2000.

    The inputs are the same in every run: gen2d data for dataset seed 0,
    for the reason given for grid-slim (the slim fits' time on gen2d seeds 1
    and 2 differs by 45%), and a fixed order of fits, because the first fit
    in a process pays for mapping its 590 MB and a seeded order would move
    that cost between ops.
    """

    name = "fit-large"
    methods = ("mk-svdd", "slim-mk-svdd", "mk-ocsvm", "slim-mk-ocsvm")
    dataset_seed = 0

    def setup(self, work, seed):
        self._calls = []
        for method in self.methods:
            config = {
                "method": method,
                "dataset": {"kind": "gen2d", "seed": self.dataset_seed,
                            "n_areas": 3, "n_points": 2000},
                "kernels": {"rbf": RBF},
                "C": 0.05,
                "lambda": 0.1,
            }
            _write_json(work / f"{method}.json", config)
            out = work / "out" / method
            self._calls.append(Call(method, (
                "fit", "--config", str(work / f"{method}.json"), "--out-dir", str(out)), out))

    def calls(self):
        return self._calls

    def check(self, call):
        raw = oracles.load_json(call.out_dir / "model.json")
        problems = oracles.model_problems(raw, len(RBF))
        if not (call.out_dir / "trace.csv").is_file():
            problems.append("no trace.csv")
        return [problems]


class EvalBulk(Workload):
    """``mksvdd eval`` of one n=500 slim model over a pool of 1000-row test CSVs."""

    name = "eval-bulk"
    pool = 20
    per_pass = 100

    def setup(self, work, seed):
        rng = np.random.default_rng([seed, 3])
        geometry = blob_geometry(rng)
        features, labels = blob_sample(rng, geometry, 500, 0)
        _write_labeled_csv(work / "train.csv", features, labels)
        config = {
            "method": "slim-mk-svdd",
            "dataset": {"kind": "csv", "path": str(work / "train.csv"), "label_column": "label"},
            "kernels": {"rbf": RBF},
            "C": 0.05,
            "lambda": 0.01,
            "mkl": {"gap_tol": 1e-3, "max_outer_iters": 100},
        }
        _write_json(work / "fit.json", config)
        from mksvdd import cli

        model_dir = work / "model"
        if cli.main(["fit", "--config", str(work / "fit.json"), "--out-dir", str(model_dir)]) != 0:
            raise RuntimeError("set-up fit failed")
        self._model = oracles.load_json(model_dir / "model.json")
        self._model_problems = oracles.model_problems(self._model, len(RBF))
        self._train = features
        self._calls = []
        for k in range(self.pool):
            test_features, test_labels = blob_sample(rng, geometry, 900, 100)
            path = work / f"test-{k:02d}.csv"
            _write_labeled_csv(path, test_features, test_labels)
            out = work / "out" / f"test-{k:02d}"
            self._calls.append(Call(f"test-{k:02d}", (
                "eval", "--model", str(model_dir / "model.json"), "--data", str(path),
                "--label-column", "label", "--out-dir", str(out)), out))

    def calls(self):
        return [self._calls[i % self.pool] for i in range(self.per_pass)]

    def check(self, call):
        problems = list(self._model_problems)
        test, labels = oracles.read_labeled_csv(call.argv[call.argv.index("--data") + 1])
        _, rows = oracles.read_cli_csv(call.out_dir / "scores.csv")
        table = np.array(rows[1:], dtype=float)
        if table.shape != (len(labels), 3):
            return [problems + [f"scores.csv has shape {table.shape}"]]
        if not (np.array_equal(table[:, 0], np.arange(len(labels)))
                and np.array_equal(table[:, 2], labels)):
            problems.append("scores.csv ids or labels differ from the test CSV")
        scores = table[:, 1]
        expected = oracles.rbf_scores(self._model, self._train, test)
        worst = float(np.max(np.abs(scores - expected)))
        if worst > 1e-9:
            problems.append(f"scores differ from the recomputation by {worst:.3g}")
        notes, _ = oracles.read_cli_csv(call.out_dir / "report.csv")
        auc = oracles.pairwise_auc(scores, labels)
        if abs(float(notes.get("auc", "nan")) - auc) > 1e-12:
            problems.append(f"report AUC {notes.get('auc')} != recomputed {auc!r}")
        return [problems]


def chain_graph(rng, n):
    labels = 0.3 * rng.standard_normal((n, 2))
    edges = [[i, i + 1] for i in range(n - 1)]
    return {"vertex_labels": labels.tolist(), "edges": edges,
            "edge_labels": (0.3 * rng.standard_normal((len(edges), 1))).tolist()}


def ring_graph(rng, n):
    labels = 0.6 + 0.3 * rng.standard_normal((n, 2))
    edges = [[i, (i + 1) % n] for i in range(n)]
    return {"vertex_labels": labels.tolist(), "edges": edges,
            "edge_labels": (1.0 + 0.3 * rng.standard_normal((len(edges), 1))).tolist()}


class GraphGram(Workload):
    """``mksvdd graph-gram`` on noisy chains and rings, as in demos/05."""

    name = "graph-gram"
    units_per_call = 12
    collections = 2
    spot_checks = 3

    @property
    def boundary(self):
        from mksvdd.kernels import GramMatrix

        return ("exit", GramMatrix, "eigenvalue_floor_ok")

    def setup(self, work, seed):
        config = {
            "bag_size": 25,
            "seed": seed,
            "distance_mode": "one_minus_product",
            "grid": {"max_lengths": [2, 3, 4], "sigmas": [0.3, 1.0],
                     "vertex_bandwidths": [0.5, 1.0]},
        }
        _write_json(work / "graph-gram.json", config)
        self._graphs = {}
        self._calls = []
        for k in range(self.collections):
            rng = np.random.default_rng([seed, 4, k])
            graphs = [chain_graph(rng, int(rng.integers(5, 9))) for _ in range(24)]
            graphs += [ring_graph(rng, int(rng.integers(5, 9))) for _ in range(24)]
            key = f"graphs-{k}"
            _write_json(work / f"{key}.json", {"graphs": graphs})
            self._graphs[key] = oracles.load_json(work / f"{key}.json")["graphs"]
            out = work / "out" / key
            self._calls.append(Call(key, (
                "graph-gram", "--graphs", str(work / f"{key}.json"),
                "--config", str(work / "graph-gram.json"), "--out-dir", str(out)), out))
        self._rng = np.random.default_rng([seed, 5])

    def calls(self):
        return self._calls

    def check(self, call):
        graphs = self._graphs[call.key]
        listed = oracles.load_json(call.out_dir / "manifest.json")["matrices"]
        if len(listed) != self.units_per_call:
            return [[f"manifest lists {len(listed)} matrices"]] * self.units_per_call
        out = []
        for entry in listed:
            matrix = np.loadtxt(call.out_dir / entry["file"], ndmin=2)
            problems = []
            if matrix.shape != (len(graphs), len(graphs)):
                out.append([f"{entry['id']} has shape {matrix.shape}"])
                continue
            if not np.array_equal(matrix, matrix.T):
                problems.append(f"{entry['id']} is not symmetric")
            for _ in range(self.spot_checks):
                i, j = sorted(self._rng.choice(len(graphs), size=2, replace=False))
                want = oracles.bag_of_paths_value(graphs[i], graphs[j], entry["params"])
                if abs(matrix[i, j] - want) > 1e-9 * max(1.0, abs(want)):
                    problems.append(f"{entry['id']}[{i},{j}] = {float(matrix[i, j])!r}, formula {want!r}")
            out.append(problems)
        return out


WORKLOADS = {w.name: w for w in (GridSlim, FitLarge, EvalBulk, GraphGram)}

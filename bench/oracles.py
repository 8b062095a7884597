"""Independent recomputations the benchmark checks the CLI's outputs against.

Nothing here imports mksvdd: scores, AUC and bag-of-paths kernel values are
recomputed from the files the CLI reads and writes, by the formulas its
documentation states, written for clarity rather than speed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

SUM_TOL = 1e-9
BOX_TOL = 1e-12


def read_labeled_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """(features, labels) of a ``label,x1,...`` CSV with a header row."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, comments="#", ndmin=2)
    return table[:, 1:], table[:, 0].astype(int)


def read_cli_csv(path) -> tuple[dict, list[list[str]]]:
    """Comment lines as {key: rest} plus the data rows (header first)."""
    notes, rows = {}, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            key, _, rest = line[1:].strip().partition(" ")
            notes[key] = rest
        elif line:
            rows.append(line.split(","))
    return notes, rows


def model_problems(raw: dict, n_kernels: int) -> list[str]:
    """Feasibility of a model.json payload: sum(alpha)=1, 0<=alpha<=C, simplex d."""
    model = raw["model"]
    problems = []
    values = np.asarray(model["alpha"]["values"], dtype=float)
    C = float(model["C"])
    if abs(values.sum() - 1.0) > SUM_TOL:
        problems.append(f"sum(alpha) = {values.sum()!r}")
    if values.size and (values.min() < -BOX_TOL or values.max() > C + BOX_TOL):
        problems.append(f"alpha outside [0, C={C}]")
    if len(set(model["alpha"]["indices"])) != values.size:
        problems.append("repeated alpha indices")
    weights = np.asarray(model["weights"], dtype=float)
    if weights.size != n_kernels:
        problems.append(f"{weights.size} weights for {n_kernels} kernels")
    if weights.min() < 0.0 or abs(weights.sum() - 1.0) > SUM_TOL:
        problems.append(f"weights off the simplex: {weights.tolist()}")
    return problems


def rbf_scores(raw: dict, train: np.ndarray, test: np.ndarray) -> np.ndarray:
    """Outlier scores of an RBF model, summed over its support vectors only.

    svdd: k(x,x) - 2 sum_j a_j k(x,x_j) + self_term - threshold, k(x,x) = 1;
    ocsvm: threshold - sum_j a_j k(x,x_j); k = sum_m d_m exp(-|x-y|^2/2s_m^2).
    """
    model = raw["model"]
    sv = train[np.asarray(model["alpha"]["indices"], dtype=int)]
    alpha = np.asarray(model["alpha"]["values"], dtype=float)
    sq = ((test[:, None, :] - sv[None, :, :]) ** 2).sum(axis=2)
    g = np.zeros(test.shape[0])
    for weight, spec in zip(model["weights"], model["kernels"]):
        g += weight * (np.exp(-sq / (2.0 * spec["bandwidth"] ** 2)) @ alpha)
    if model["kind"] == "svdd":
        return sum(model["weights"]) - 2.0 * g + model["self_term"] - model["threshold"]
    return model["threshold"] - g


def pairwise_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """P(outlier scored above target), ties counted half, over all pairs."""
    out = scores[labels == -1][:, None]
    inl = scores[labels == 1][None, :]
    wins = (out > inl).sum() + 0.5 * (out == inl).sum()
    return float(wins / (out.size * inl.size))


def sample_walks(graph: dict, max_length: int, bag_size: int, seed: int):
    """Random walks as documented for ``mksvdd.graphs.sample_paths``."""
    n = len(graph["vertex_labels"])
    neighbors = [[] for _ in range(n)]
    for i, j in graph["edges"]:
        neighbors[i].append(j)
        if i != j:
            neighbors[j].append(i)
    neighbors = [sorted(a) for a in neighbors]
    rng = np.random.default_rng(seed)
    walks = []
    for _ in range(bag_size):
        target = int(rng.integers(1, max_length + 1))
        walk = [int(rng.integers(0, n))]
        while len(walk) < target and neighbors[walk[-1]]:
            options = neighbors[walk[-1]]
            walk.append(options[int(rng.integers(0, len(options)))])
        walks.append(walk)
    return walks


def _gauss(a, b, bandwidth: float) -> float:
    sq = sum((x - y) ** 2 for x, y in zip(a, b))
    return math.exp(-sq / (2.0 * bandwidth**2))


def bag_of_paths_value(graph_a: dict, graph_b: dict, params: dict) -> float:
    """Mean walk similarity between two graphs' bags, one pair at a time."""
    bags = [
        sample_walks(g, params["max_length"], params["bag_size"], params["seed"])
        for g in (graph_a, graph_b)
    ]
    edge_tables = []
    for g in (graph_a, graph_b):
        table = {}
        for (i, j), label in zip(g["edges"], g["edge_labels"]):
            table[(i, j)] = table[(j, i)] = label
        edge_tables.append(table)
    va, vb = graph_a["vertex_labels"], graph_b["vertex_labels"]
    ea, eb = edge_tables
    total = 0.0
    for p in bags[0]:
        for q in bags[1]:
            if len(p) != len(q):
                continue
            prod = _gauss(va[p[0]], vb[q[0]], params["vertex_bandwidth"])
            for t in range(1, len(p)):
                prod *= _gauss(ea[(p[t - 1], p[t])], eb[(q[t - 1], q[t])],
                               params["edge_bandwidth"])
                prod *= _gauss(va[p[t]], vb[q[t]], params["vertex_bandwidth"])
            if params["distance_mode"] == "one_minus_product":
                prod = 1.0 - prod
            total += math.exp(-(prod**2) / (2.0 * params["sigma"] ** 2))
    return total / (len(bags[0]) * len(bags[1]))


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())

"""Bag-of-paths kernel between vertex/edge-labeled graphs.

A bag of random walks is sampled from each graph; the kernel between two
graphs is the mean pairwise similarity between their walks. Two walks of
equal length compare through the product of Gaussian label similarities
along their vertices and edges; walks of different lengths have
similarity zero.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kernels import GramMatrix

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LabeledGraph:
    """Undirected graph with real label vectors on vertices and edges."""

    vertex_labels: np.ndarray
    edges: np.ndarray
    edge_labels: np.ndarray

    def __post_init__(self) -> None:
        vl = np.atleast_2d(np.asarray(self.vertex_labels, dtype=float))
        if vl.shape[0] == 0 or vl.size == 0:
            raise ValueError("graph needs at least one vertex")
        edges = np.asarray(self.edges, dtype=int).reshape(-1, 2)
        el = np.asarray(self.edge_labels, dtype=float)
        if el.ndim == 1 and edges.shape[0] != 1:
            el = el.reshape(-1, 1) if el.size else el.reshape(0, 0)
        else:
            el = np.atleast_2d(el) if el.size else el.reshape(0, 0)
        if edges.shape[0] and (edges.min() < 0 or edges.max() >= vl.shape[0]):
            raise ValueError("edge endpoint references a missing vertex")
        if edges.shape[0] != el.shape[0]:
            raise ValueError("one label vector per edge required")
        object.__setattr__(self, "vertex_labels", vl)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "edge_labels", el)

    @property
    def n_vertices(self) -> int:
        return self.vertex_labels.shape[0]

    def neighbors(self) -> list[np.ndarray]:
        """Adjacency lists (undirected), sorted for determinism."""
        adj: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for i, j in self.edges.tolist():
            adj[i].append(j)
            if i != j:
                adj[j].append(i)
        return [np.array(sorted(a), dtype=int) for a in adj]

    def edge_label_lookup(self) -> dict[tuple[int, int], np.ndarray]:
        table: dict[tuple[int, int], np.ndarray] = {}
        for (i, j), lab in zip(self.edges.tolist(), self.edge_labels):
            table[(i, j)] = lab
            table[(j, i)] = lab
        return table

    def to_dict(self) -> dict:
        return {
            "vertex_labels": self.vertex_labels.tolist(),
            "edges": self.edges.tolist(),
            "edge_labels": self.edge_labels.tolist(),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "LabeledGraph":
        return cls(
            np.asarray(raw["vertex_labels"], dtype=float),
            np.asarray(raw.get("edges", []), dtype=int),
            np.asarray(raw.get("edge_labels", []), dtype=float),
        )


@dataclass(frozen=True)
class PathKernelConfig:
    """Bandwidths and sampling parameters of the path kernel.

    sigma scales the Gaussian envelope around the path-pair product;
    vertex_bandwidth / edge_bandwidth are the label-similarity bandwidths.
    distance_mode "product" feeds the raw similarity product into the
    envelope; "one_minus_product" first converts it to a distance
    (non-default alternate reading).
    """

    sigma: float = 1.0
    vertex_bandwidth: float = 1.0
    edge_bandwidth: float = 1.0
    max_length: int = 3
    bag_size: int = 20
    seed: int = 0
    distance_mode: str = "product"

    def __post_init__(self) -> None:
        bandwidths = (self.sigma, self.vertex_bandwidth, self.edge_bandwidth)
        if not all(0 < b < np.inf for b in bandwidths):  # NaN fails too
            raise ValueError("all bandwidths must be strictly positive")
        if self.max_length < 1:
            raise ValueError("max_length must be at least 1")
        if self.bag_size < 1:
            raise ValueError("bag_size must be at least 1")
        if self.distance_mode not in ("product", "one_minus_product"):
            raise ValueError(f"unknown distance_mode: {self.distance_mode!r}")

    def to_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "vertex_bandwidth": self.vertex_bandwidth,
            "edge_bandwidth": self.edge_bandwidth,
            "max_length": self.max_length,
            "bag_size": self.bag_size,
            "seed": self.seed,
            "distance_mode": self.distance_mode,
        }


@dataclass(frozen=True)
class PathBag:
    """Sampled walks of one graph, kept as vertex-index tuples."""

    graph: LabeledGraph
    paths: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.paths:
            raise ValueError("a path bag must hold at least one path")
        adjacency = {tuple(sorted(e)) for e in self.graph.edges.tolist()}
        for p in self.paths:
            if not p:
                raise ValueError("empty path")
            for a, b in zip(p, p[1:]):
                if tuple(sorted((a, b))) not in adjacency:
                    raise ValueError(f"path step {a}-{b} is not a graph edge")

    @property
    def size(self) -> int:
        return len(self.paths)


def sample_paths(graph: LabeledGraph, config: PathKernelConfig) -> PathBag:
    """Bag of config.bag_size random walks of length <= config.max_length.

    Each walk draws a target length uniformly in 1..max_length, starts at
    a uniform vertex and takes uniform neighbor steps, stopping early at
    dead ends; an isolated vertex yields a single-vertex walk.
    Deterministic for a fixed config.seed.
    """
    rng = np.random.default_rng(config.seed)
    adjacency = graph.neighbors()
    paths = []
    for _ in range(config.bag_size):
        target = int(rng.integers(1, config.max_length + 1))
        vertex = int(rng.integers(0, graph.n_vertices))
        walk = [vertex]
        while len(walk) < target:
            options = adjacency[walk[-1]]
            if options.size == 0:
                break
            walk.append(int(options[rng.integers(0, options.size)]))
        paths.append(tuple(walk))
    return PathBag(graph, tuple(paths))


def _edge_label_dim(graphs) -> int:
    """Edge label dimension of the graphs with edges (0 if none has any).

    Rejects collections whose vertex label dimensions differ, or whose
    graphs with edges differ in edge label dimension.
    """
    if len({g.vertex_labels.shape[1] for g in graphs}) != 1:
        raise ValueError("graphs must share the vertex label dimension")
    edge_dims = {g.edge_labels.shape[1] for g in graphs if g.edges.shape[0]}
    if len(edge_dims) > 1:
        raise ValueError("graphs must share the edge label dimension")
    return edge_dims.pop() if edge_dims else 0


def _walks_by_length(bags) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every walk of every bag, grouped by length, in bag order.

    Maps each length L to (owner, vertex, edge): the index of the bag
    owning each walk, vertex labels of shape (N_L, L, dv) and edge labels
    of shape (N_L, L-1, de).
    """
    de = _edge_label_dim([bag.graph for bag in bags])
    groups: dict[int, tuple[list, list, list]] = {}
    for index, bag in enumerate(bags):
        table = bag.graph.edge_label_lookup()
        for p in bag.paths:
            owner, vertex, edge = groups.setdefault(len(p), ([], [], []))
            owner.append(index)
            vertex.append(bag.graph.vertex_labels[list(p)])
            edge.append([table[step] for step in zip(p, p[1:])])
    return {
        length: (
            np.array(owner),
            np.stack(vertex),
            np.asarray(edge, dtype=float).reshape(len(owner), length - 1, de),
        )
        for length, (owner, vertex, edge) in sorted(groups.items())
    }


def _walk_similarity(va, ea, vb, eb, config: PathKernelConfig) -> np.ndarray:
    """(rows, cols) similarities between two stacks of equal-length walks.

    Squared label distances are accumulated per position and label
    dimension into (rows, cols) arrays, so no temporary grows with the
    walk length or the label dimension.
    """
    prod = np.ones((va.shape[0], vb.shape[0]))
    for a, b, bandwidth in (
        (va, vb, config.vertex_bandwidth),
        (ea, eb, config.edge_bandwidth),
    ):
        scale = 2.0 * bandwidth**2
        for position in range(a.shape[1]):
            sq = np.zeros_like(prod)
            for dim in range(a.shape[2]):
                diff = a[:, None, position, dim] - b[None, :, position, dim]
                sq += diff * diff
            prod *= np.exp(-sq / scale)
    if config.distance_mode == "one_minus_product":
        prod = 1.0 - prod
    return np.exp(-(prod**2) / (2.0 * config.sigma**2))


def _bag_kernel(bags, walks, config: PathKernelConfig) -> np.ndarray:
    """Mean path similarity between every pair of bags, as an exactly
    symmetric (n, n) matrix.

    walks is _walks_by_length(bags). For each length, one bag's walks
    are taken as rows against the walks of that bag and every later bag
    as columns (the upper triangle only); the similarities are summed
    per column and then per column bag.
    """
    n = len(bags)
    sums = np.zeros((n, n))
    for owner, vertex, edge in walks.values():
        starts = np.searchsorted(owner, np.arange(n + 1))
        for i in range(n):
            lo, hi = starts[i], starts[i + 1]
            if lo == hi:
                continue
            sim = _walk_similarity(vertex[lo:hi], edge[lo:hi], vertex[lo:], edge[lo:], config)
            present, first = np.unique(owner[lo:], return_index=True)
            sums[i, present] += np.add.reduceat(sim.sum(axis=0), first)
    sizes = np.array([bag.size for bag in bags])
    values = sums / np.outer(sizes, sizes)
    lower = np.tril_indices(n, -1)
    values[lower] = values.T[lower]
    return values


def graph_kernel_value(
    bag_i: PathBag, bag_j: PathBag, config: PathKernelConfig
) -> float:
    """Mean path similarity over the cross product of two bags."""
    bags = [bag_i, bag_j]
    return float(_bag_kernel(bags, _walks_by_length(bags), config)[0, 1])


def path_similarity(
    graph_a: LabeledGraph,
    path_a,
    graph_b: LabeledGraph,
    path_b,
    config: PathKernelConfig,
) -> float:
    """Similarity of two walks: 0 for different lengths, else the Gaussian
    envelope of the label product along the walks (graph_kernel_value of
    two one-walk bags)."""
    return graph_kernel_value(
        PathBag(graph_a, (tuple(path_a),)), PathBag(graph_b, (tuple(path_b),)), config
    )


def build_graph_gram(
    graphs, configs, id_prefix: str = "bop"
) -> tuple[list[GramMatrix], list[dict]]:
    """One Gram matrix over the graph collection per kernel config.

    Walk bags are sampled once per (graph, max_length, bag_size, seed)
    combination and shared across bandwidth settings; each Gram is built
    over its upper triangle and mirrored, so it is exactly symmetric.
    Matrices failing the eigenvalue floor get a small diagonal jitter
    (logged).

    Returns the matrices plus manifest entries carrying "id", "matrix"
    and the config parameters, ready for kernels.write_manifest.
    """
    graphs = list(graphs)
    if not graphs:
        raise ValueError("empty graph collection")
    configs = list(configs)
    if not configs:
        raise ValueError("no kernel configs given")

    walk_cache: dict[tuple, tuple[list[PathBag], dict]] = {}
    grams: list[GramMatrix] = []
    entries: list[dict] = []
    n = len(graphs)
    for c_idx, config in enumerate(configs):
        key = (config.max_length, config.bag_size, config.seed)
        if key not in walk_cache:
            bags = [sample_paths(g, config) for g in graphs]
            walk_cache[key] = (bags, _walks_by_length(bags))
        values = _bag_kernel(*walk_cache[key], config)
        candidate = GramMatrix(values)
        if not candidate.eigenvalue_floor_ok():
            jitter = 1e-8 * np.trace(values) / n
            log.warning(
                "graph gram %d failed the PSD floor; adding diagonal jitter %.3e",
                c_idx,
                jitter,
            )
            candidate = GramMatrix(values + jitter * np.eye(n))
        grams.append(candidate)
        entry = {"id": f"{id_prefix}_{c_idx:03d}", "matrix": candidate.values}
        entry.update(config.to_dict())
        entries.append(entry)
    return grams, entries


def collection_from_json(path) -> dict[str, list[LabeledGraph]]:
    """Load a named-function graph collection.

    Accepts either {"graphs": [...]} (a single anonymous collection) or
    {"functions": {"name": [...], ...}} with per-function graph lists
    aligned by shape index. A file lacking a key raises a ValueError
    naming the key and the file.
    """
    raw = json.loads(Path(path).read_text())
    try:
        if "functions" in raw:
            return {
                name: [LabeledGraph.from_dict(g) for g in graphs]
                for name, graphs in raw["functions"].items()
            }
        return {"default": [LabeledGraph.from_dict(g) for g in raw["graphs"]]}
    except KeyError as exc:
        raise ValueError(f"graph collection {path} lacks the key {exc.args[0]!r}") from None

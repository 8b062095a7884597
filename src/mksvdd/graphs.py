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
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import as_integer, json_object
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
        for name, least in (("max_length", 1), ("bag_size", 1), ("seed", 0)):
            object.__setattr__(self, name, as_integer(name, getattr(self, name), least))
        if self.distance_mode not in ("product", "one_minus_product"):
            raise ValueError(f"unknown distance_mode: {self.distance_mode!r}")


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
    of shape (N_L, L-1, de). A bag's walks of one length are gathered by
    one index into its vertex labels and one into its edge labels.
    """
    de = _edge_label_dim([bag.graph for bag in bags])
    groups: dict[int, tuple[list, list, list]] = {}
    for index, bag in enumerate(bags):
        graph = bag.graph
        edge_row = np.zeros((graph.n_vertices, graph.n_vertices), dtype=int)
        for row, (i, j) in enumerate(graph.edges.tolist()):
            edge_row[i, j] = edge_row[j, i] = row
        by_length: dict[int, list] = {}
        for p in bag.paths:
            by_length.setdefault(len(p), []).append(p)
        for length, paths in by_length.items():
            walks = np.array(paths, dtype=int)
            steps = edge_row[walks[:, :-1], walks[:, 1:]]
            owner, vertex, edge = groups.setdefault(length, ([], [], []))
            owner.append(np.full(len(paths), index))
            vertex.append(graph.vertex_labels[walks])
            edge.append(graph.edge_labels[steps].reshape(len(paths), length - 1, de))
    return {
        length: tuple(np.concatenate(part) for part in parts)
        for length, parts in sorted(groups.items())
    }


def _label_factors(a, b, bandwidths):
    """Per walk position of two equal-length walk stacks a (rows) and b
    (columns), the (rows, cols) Gaussian label factors exp(-sq / 2bw^2),
    one per bandwidth, of one squared label distance sq.

    sq is accumulated per label dimension, so no temporary grows with
    the walk length or the label dimension.
    """
    for position in range(a.shape[1]):
        sq = np.zeros((a.shape[0], b.shape[0]))
        for dim in range(a.shape[2]):
            diff = a[:, None, position, dim] - b[None, :, position, dim]
            sq += diff * diff
        sq = -sq
        yield {bw: np.exp(sq / (2.0 * bw**2)) for bw in bandwidths}


def _label_products(va, ea, vb, eb, pairs) -> dict[tuple, np.ndarray]:
    """(rows, cols) label products between two stacks of equal-length
    walks, one per (vertex_bandwidth, edge_bandwidth) pair: the vertex
    factors in position order, then the edge factors.

    Each factor is computed once per distinct bandwidth, and the vertex
    part once per vertex bandwidth, so pairs share all they can.
    """
    vertex_bws = dict.fromkeys(v for v, _ in pairs)
    running = {v: np.ones((va.shape[0], vb.shape[0])) for v in vertex_bws}
    for factors in _label_factors(va, vb, vertex_bws):
        for v, prod in running.items():
            prod *= factors[v]
    products = {(v, e): running[v] for v, e in pairs}
    for factors in _label_factors(ea, eb, dict.fromkeys(e for _, e in pairs)):
        # out of place: pairs with one vertex bandwidth share its product
        products = {(v, e): prod * factors[e] for (v, e), prod in products.items()}
    return products


def _bag_kernel(bags, walks, configs) -> list[np.ndarray]:
    """Mean path similarity between every pair of bags under each config,
    as exactly symmetric (n, n) matrices in config order.

    walks is _walks_by_length(bags). For each length, one bag's walks
    are taken as rows against the walks of that bag and every later bag
    as columns (the upper triangle only). Per such block, the label
    products are shared across configs (see _label_products), each
    envelope exp(-p^2 / 2sigma^2) is computed once per distinct
    (vertex_bandwidth, edge_bandwidth, distance_mode, sigma), and its
    similarities are summed per column and then per column bag.
    """
    n = len(bags)
    envelopes: dict[tuple, dict[float, None]] = {}
    for c in configs:
        key = (c.vertex_bandwidth, c.edge_bandwidth, c.distance_mode)
        envelopes.setdefault(key, {})[c.sigma] = None
    pairs = list(dict.fromkeys(key[:2] for key in envelopes))
    sums = {
        key + (sigma,): np.zeros((n, n)) for key, sigmas in envelopes.items() for sigma in sigmas
    }
    for owner, vertex, edge in walks.values():
        starts = np.searchsorted(owner, np.arange(n + 1))
        owners = np.flatnonzero(np.diff(starts))
        for k, i in enumerate(owners.tolist()):
            lo, hi = starts[i], starts[i + 1]
            present = owners[k:]
            first = starts[present] - lo
            products = _label_products(vertex[lo:hi], edge[lo:hi], vertex[lo:], edge[lo:], pairs)
            for (v, e, mode), sigmas in envelopes.items():
                prod = products[v, e]
                if mode == "one_minus_product":
                    prod = 1.0 - prod
                exponent = -(prod**2)
                for sigma in sigmas:
                    sim = np.exp(exponent / (2.0 * sigma**2))
                    sums[v, e, mode, sigma][i, present] += np.add.reduceat(sim.sum(axis=0), first)
    sizes = np.array([bag.size for bag in bags])
    scale = np.outer(sizes, sizes)
    lower = np.tril_indices(n, -1)
    grams = []
    for c in configs:
        values = sums[c.vertex_bandwidth, c.edge_bandwidth, c.distance_mode, c.sigma] / scale
        values[lower] = values.T[lower]
        grams.append(values)
    return grams


def graph_kernel_value(
    bag_i: PathBag, bag_j: PathBag, config: PathKernelConfig
) -> float:
    """Mean path similarity over the cross product of two bags."""
    bags = [bag_i, bag_j]
    [values] = _bag_kernel(bags, _walks_by_length(bags), [config])
    return float(values[0, 1])


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

    Configs sharing a bag key (max_length, bag_size, seed) are built
    together: their walk bags are sampled once per graph, their walks
    stacked once by length, and one pass over the walk blocks computes
    each squared label distance once, each label factor once per
    distinct bandwidth, each label product once per distinct
    (vertex_bandwidth, edge_bandwidth) and each envelope once per
    distinct (distance_mode, sigma). Every floating-point operation runs
    in the order a one-config build runs it, so each Gram equals that
    build bit for bit. A group is built when its first config is
    reached; each Gram is built over its upper triangle and mirrored, so
    it is exactly symmetric. Matrices failing the eigenvalue floor get a
    small diagonal jitter (logged); the floor is checked once per Gram,
    in config order.

    Returns the matrices plus manifest entries carrying "id", "matrix"
    and the config parameters, ready for kernels.write_manifest.
    """
    graphs = list(graphs)
    if not graphs:
        raise ValueError("empty graph collection")
    configs = list(configs)
    if not configs:
        raise ValueError("no kernel configs given")

    def bag_key(config):
        return (config.max_length, config.bag_size, config.seed)

    built: dict[tuple, Iterator[np.ndarray]] = {}
    grams: list[GramMatrix] = []
    entries: list[dict] = []
    n = len(graphs)
    for c_idx, config in enumerate(configs):
        key = bag_key(config)
        if key not in built:
            bags = [sample_paths(g, config) for g in graphs]
            group = [c for c in configs if bag_key(c) == key]
            built[key] = iter(_bag_kernel(bags, _walks_by_length(bags), group))
        values = next(built[key])
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
        entry.update(asdict(config))
        entries.append(entry)
    return grams, entries


def collection_from_json(path) -> dict[str, list[LabeledGraph]]:
    """Load a named-function graph collection.

    Accepts either {"graphs": [...]} (a single anonymous collection) or
    {"functions": {"name": [...], ...}} with per-function graph lists
    aligned by shape index. A file lacking a key, or holding a non-object
    where an object belongs, raises a ValueError naming the file.
    """
    raw = json_object(json.loads(Path(path).read_text()), f"graph collection {path}")

    def graphs(entries):
        return [LabeledGraph.from_dict(json_object(g, f"a graph of {path}")) for g in entries]

    try:
        if "functions" in raw:
            functions = json_object(raw["functions"], f"the functions of {path}")
            return {name: graphs(entries) for name, entries in functions.items()}
        return {"default": graphs(raw["graphs"])}
    except KeyError as exc:
        raise ValueError(f"graph collection {path} lacks the key {exc.args[0]!r}") from None

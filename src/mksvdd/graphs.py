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

from . import kernels
from .data import Integer, Required, as_integer, check_json, is_finite_number
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
        ends = np.asarray(self.edges, dtype=object)
        if ends.size == 0:
            ends = ends.reshape(0, 2)
        if ends.ndim != 2 or ends.shape[1] != 2:
            raise ValueError(f"edges must be pairs of vertices, shape (k, 2), got shape {ends.shape}")
        for end in ends.ravel().tolist():
            as_integer("an edge endpoint", end, 0)  # dtype=int would truncate 1.9 or true
        edges = ends.astype(int)
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
        return cls(raw["vertex_labels"], raw.get("edges", []), raw.get("edge_labels", []))


@dataclass(frozen=True)
class PathKernelConfig:
    """Bandwidths and sampling parameters of the path kernel.

    sigma scales the Gaussian envelope around the path-pair product;
    vertex_bandwidth / edge_bandwidth are the label-similarity bandwidths.
    distance_mode "product" feeds the raw similarity product into the
    envelope; "one_minus_product" first converts it to a distance
    (non-default alternate reading). max_length is at most 2**32, the
    largest bound _uniform_draws takes; a walk of such a target length
    ends early only at an isolated vertex.
    """

    sigma: float = 1.0
    vertex_bandwidth: float = 1.0
    edge_bandwidth: float = 1.0
    max_length: int = 3
    bag_size: int = 20
    seed: int = 0
    distance_mode: str = "product"

    def __post_init__(self) -> None:
        for name in ("sigma", "vertex_bandwidth", "edge_bandwidth"):
            value = getattr(self, name)
            if not (is_finite_number(value) and value > 0):
                raise ValueError(f"{name} must be a finite, strictly positive number, got {value!r}")
            object.__setattr__(self, name, float(value))
        for name, least in (("max_length", 1), ("bag_size", 1), ("seed", 0)):
            object.__setattr__(self, name, as_integer(name, getattr(self, name), least))
        if self.max_length > 2**32:
            raise ValueError(f"max_length must be at most 2**32, got {self.max_length}")
        if self.distance_mode not in ("product", "one_minus_product"):
            raise ValueError(f"unknown distance_mode: {self.distance_mode!r}")


def _adjacency(graph: LabeledGraph) -> tuple[list[list[int]], dict[tuple[int, int], int]]:
    """A graph's adjacency lists (undirected, sorted for determinism), and
    its steps: for each ordered pair of vertices an edge joins, the row
    of the last edge listed between them."""
    neighbors: list[list[int]] = [[] for _ in range(graph.n_vertices)]
    steps: dict[tuple[int, int], int] = {}
    for row, (i, j) in enumerate(graph.edges.tolist()):
        neighbors[i].append(j)
        if i != j:
            neighbors[j].append(i)
        steps[i, j] = steps[j, i] = row
    return [sorted(a) for a in neighbors], steps


@dataclass(frozen=True)
class PathBag:
    """Sampled walks of one graph, kept as vertex-index tuples. Every step
    of every walk must join two vertices an edge joins, and a one-vertex
    walk's vertex must be one of the graph's."""

    graph: LabeledGraph
    paths: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.paths:
            raise ValueError("a path bag must hold at least one path")
        steps = _adjacency(self.graph)[1]
        for p in self.paths:
            if not p:
                raise ValueError("empty path")
            if len(p) == 1 and not 0 <= p[0] < self.graph.n_vertices:
                raise ValueError(f"path vertex {p[0]} is not a graph vertex")
            for a, b in zip(p, p[1:]):
                if (a, b) not in steps:
                    raise ValueError(f"path step {a}-{b} is not a graph edge")

    @property
    def size(self) -> int:
        return len(self.paths)


class _Words(list):
    """The 32-bit words numpy's Generator draws bounded integers from on
    default_rng(seed): the low and then the high half of each raw 64-bit
    output of its bit generator, in order. The list grows by batch raw
    outputs at a time, when a reader calls fetch at its end, and keeps
    every word, so readers that share it each read the same stream from
    word 0 while its words are fetched once."""

    def __init__(self, seed: int, batch: int):
        super().__init__()
        self._bits = np.random.default_rng(seed).bit_generator
        self._batch = batch

    def fetch(self) -> None:
        raw = self._bits.random_raw(self._batch)
        self.extend(np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel().tolist())


def _uniform_draws(words: _Words):
    """draw(k), for 1 <= k <= 2**32, returning what rng.integers(0, k)
    would, rng being a fresh default_rng(seed) nothing else draws from and
    words the _Words of that seed. The draws read the words in order from
    word 0, fetching more at the list's end; other draw functions may
    share the same words, each with its own position.

    numpy's Generator draws such a bound from 32-bit words by Lemire's
    multiply-shift: a word w gives w*k >> 32 unless the low 32 bits of
    w*k fall below (2**32 - k) % k, when the next word is tried; a bound
    of 1 takes no word. The arithmetic runs on Python ints, which costs a
    fraction of one rng.integers call per draw.
    """
    pos = 0

    def draw(k: int) -> int:
        nonlocal pos
        if k == 1:
            return 0
        while True:
            if pos == len(words):
                words.fetch()
            product = words[pos] * k
            pos += 1
            if product & 0xFFFFFFFF >= (2**32 - k) % k:
                return product >> 32

    return draw


def _walks(neighbors, config: PathKernelConfig, words: _Words) -> tuple[tuple[int, ...], ...]:
    """sample_paths's walks on the graph of adjacency lists neighbors
    (_adjacency), drawn from words, the _Words of config.seed, from word 0."""
    draw = _uniform_draws(words)
    paths = []
    for _ in range(config.bag_size):
        target = 1 + draw(config.max_length)
        walk = [draw(len(neighbors))]
        while len(walk) < target and (options := neighbors[walk[-1]]):
            walk.append(options[draw(len(options))])
        paths.append(tuple(walk))
    return tuple(paths)


def sample_paths(graph: LabeledGraph, config: PathKernelConfig) -> PathBag:
    """Bag of config.bag_size random walks of length <= config.max_length.

    Each walk draws a target length uniformly in 1..max_length, starts at
    a uniform vertex and takes uniform neighbor steps, stopping early at
    dead ends; an isolated vertex yields a single-vertex walk. Each draw
    is the one rng.integers makes on a fresh default_rng(config.seed), so
    the walks are deterministic for a fixed config.seed. They are computed
    from the _Words of config.seed (see _uniform_draws), read from word 0.
    The walks depend on the graph only through its shape: its vertex
    count and its sorted adjacency lists, not its labels or the order of
    its edges.
    """
    words = _Words(config.seed, config.bag_size)
    return PathBag(graph, _walks(_adjacency(graph)[0], config, words))


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


def _walks_by_length(graphs, walks, steps) -> dict[int, tuple[np.ndarray, ...]]:
    """Each distinct walk of every graph, grouped by length, in graph
    order, given each graph's walks and step table (_adjacency).

    Maps each length L to (owner, count, vertex, edge) over the N_L walks
    of that length: the index of the graph owning each walk, the walk's
    count in its bag as a float (a bag's counts sum to its size), and
    contiguous column stacks of its labels, vertex labels of shape
    (L*dv, N_L) and edge labels of shape ((L-1)*de, N_L), one row per
    position and label dimension, position-major. A bag's distinct walks
    of one length keep their first-seen order. The labels of each length
    are gathered in one step from the graphs' labels stacked end to end,
    each step's edge found in its graph's step table.
    """
    de = _edge_label_dim(graphs)
    groups: dict[int, tuple[list, list, list, list]] = {}
    first_vertex = first_edge = 0
    for index, (graph, paths, table) in enumerate(zip(graphs, walks, steps)):
        by_length: dict[int, dict[tuple, int]] = {}
        for p in paths:
            counts = by_length.setdefault(len(p), {})
            counts[p] = counts.get(p, 0) + 1
        for length, counts in by_length.items():
            owner, count, vertices, rows = groups.setdefault(length, ([], [], [], []))
            owner += [index] * len(counts)
            count += counts.values()
            vertices += [first_vertex + v for p in counts for v in p]
            rows += [first_edge + table[step] for p in counts for step in zip(p, p[1:])]
        first_vertex += graph.n_vertices
        first_edge += graph.edges.shape[0]
    vertex_labels = np.concatenate([g.vertex_labels for g in graphs])
    edge_labels = np.concatenate([g.edge_labels.reshape(len(g.edges), de) for g in graphs])
    return {
        length: (np.array(owner), np.array(count, dtype=float),
                 np.ascontiguousarray(vertex_labels[vertices].reshape(len(owner), -1).T),
                 np.ascontiguousarray(edge_labels[np.array(rows, dtype=int)]
                                      .reshape(len(owner), (length - 1) * de).T))
        for length, (owner, count, vertices, rows) in sorted(groups.items())
    }


def _label_products(va, ea, vb, eb, scales) -> np.ndarray:
    """(P, rows, cols) label products between two sets of equal-length
    walks, given by their vertex and edge label stacks (_walks_by_length),
    va and ea for the rows and vb and eb for the columns, one product per
    (vertex_bandwidth, edge_bandwidth) pair.

    scales holds the pairs' -1/2v^2 and -1/2e^2, each of shape (P, 1, 1).
    Sv sums the squared vertex label distances over every position and
    label dimension, Se the squared edge label distances, each in one
    (rows, cols) accumulator; the product of a pair (v, e) is then one
    exp(-Sv/2v^2 - Se/2e^2).
    """
    def summed(a, b):
        total = np.zeros((a.shape[1], b.shape[1]))
        diff = np.empty_like(total)
        for x, y in zip(a, b):
            np.subtract.outer(x, y, out=diff)
            diff *= diff
            total += diff
        return total

    v, e = scales
    exponent = summed(va, vb) * v
    edge = summed(ea, eb)
    for row, scale in zip(exponent, e):
        row += edge * scale
    return np.exp(exponent, out=exponent)


def _bag_kernel(sizes, walks, configs) -> list[np.ndarray]:
    """Mean path similarity between every pair of bags under each config,
    as exactly symmetric (n, n) matrices in config order.

    sizes holds the n bags' sizes and walks is _walks_by_length of their
    graphs. For each length, consecutive row bags form a block: their
    walks are taken as rows against the walks of the block's first bag
    and every later bag as columns, so the entries below the diagonal
    blocks are computed and dropped (only the upper triangle is kept). A block takes bags while E x rows x cols stays
    within kernels.BLOCK_ENTRIES, and holds at least one bag. Per block,
    the label products are computed once per distinct (vertex_bandwidth,
    edge_bandwidth) (see _label_products), and all E distinct envelopes
    exp(-p^2 / 2sigma^2), p the product or, in mode "one_minus_product",
    1 - p, are computed as one (E, rows, cols) array. Its similarities,
    weighted by the two walks' counts, are summed over each row bag's
    rows and then per column bag, the same sums in the same order as a
    block of one row bag.
    """
    def envelope(c):
        return (c.vertex_bandwidth, c.edge_bandwidth, c.distance_mode, c.sigma)

    n = len(sizes)
    keys = list(dict.fromkeys(map(envelope, configs)))
    pairs = list(dict.fromkeys(key[:2] for key in keys))
    product_of = [pairs.index(key[:2]) for key in keys]
    pair_scales = [np.array([-1.0 / (2.0 * bw**2) for bw in bws])[:, None, None]
                   for bws in zip(*pairs)]
    flip = np.array([key[2] == "one_minus_product" for key in keys])[:, None, None]
    scale = np.array([-1.0 / (2.0 * key[3] ** 2) for key in keys])[:, None, None]
    sums = np.zeros((len(keys), n, n))
    for owner, count, vertex, edge in walks.values():
        starts = np.searchsorted(owner, np.arange(n + 1))
        owners = np.flatnonzero(np.diff(starts))
        first = 0
        while first < len(owners):
            lo = starts[owners[first]]
            cols = len(owner) - lo
            last = first + 1
            while (last < len(owners) and len(keys) * (starts[owners[last] + 1] - lo) * cols
                   <= kernels.BLOCK_ENTRIES):
                last += 1
            rows, present = owners[first:last], owners[first:]
            hi = starts[rows[-1] + 1]
            sim = _label_products(
                vertex[:, lo:hi], edge[:, lo:hi], vertex[:, lo:], edge[:, lo:], pair_scales
            )[product_of]
            np.subtract(1.0, sim, out=sim, where=flip)
            sim *= sim
            sim *= scale
            np.exp(sim, out=sim)
            sim *= np.outer(count[lo:hi], count[lo:])
            row_sums = np.empty((len(keys), len(rows), cols))
            for r, i in enumerate(rows.tolist()):
                sim[:, starts[i] - lo:starts[i + 1] - lo].sum(axis=1, out=row_sums[:, r])
            del sim  # before the next block's arrays are made
            sums[:, rows[:, None], present] += np.add.reduceat(
                row_sums, starts[present] - lo, axis=2
            )
            first = last
    values = sums / np.outer(sizes, sizes)
    lower = np.tril_indices(n, -1)
    grams = []
    for c in configs:
        gram = values[keys.index(envelope(c))].copy()
        gram[lower] = gram.T[lower]
        grams.append(gram)
    return grams


def graph_kernel_value(bag_i: PathBag, bag_j: PathBag, config: PathKernelConfig) -> float:
    """Mean path similarity over the cross product of two bags."""
    graphs = [bag_i.graph, bag_j.graph]
    walks = _walks_by_length(graphs, [bag_i.paths, bag_j.paths],
                             [_adjacency(g)[1] for g in graphs])
    [values] = _bag_kernel([bag_i.size, bag_j.size], walks, [config])
    return float(values[0, 1])


def path_similarity(graph_a: LabeledGraph, path_a, graph_b: LabeledGraph, path_b,
                    config: PathKernelConfig) -> float:
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
    together: their walks are sampled once per graph (_walks), every graph
    reading the key's one word stream from word 0, each bag's distinct
    walks stacked once by length with their counts, and one pass over
    blocks of row graphs (see _bag_kernel) sums each block's squared label
    distances once, takes one exponential per distinct (vertex_bandwidth,
    edge_bandwidth) and computes the block's envelopes, one per distinct
    (vertex_bandwidth, edge_bandwidth, distance_mode, sigma), as one
    array. Each entry goes through the floating-point operations of a
    one-config build, one graph scored at a time, in the same order, so
    each Gram equals that build bit for bit. A group is built when its
    first config is reached; each Gram is built over its upper triangle
    and mirrored, so it is exactly symmetric. Each graph's adjacency lists
    and step table (_adjacency) are built once per build. Matrices failing
    the eigenvalue floor get a small diagonal jitter (logged); the floor
    is checked once per Gram, in config order.

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

    neighbors, steps = zip(*map(_adjacency, graphs))
    built: dict[tuple, Iterator[np.ndarray]] = {}
    grams: list[GramMatrix] = []
    entries: list[dict] = []
    n = len(graphs)
    for c_idx, config in enumerate(configs):
        key = bag_key(config)
        if key not in built:
            words = _Words(config.seed, config.bag_size)
            walks = _walks_by_length(graphs, [_walks(a, config, words) for a in neighbors], steps)
            group = [c for c in configs if bag_key(c) == key]
            built[key] = iter(_bag_kernel([config.bag_size] * n, walks, group))
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


# A graph (LabeledGraph.to_dict) and the two forms of a graph collection,
# as data.check_json forms
GRAPH = {"vertex_labels": Required([[float]]), "edges": [[Integer(0), Integer(0)]],
         "edge_labels": [[float]]}
COLLECTIONS = {"graphs": {"graphs": Required([GRAPH])},
               "functions": {"functions": Required({str: [GRAPH]})}}


def collection_from_json(path) -> dict[str, list[LabeledGraph]]:
    """Load a named-function graph collection.

    Accepts either {"graphs": [...]} (a single anonymous collection) or
    {"functions": {"name": [...], ...}} with per-function graph lists
    aligned by shape index. A file not of its form in COLLECTIONS raises
    a ValueError naming the file and the key.
    """
    raw = json.loads(Path(path).read_text())
    form = "functions" if isinstance(raw, dict) and "functions" in raw else "graphs"
    check_json(raw, COLLECTIONS[form], f"graph collection {path}")
    named = raw["functions"] if form == "functions" else {"default": raw["graphs"]}
    return {name: [LabeledGraph.from_dict(g) for g in graphs] for name, graphs in named.items()}

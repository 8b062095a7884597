"""Independent reference implementations used to check the library.

Everything here is deliberately brute force and shares no code with the
package: grid enumeration for the dual QP, double loops for kernels,
pair counting for AUC, Lloyd iterations for k-means.
"""

from __future__ import annotations

import math

import numpy as np


def qp_value(A: np.ndarray, K: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Maximization-form objective q'a - a'Ka for a batch of alphas."""
    return A @ q - np.einsum("ij,jk,ik->i", A, K, A)


def _box_simplex_points(n, total_units, lows, highs, step, chunk=400_000):
    """All unit vectors with given per-coordinate bounds summing to
    total_units, yielded as float alpha arrays in bounded-size chunks."""
    if n == 1:
        if lows[0] <= total_units <= highs[0]:
            yield np.array([[total_units * step]])
        return
    rows = 1
    for lo, hi in zip(lows[:-1], highs[:-1]):
        rows *= hi - lo + 1
    if n > 2 and rows > chunk:
        # peel off the first coordinate to keep the meshgrid bounded
        for u0 in range(lows[0], highs[0] + 1):
            rem = total_units - u0
            if rem < sum(lows[1:]) or rem > sum(highs[1:]):
                continue
            for A in _box_simplex_points(n - 1, rem, lows[1:], highs[1:], step, chunk):
                yield np.column_stack([np.full(A.shape[0], u0 * step), A])
        return
    axes = [np.arange(lo, hi + 1) for lo, hi in zip(lows[:-1], highs[:-1])]
    mesh = np.meshgrid(*axes, indexing="ij")
    U = np.stack([g.ravel() for g in mesh], axis=1)
    last = total_units - U.sum(axis=1)
    mask = (last >= lows[-1]) & (last <= highs[-1])
    U = np.column_stack([U[mask], last[mask]])
    for start in range(0, U.shape[0], chunk):
        yield U[start : start + chunk] * step


def qp_grid_search(K, q, C, step):
    """Exhaustive search of the dual over the feasible simplex grid.

    Every alpha with coordinates on the step grid, inside [0, C] and
    summing to 1 is evaluated; returns (best maximization objective,
    best alpha).
    """
    K = np.asarray(K, dtype=float)
    q = np.asarray(q, dtype=float)
    n = q.size
    units = round(1.0 / step)
    cap = math.floor(C / step + 1e-9)
    lows = [0] * n
    highs = [min(units, cap)] * n
    best_val, best_alpha = -np.inf, None
    for A in _box_simplex_points(n, units, lows, highs, step):
        vals = qp_value(A, K, q)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val, best_alpha = float(vals[i]), A[i].copy()
    return best_val, best_alpha


def qp_refined_grid_search(K, q, C, coarse_units=20, refinements=4, ratio=4, radius=8):
    """Exhaustive coarse grid plus exhaustive local refinements.

    Stage 0 enumerates the full feasible grid at step 1/coarse_units;
    each refinement shrinks the step by `ratio` and exhaustively
    enumerates the box of +-radius fine steps around the incumbent
    (intersected with the feasible set). With the defaults the final
    step is 1/5120 < 1e-3. Justified by convexity of the objective:
    the incumbent cell contains near-optimal values at every stage.
    coarse_units should be chosen so that C lands on every stage's grid
    (box-active optima are otherwise unreachable); multiples of 20 cover
    the 0.05-grained C values used throughout.
    """
    K = np.asarray(K, dtype=float)
    q = np.asarray(q, dtype=float)
    n = q.size
    units = coarse_units
    step = 1.0 / units
    cap = math.floor(C * units + 1e-9)
    best_val, best_alpha = -np.inf, None
    for A in _box_simplex_points(n, units, [0] * n, [min(units, cap)] * n, step):
        vals = qp_value(A, K, q)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val, best_alpha = float(vals[i]), A[i].copy()
    for _ in range(refinements):
        units *= ratio
        step = 1.0 / units
        cap = math.floor(C * units + 1e-9)
        center = np.rint(best_alpha * units).astype(int)
        lows = np.maximum(0, center - radius).tolist()
        highs = np.minimum(min(units, cap), center + radius).tolist()
        for A in _box_simplex_points(n, units, lows, highs, step):
            vals = qp_value(A, K, q)
            i = int(np.argmax(vals))
            if vals[i] > best_val:
                best_val, best_alpha = float(vals[i]), A[i].copy()
    return best_val, best_alpha


def rbf_gram_loops(X, sigma):
    """Entry-by-entry Gaussian Gram with explicit loops."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            diff = X[i] - X[j]
            out[i, j] = math.exp(-float(diff @ diff) / (2.0 * sigma**2))
    return out


def poly_gram_loops(X, degree):
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = (float(X[i] @ X[j]) + 1.0) ** degree
    return out


def weighted_sum_loops(mats, weights):
    out = np.zeros_like(np.asarray(mats[0], dtype=float))
    for w, m in zip(weights, mats):
        for i in range(out.shape[0]):
            for j in range(out.shape[1]):
                out[i, j] += w * m[i][j]
    return out


def svdd_decision_loops(K, alpha, i):
    """f(x_i) on the training set via the explicit triple sum."""
    n = len(alpha)
    value = K[i][i]
    for j in range(n):
        value -= 2.0 * alpha[j] * K[i][j]
    for j in range(n):
        for k in range(n):
            value += alpha[j] * alpha[k] * K[j][k]
    return value


def auc_pair_count(scores, labels):
    """AUC by counting outlier/target pairs, ties worth one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    outliers = scores[labels == -1]
    targets = scores[labels == 1]
    wins = 0.0
    for o in outliers:
        for t in targets:
            if o > t:
                wins += 1.0
            elif o == t:
                wins += 0.5
    return wins / (len(outliers) * len(targets))


def pr_curve_thresholds(scores, labels):
    """Precision/recall by explicit threshold enumeration."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_out = int((labels == -1).sum())
    points = []
    for t in sorted(set(scores.tolist()), reverse=True):
        flagged = scores >= t
        tp = int(((labels == -1) & flagged).sum())
        points.append((tp / n_out, tp / int(flagged.sum())))
    return points


def kmeans(X, k, seed, restarts=10, iters=100):
    """Plain Lloyd k-means; returns the best inertia over restarts."""
    X = np.asarray(X, dtype=float)
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(restarts):
        centers = X[rng.choice(len(X), size=k, replace=False)].copy()
        for _ in range(iters):
            d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            assign = d2.argmin(axis=1)
            new_centers = centers.copy()
            for c in range(k):
                members = X[assign == c]
                if len(members):
                    new_centers[c] = members.mean(axis=0)
            if np.allclose(new_centers, centers):
                break
            centers = new_centers
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        inertia = float(d2.min(axis=1).sum())
        best = min(best, inertia)
    return best


def path_product_loops(va, ea, vb, eb, sigma_v, sigma_e):
    """Label-product along two equal-length paths, scalar math only."""
    def rbf(x, y, s):
        d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return math.exp(-float(d @ d) / (2.0 * s**2))

    value = rbf(va[0], vb[0], sigma_v)
    for i in range(1, len(va)):
        value *= rbf(ea[i - 1], eb[i - 1], sigma_e)
        value *= rbf(va[i], vb[i], sigma_v)
    return value


def sample_walks_loops(graph, cfg):
    """The walks sample_paths documents, one rng.integers call per draw."""
    neighbors = [[] for _ in range(graph.n_vertices)]
    for i, j in graph.edges.tolist():
        neighbors[i].append(j)
        if i != j:
            neighbors[j].append(i)
    neighbors = [sorted(a) for a in neighbors]
    rng = np.random.default_rng(cfg.seed)
    walks = []
    for _ in range(cfg.bag_size):
        target = int(rng.integers(1, cfg.max_length + 1))
        walk = [int(rng.integers(0, graph.n_vertices))]
        while len(walk) < target and neighbors[walk[-1]]:
            options = neighbors[walk[-1]]
            walk.append(options[int(rng.integers(0, len(options)))])
        walks.append(tuple(walk))
    return tuple(walks)


def bag_kernel_loops(bag_a, bag_b, cfg):
    """Mean walk similarity of two path bags, one walk pair at a time."""
    def labels(bag, path):
        table = {}
        for (i, j), lab in zip(bag.graph.edges.tolist(), bag.graph.edge_labels):
            table[(i, j)] = table[(j, i)] = lab
        vertex = [bag.graph.vertex_labels[v] for v in path]
        return vertex, [table[(path[k - 1], path[k])] for k in range(1, len(path))]

    total = 0.0
    for pa in bag_a.paths:
        for pb in bag_b.paths:
            if len(pa) != len(pb):
                continue
            (va, ea), (vb, eb) = labels(bag_a, pa), labels(bag_b, pb)
            d = path_product_loops(va, ea, vb, eb, cfg.vertex_bandwidth, cfg.edge_bandwidth)
            if cfg.distance_mode == "one_minus_product":
                d = 1.0 - d
            total += math.exp(-(d**2) / (2.0 * cfg.sigma**2))
    return total / (len(bag_a.paths) * len(bag_b.paths))


def random_psd(rng, n, scale=1.0):
    """Random symmetric PSD matrix."""
    B = rng.standard_normal((n, n + 2))
    return scale * (B @ B.T) / (n + 2)

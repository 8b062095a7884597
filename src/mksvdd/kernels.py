"""Base kernels, Gram matrices, kernel dictionaries, and convex combinations."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import as_integer, is_finite_number, json_list, json_object

SYMMETRY_TOL = 1e-10
PSD_FLOOR = 1e-8
SYMMETRY_TILE = 128
BLOCK_ENTRIES = 2**16

# the kind each optional KernelSpec field belongs to; every other kind
# leaves it None
_FIELD_KINDS = {
    "bandwidth": "rbf", "degree": "poly", "matrix_id": "precomputed", "matrix": "precomputed"
}


@dataclass(frozen=True)
class KernelSpec:
    """Description of one base kernel.

    kind is "rbf" (Gaussian, exp(-||x-y||^2 / 2*bandwidth^2)), "poly"
    (inhomogeneous polynomial, (x.y + 1)^degree) or "precomputed" (a
    square matrix over an example collection, e.g. loaded from a manifest,
    named by matrix_id). rbf and poly kernels read examples as feature
    rows; precomputed ones read them as row ids into their matrix, which
    the spec carries but leaves out of equality, hash, repr and to_dict.
    A field of another kind than the spec's own is a ValueError.
    """

    kind: str
    bandwidth: float | None = None
    degree: int | None = None
    matrix_id: str | None = None
    matrix: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind == "rbf":
            if not (is_finite_number(self.bandwidth) and self.bandwidth > 0):
                raise ValueError("rbf kernel needs a strictly positive bandwidth")
        elif self.kind == "poly":
            try:
                object.__setattr__(self, "degree", as_integer("degree", self.degree, 1))
            except ValueError:
                raise ValueError("poly kernel needs an integer degree >= 1") from None
        elif self.kind == "precomputed":
            if not (isinstance(self.matrix_id, str) and self.matrix_id):
                raise ValueError(f"precomputed kernel needs a matrix_id, got {self.matrix_id!r}")
        else:
            raise ValueError(f"unknown kernel kind: {self.kind!r}")
        for name, owner in _FIELD_KINDS.items():
            if owner != self.kind and getattr(self, name) is not None:
                raise ValueError(f"only {owner} kernels carry a {name}")
        if self.matrix is not None:
            matrix = np.asarray(self.matrix, dtype=float)
            if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
                raise ValueError("precomputed matrix must be square")
            if not np.isfinite(matrix).all():
                raise ValueError(
                    f"precomputed matrix {self.matrix_id!r} holds non-finite values"
                )
            object.__setattr__(self, "matrix", matrix)

    @classmethod
    def rbf(cls, bandwidth: float) -> "KernelSpec":
        return cls("rbf", bandwidth=float(bandwidth))

    @classmethod
    def poly(cls, degree: int) -> "KernelSpec":
        return cls("poly", degree=degree)

    @classmethod
    def precomputed(cls, matrix_id: str, matrix=None) -> "KernelSpec":
        return cls("precomputed", matrix_id=matrix_id, matrix=matrix)

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.bandwidth is not None:
            out["bandwidth"] = self.bandwidth
        if self.degree is not None:
            out["degree"] = self.degree
        if self.matrix_id is not None:
            out["matrix_id"] = self.matrix_id
        return out

    @classmethod
    def from_dict(cls, raw: dict, matrices=None) -> "KernelSpec":
        """Inverse of to_dict; a precomputed kernel takes its matrix from
        matrices (matrix_id -> matrix) when that holds it."""
        matrix_id = raw.get("matrix_id")
        return cls(
            raw["kind"],
            bandwidth=raw.get("bandwidth"),
            degree=raw.get("degree"),
            matrix_id=matrix_id,
            matrix=(matrices or {}).get(matrix_id) if isinstance(matrix_id, str) else None,
        )


def as_specs(kernels) -> tuple[KernelSpec, ...]:
    """Specs from a sequence of KernelSpec or from a mapping matrix_id ->
    precomputed matrix over the complete example collection."""
    if isinstance(kernels, dict):
        return tuple(KernelSpec.precomputed(k, m) for k, m in kernels.items())
    return tuple(kernels)


def _check_symmetric(values: np.ndarray, tol: float = SYMMETRY_TOL) -> None:
    """Reject a non-finite entry, and max |v_ij - v_ji| above tol * max |v_ij|.

    The asymmetry is taken tile by tile, each upper tile against the
    transpose of its mirror, so both reads stay within cache-sized blocks.
    """
    top, bottom = values.max(), values.min()
    if not (np.isfinite(top) and np.isfinite(bottom)):
        raise ValueError("Gram matrix holds non-finite values")
    scale = max(top, -bottom, 1e-30)
    n, tile = values.shape[0], SYMMETRY_TILE
    worst = np.max([
        np.abs(values[i : i + tile, j : j + tile] - values[j : j + tile, i : i + tile].T).max()
        for i in range(0, n, tile)
        for j in range(i, n, tile)
    ])
    if worst > tol * scale:
        raise ValueError("Gram matrix is not symmetric")


@dataclass(frozen=True)
class GramMatrix:
    """Square kernel matrix, symmetric and PSD up to round-off."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError("Gram matrix must be square")
        _check_symmetric(values)
        object.__setattr__(self, "values", values)

    @property
    def diag(self) -> np.ndarray:
        return np.diag(self.values)

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def eigenvalue_floor_ok(self) -> bool:
        """True when the smallest eigenvalue is >= -PSD_FLOOR * largest."""
        eigs = np.linalg.eigvalsh(self.values)
        return bool(eigs[0] >= -PSD_FLOOR * max(eigs[-1], 1e-30))


def as_weights(d, nk: int) -> np.ndarray:
    """Convex-combination weights of length nk: a nonempty 1D vector of
    finite, nonnegative entries summing to one. Entries within 1e-12 below
    zero are clipped to zero; the result is a new array."""
    vec = np.asarray(d, dtype=float)
    if vec.ndim != 1 or vec.size < 1:
        raise ValueError("weights must be a nonempty 1D vector")
    if not np.isfinite(vec).all():
        raise ValueError("weights must be finite")
    if (vec < -1e-12).any():
        raise ValueError("weights must be nonnegative")
    if abs(vec.sum() - 1.0) > 1e-10:
        raise ValueError("weights must sum to 1")
    if vec.size != nk:
        raise ValueError(f"expected {nk} weights, got {vec.size}")
    return np.maximum(vec, 0.0)


def _examples(specs, X) -> np.ndarray:
    """X as the kernels of specs (all of one kind) read it: a nonempty
    finite 2D feature array (the features of a SampleMatrix), or for
    precomputed kernels a nonempty 1D array of integer row ids into their
    loaded matrices (range-checked against the first)."""
    if specs[0].kind != "precomputed":
        feats = np.asarray(getattr(X, "features", X), dtype=float)
        if feats.ndim != 2 or feats.shape[0] == 0:
            raise ValueError("need a nonempty 2D feature array")
        if not np.isfinite(feats).all():
            raise ValueError("features contain non-finite values")
        return feats
    for spec in specs:
        if spec.matrix is None:
            raise ValueError(f"no matrix loaded for precomputed kernel {spec.matrix_id!r}")
    ids = np.asarray(X)
    if ids.ndim != 1 or ids.size == 0 or not np.issubdtype(ids.dtype, np.integer):
        raise ValueError(
            "precomputed kernels need a nonempty 1D array of integer example ids"
        )
    n = specs[0].matrix.shape[0]
    bad = ids[(ids < 0) | (ids >= n)]
    if bad.size:
        raise ValueError(
            f"example id {int(bad[0])} out of range: "
            f"{specs[0].matrix_id!r} covers ids 0..{n - 1}"
        )
    return ids


def examples_for(matrix, rows, specs) -> np.ndarray:
    """The examples at the given rows of matrix (a SampleMatrix; an
    example's id is its row) as the kernels of specs read them: the
    feature rows matrix.features[rows], or for precomputed kernels, whose
    matrices are aligned with matrix's rows, the rows themselves. A
    negative, out-of-range or non-integer id is a ValueError naming it."""
    rows = np.asarray(rows)
    if rows.size and not np.issubdtype(rows.dtype, np.integer):
        flat = rows.ravel()
        if flat.dtype.kind == "f":  # name a fractional or non-finite id first
            flat = np.r_[flat[flat % 1 != 0], flat]
        raise ValueError(f"example id {flat[0].item()!r} is not an integer")
    rows = rows.astype(np.intp, copy=False)
    bad = rows[(rows < 0) | (rows >= matrix.n_examples)]
    if bad.size:
        raise ValueError(
            f"example id {int(bad[0])} out of range: the dataset has rows "
            f"0..{matrix.n_examples - 1}"
        )
    if specs and specs[0].kind == "precomputed":
        return rows
    return matrix.features[rows]


def _tiles(X: np.ndarray, step: int) -> np.ndarray:
    """The rows of X, zero-padded to whole tiles of step rows, as one
    (n_tiles, step, dim) array."""
    tiles = np.zeros((-(-len(X) // step) * step, X.shape[1]))
    tiles[: len(X)] = X
    return tiles.reshape(-1, step, X.shape[1])


def _products(left, right, rows: slice, n: int | None) -> np.ndarray:
    """The rows at rows of P = left @ right.T.

    With n given, P is symmetric (left is right, or 2 * right) over n
    examples, left and right come as _tiles, and rows covers one tile t.
    BLAS may round one inner product differently in calls of different
    shapes, so each tile of P comes from one shape of call. This block's
    own call makes its tiles (t, j) for j >= t; its tiles (t, i) for
    i < t are the transposes of tiles (i, t), made by a call of the shape
    block i used for them, so they repeat block i's bits. Only the
    diagonal tile is averaged with its transpose: P is exactly
    symmetric."""
    if n is None:
        return left[rows] @ right.T
    step = left.shape[1]
    r, tile = min(rows.stop, n) - rows.start, rows.start // step
    out = np.empty((step, len(right), step))  # [b, j, c]: P[t*step + b, j*step + c]
    out[:, :tile] = np.matmul(left[:tile], right[tile].T).transpose(2, 0, 1)
    out[:, tile:] = np.matmul(left[tile], right[tile:].transpose(0, 2, 1)).transpose(1, 0, 2)
    diagonal = out[:, tile]
    diagonal[...] = (diagonal + diagonal.T) / 2.0
    return out.reshape(step, -1)[:r, :n]


def _sq_distances(left2, right, norms, rows: slice, n: int | None) -> np.ndarray:
    """||a_i - b_j||^2 clipped at zero for the rows i of A at rows against
    every row j of B, from left2 = 2 * A, right = B and norms =
    (||a_i||^2 over A, ||b_j||^2 over B); with n given, B is A, both as
    _tiles over its n rows, and the result is exactly symmetric, as
    _products' is."""
    sq = norms[0][rows, None] + norms[1][None, :]
    sq -= _products(left2, right, rows, n)
    return np.maximum(sq, 0.0, out=sq)


def _blocks(specs, A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    """k_m(a_i, b_j) for every spec m, one (len(specs), len(A), len(B))
    array, from examples as _examples returns them. With B omitted, the
    Grams of A: computed ones symmetrized against round-off, exactly;
    precomputed ones taken as loaded.

    One loop over blocks of rows of A of about BLOCK_ENTRIES entries
    serves every kind: each kernel writes its rows of the output in place
    while the block is in cache, the rbf kernels sharing one block of
    squared distances and the poly kernels one block of inner products.
    Beyond the output, a build holds at most about seven such blocks,
    2 * A and the squared norms of A and B, whatever their sizes."""
    other = A if B is None else B
    if A.shape[1:] != other.shape[1:]:
        raise ValueError(
            f"test dimension {A.shape[1]} does not match "
            f"training dimension {other.shape[1]}"
        )
    kinds = {spec.kind for spec in specs}
    # as many blocks as BLOCK_ENTRIES asks for, of near-equal sizes
    blocks = -(-len(A) // max(1, BLOCK_ENTRIES // max(len(other), 1)))
    step = -(-len(A) // blocks)
    left, right, n = A, other, None
    if B is None and "precomputed" not in kinds:
        left = right = _tiles(A, step)
        n = len(A)
    if "rbf" in kinds:
        left2, norms = 2.0 * left, (np.sum(A * A, axis=1), np.sum(other * other, axis=1))
    out = np.empty((len(specs), len(A), len(other)))
    for start in range(0, len(A), step):
        rows = slice(start, start + step)
        if "rbf" in kinds:
            sq = _sq_distances(left2, right, norms, rows, n)
        if "poly" in kinds:
            products = _products(left, right, rows, n)
        for m, spec in enumerate(specs):
            block = out[m, rows]
            if spec.kind == "rbf":  # exp(-sq / 2 bandwidth^2), no temporary
                np.exp(np.divide(sq, -2.0 * spec.bandwidth**2, out=block), out=block)
            elif spec.kind == "poly":
                block[...] = (products + 1.0) ** spec.degree
            else:
                block[...] = spec.matrix[np.ix_(A[rows], other)]
    return out


def gram(spec: KernelSpec, X) -> GramMatrix:
    """Gram matrix of the kernel over the examples X.

    Computed Grams are symmetrized against round-off; a precomputed block
    is taken as loaded, so an asymmetric matrix is rejected, not repaired.
    """
    return GramMatrix(_blocks((spec,), _examples((spec,), X))[0])


def cross_gram(spec: KernelSpec, X_train, X_test) -> np.ndarray:
    """Rectangular kernel block k(test_i, train_j), shape (n_test, n_train)."""
    test, train = _examples((spec,), X_test), _examples((spec,), X_train)
    return _blocks((spec,), test, train)[0]


def _diag(spec: KernelSpec, examples: np.ndarray) -> np.ndarray:
    """Self-similarities k(x, x) for examples checked by _examples."""
    if spec.kind == "rbf":
        return np.ones(examples.shape[0])
    if spec.kind == "poly":
        return (np.sum(examples * examples, axis=1) + 1.0) ** spec.degree
    return spec.matrix[examples, examples]


@dataclass(frozen=True)
class KernelDictionary:
    """Ordered base kernels with their Gram matrices over the training set.

    The Grams are held once, as one (nk, n, n) stack; train holds the n
    training examples as the kernels read them (feature rows, or row ids
    into precomputed matrices). _memo holds the inner solves of every fit
    on the dictionary (see models._inner_solve).
    """

    specs: tuple[KernelSpec, ...]
    stack: np.ndarray
    train: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        stack = np.asarray(self.stack, dtype=float)
        if not self.specs:
            raise ValueError("kernel dictionary must hold at least one kernel")
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValueError("Gram stack must hold square matrices, shape (nk, n, n)")
        if stack.shape[0] != len(self.specs):
            raise ValueError("one Gram matrix per kernel spec required")
        object.__setattr__(self, "stack", stack)

    @property
    def nk(self) -> int:
        return len(self.specs)

    @property
    def n_train(self) -> int:
        return self.stack.shape[1]

    @property
    def grams(self) -> tuple[GramMatrix, ...]:
        """Per-kernel views of the stack."""
        return tuple(GramMatrix(values) for values in self.stack)

    @classmethod
    def from_data(cls, specs, X) -> "KernelDictionary":
        """Dictionary over the training examples X: features for rbf and
        poly kernels, row ids for precomputed ones (one kind per
        dictionary). Computed Grams are exactly symmetric by construction;
        precomputed ones come from outside and are checked once here."""
        specs = tuple(specs)
        if not specs:
            raise ValueError("kernel dictionary must hold at least one kernel")
        if len({spec.kind == "precomputed" for spec in specs}) > 1:
            raise ValueError("a kernel dictionary cannot mix precomputed and feature kernels")
        if len({s.matrix.shape for s in specs if s.matrix is not None}) > 1:
            raise ValueError("all precomputed matrices must be square with equal size")
        train = _examples(specs, X)
        stack = _blocks(specs, train)
        if specs[0].kind == "precomputed":
            for values in stack:
                _check_symmetric(values)
        return cls(specs, stack, train)

    @classmethod
    def from_matrices(cls, named_matrices, train_ids=None) -> "KernelDictionary":
        """from_data over precomputed matrices.

        named_matrices maps matrix_id -> square matrix over the complete
        example collection; train_ids (defaulting to all rows) selects the
        training block.
        """
        specs = as_specs(dict(named_matrices))
        if train_ids is None and specs:
            train_ids = np.arange(specs[0].matrix.shape[0])
        return cls.from_data(specs, train_ids)

    def cross(self, X_test, rows, kernels) -> tuple[np.ndarray, np.ndarray]:
        """Blocks k_m(test, x_j) over training rows j in rows for each kernel
        index m in kernels, as one (len(kernels), n_test, len(rows)) array,
        and the test examples' k_m(x, x), shape (len(kernels), n_test)."""
        specs = [self.specs[m] for m in kernels]
        test = _examples(specs, X_test)
        blocks = _blocks(specs, test, self.train[rows])
        return blocks, np.stack([_diag(spec, test) for spec in specs])


class CombinedKernel:
    """K_d = sum_m d_m K_m over a (nk, n, n) stack of symmetric Grams, read
    by rows and never formed as a whole.

    Row i is d @ stack[:, i, :], over contiguous rows of the stack, and the
    diagonal d @ diagonals, read from the stack itself; kernels with
    d_m = 0 are never read. Row i is computed on first use and kept for
    the life of the operator (one solve, or one model's training terms) in
    the next free slot of an n x n buffer, so the buffer's memory grows
    with the rows computed, filled from its start, and never exceeds the
    K_d it stands for. Every value is computed one way whatever is cached,
    so it does not depend on the order rows were asked for.
    """

    def __init__(self, stack: np.ndarray, d: np.ndarray):
        self.stack = stack
        self.n = stack.shape[1]
        self.kernels = np.flatnonzero(d)
        self.weights = np.asarray(d, dtype=float)[self.kernels]
        self.diag = self.weights @ np.diagonal(stack, axis1=1, axis2=2)[self.kernels]
        self._rows = np.empty((self.n, self.n))  # pages touched only as filled
        self._slots = np.empty(self.n, dtype=np.intp)  # row i's slot in _rows
        self._views = [None] * self.n  # _rows[_slots[i]], once row i is computed
        self.cached_rows = 0

    def row(self, i: int) -> np.ndarray:
        """Row i of K_d; the caller must not write to it."""
        view = self._views[i]
        if view is None:
            self._slots[i] = self.cached_rows
            view = self._views[i] = self._rows[self.cached_rows]
            np.matmul(self.weights, self.stack[self.kernels, i, :], out=view)
            self.cached_rows += 1
        return view

    def rows(self, indices: np.ndarray) -> np.ndarray:
        """Rows of K_d at indices, as a new (len(indices), n) array."""
        for i in indices:
            self.row(i)
        return self._rows[self._slots[indices]]

    def matvec(self, alpha: np.ndarray) -> np.ndarray:
        """K_d @ alpha. An alpha with no zero entry (a uniform start) is
        summed as per-kernel dense products in kernel order, sum_m d_m
        (K_m @ alpha), which for one kernel at weight 1 is K @ alpha
        itself; any other alpha as a sum over its support rows."""
        support = np.flatnonzero(alpha)
        if support.size < self.n:
            return alpha[support] @ self.rows(support)
        out = self.weights[0] * (self.stack[self.kernels[0]] @ alpha)
        for w, m in zip(self.weights[1:], self.kernels[1:]):
            out += w * (self.stack[m] @ alpha)
        return out


def combine(dictionary: KernelDictionary, d) -> GramMatrix:
    """Entrywise convex combination sum_m d_m K_m of the dictionary grams,
    formed in full (the solvers read it through CombinedKernel instead)."""
    weights = as_weights(d, dictionary.nk)
    return GramMatrix(np.tensordot(weights, dictionary.stack, axes=1))


def combine_blocks(blocks, d) -> np.ndarray:
    """Convex combination of rectangular per-kernel blocks."""
    weights = as_weights(d, len(blocks))
    out = np.zeros_like(np.asarray(blocks[0], dtype=float))
    for w, b in zip(weights, blocks):
        if w != 0.0:
            out += w * np.asarray(b, dtype=float)
    return out


def save_matrix(path, matrix: np.ndarray) -> None:
    """Plain-text matrix file: one row per line, whitespace-separated."""
    np.savetxt(path, np.asarray(matrix, dtype=float), fmt="%.17e")


def load_matrix(path) -> np.ndarray:
    values = np.loadtxt(path, ndmin=2)
    return values


def check_matrix_id(matrix_id: str) -> None:
    """A ValueError for a manifest id that is not a plain file name: one
    holding a path separator, or "", "." or "..". Each id names its file."""
    if matrix_id in ("", ".", "..") or "/" in matrix_id or "\\" in matrix_id:
        raise ValueError(f"matrix id {matrix_id!r} is not a plain file name")


def write_manifest(directory, entries) -> Path:
    """Write matrix files plus a manifest.json naming them.

    entries is a sequence of dicts with at least "id" and "matrix" keys;
    remaining keys are stored as parameters. Each id names its file in
    directory, so every id is checked (check_matrix_id) before any file is
    written.
    """
    entries = list(entries)
    for entry in entries:
        check_matrix_id(entry["id"])
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    listed = []
    for entry in entries:
        entry = dict(entry)
        matrix = entry.pop("matrix")
        matrix_id = entry.pop("id")
        fname = f"{matrix_id}.txt"
        save_matrix(directory / fname, matrix)
        listed.append({"id": matrix_id, "file": fname, "params": entry})
    manifest = directory / "manifest.json"
    manifest.write_text(json.dumps({"matrices": listed}, indent=2, sort_keys=True))
    return manifest


def load_manifest(manifest_path) -> dict[str, np.ndarray]:
    """Load every matrix listed in a manifest, keyed by matrix id.

    A manifest lacking a key, or holding a value of the wrong JSON type,
    raises a ValueError naming the file and the key."""
    manifest_path = Path(manifest_path)
    raw = json_object(json.loads(manifest_path.read_text()), f"manifest {manifest_path}")
    out: dict[str, np.ndarray] = {}
    try:
        for entry in json_list(raw["matrices"], f"matrices of manifest {manifest_path}"):
            entry = json_object(entry, f"a matrices entry of manifest {manifest_path}")
            for key in ("id", "file"):
                if not isinstance(entry[key], str):
                    raise ValueError(
                        f"{key} of a matrices entry of manifest {manifest_path} must be "
                        f"a string, got {entry[key]!r}"
                    )
            out[entry["id"]] = load_matrix(manifest_path.parent / entry["file"])
    except KeyError as exc:
        raise ValueError(f"manifest {manifest_path} lacks the key {exc.args[0]!r}") from None
    return out

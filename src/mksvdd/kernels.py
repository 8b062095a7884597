"""Base kernels, Gram matrices, kernel dictionaries, and convex combinations."""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Required, as_integer, check_json, is_finite_number

SYMMETRY_TOL = 1e-10
PSD_FLOOR = 1e-8
SYMMETRY_TILE = 128
BLOCK_ENTRIES = 2**16
CHUNK_BYTES = 2 * 2**20

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
    the spec carries, with symmetric (whether it equals its transpose),
    but leaves out of equality, hash, repr and to_dict. A field of
    another kind than the spec's own is a ValueError.
    """

    kind: str
    bandwidth: float | None = None
    degree: int | None = None
    matrix_id: str | None = None
    matrix: np.ndarray | None = field(default=None, compare=False, repr=False)
    symmetric: bool = field(default=False, init=False, compare=False, repr=False)

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
                raise ValueError(f"precomputed matrix {self.matrix_id!r} holds non-finite values")
            object.__setattr__(self, "matrix", matrix)
            asymmetry = _check_symmetric(matrix, np.inf) if matrix.size else 0.0
            object.__setattr__(self, "symmetric", bool(asymmetry == 0.0))

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
        keys = ("kind", "bandwidth", "degree", "matrix_id")
        return {key: getattr(self, key) for key in keys if getattr(self, key) is not None}

    @classmethod
    def from_dict(cls, raw: dict, matrices=None) -> "KernelSpec":
        """Inverse of to_dict; a precomputed kernel takes its matrix from
        matrices (matrix_id -> matrix) when that holds it."""
        matrix_id = raw.get("matrix_id")
        matrix = (matrices or {}).get(matrix_id) if isinstance(matrix_id, str) else None
        return cls(raw["kind"], raw.get("bandwidth"), raw.get("degree"), matrix_id, matrix)


def as_specs(kernels) -> tuple[KernelSpec, ...]:
    """Specs from a sequence of KernelSpec or from a mapping matrix_id ->
    precomputed matrix over the complete example collection."""
    if isinstance(kernels, dict):
        return tuple(KernelSpec.precomputed(k, m) for k, m in kernels.items())
    return tuple(kernels)


def _check_symmetric(values: np.ndarray, tol: float = SYMMETRY_TOL) -> float:
    """Reject a non-finite entry, and max |v_ij - v_ji| above tol * max |v_ij|;
    return that max. It is taken tile by tile, each upper tile against the
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
    return worst


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
        raise ValueError("precomputed kernels need a nonempty 1D array of integer example ids")
    n = specs[0].matrix.shape[0]
    bad = ids[(ids < 0) | (ids >= n)]
    if bad.size:
        raise ValueError(f"example id {int(bad[0])} out of range: "
                         f"{specs[0].matrix_id!r} covers ids 0..{n - 1}")
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
        raise ValueError(f"example id {int(bad[0])} out of range: the dataset has rows "
                         f"0..{matrix.n_examples - 1}")
    if specs and specs[0].kind == "precomputed":
        return rows
    return matrix.features[rows]


def _entries(A: np.ndarray, B: np.ndarray, kind: str, outer: bool = True) -> np.ndarray:
    """sum_k (a_k - b_k)^2 for kind "rbf" and sum_k a_k b_k for "poly",
    over every row a of A and b of B, or with outer False over row i of A
    and row i of B.

    The terms are summed elementwise in column order, with no BLAS call,
    so each entry depends on its two rows alone, not on the rows computed
    beside it: a row has the same bits in any batch, an entry equals its
    mirror exactly, and a row's squared distance to itself is exactly 0."""
    op = np.subtract if kind == "rbf" else np.multiply
    if outer:
        op = op.outer
    out = term = None
    for k in range(A.shape[1]):
        term = op(A[:, k], B[:, k], out=term)
        if kind == "rbf":
            np.multiply(term, term, out=term)
        if out is None:
            out, term = term, None
        else:
            out += term
    if out is None:  # no features: every sum is empty
        out = np.zeros((len(A), len(B)) if outer else len(A))
    return out


def _block_rows(rows: int, cols: int) -> int:
    """Rows per block of a (rows, cols) array cut into blocks of about
    BLOCK_ENTRIES entries: as many blocks as that asks for, of near-equal
    sizes."""
    blocks = max(1, -(-rows // max(1, BLOCK_ENTRIES // max(cols, 1))))
    return max(1, -(-rows // blocks))


def _blocks(specs, A: np.ndarray, B: np.ndarray | None = None, out=None) -> np.ndarray:
    """k_m(a_i, b_j) for every spec m, one (len(specs), len(A), len(B))
    array, written into out when given, from examples as _examples
    returns them; B defaults to A. Computed entries come from _entries, so
    a Gram is exactly symmetric and each block is the same bits whatever
    rows it is computed with; precomputed ones are taken as loaded.

    One loop over blocks of rows of A of about BLOCK_ENTRIES entries
    serves every kind: each kernel writes its rows of the output in place
    while the block is in cache, the rbf kernels sharing one block of
    squared distances and the poly kernels one block of inner products.
    Beyond the output, a build holds at most about three such blocks,
    whatever the sizes of A and B."""
    other = A if B is None else B
    if A.shape[1:] != other.shape[1:]:
        raise ValueError(f"test dimension {A.shape[1]} does not match "
                         f"training dimension {other.shape[1]}")
    kinds = {spec.kind for spec in specs}
    if out is None:
        out = np.empty((len(specs), len(A), len(other)))
    step = _block_rows(len(A), len(other))
    for start in range(0, len(A), step):
        rows = slice(start, start + step)
        if "rbf" in kinds:
            sq = _entries(A[rows], other, "rbf")
        if "poly" in kinds:
            products = _entries(A[rows], other, "poly")
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

    Computed Grams are exactly symmetric by construction (see _entries); a
    precomputed block is taken as loaded, so an asymmetric matrix is
    rejected, not repaired.
    """
    return GramMatrix(_blocks((spec,), _examples((spec,), X))[0])


def cross_gram(spec: KernelSpec, X_train, X_test) -> np.ndarray:
    """Rectangular kernel block k(test_i, train_j), shape (n_test, n_train)."""
    test, train = _examples((spec,), X_test), _examples((spec,), X_train)
    return _blocks((spec,), test, train)[0]


def _diag(spec: KernelSpec, examples: np.ndarray) -> np.ndarray:
    """Self-similarities k(x, x) for examples checked by _examples, each
    the bits of the diagonal entry _blocks computes for x: rbf's squared
    distance of x to itself is exactly 0, and poly's sum is the same
    _entries sum."""
    if spec.kind == "rbf":
        return np.ones(examples.shape[0])
    if spec.kind == "poly":
        return (_entries(examples, examples, "poly", outer=False) + 1.0) ** spec.degree
    return spec.matrix[examples, examples]


class _Chunks(list):
    """Rows of planes arrays of n columns, in (planes, k, n) chunks that
    never move: slot s is row s % k of chunk s // k, and only at, span and
    take read that layout. A chunk is allocated (or taken from _SPARE) with
    its first slot, the last one cut at slot n; k, fixed at construction,
    is the most rows a chunk of CHUNK_BYTES holds, from 1 to n."""

    def __init__(self, planes: int, n: int):
        self.planes, self.n = planes, n
        self.k = max(1, min(n, CHUNK_BYTES // (8 * planes * n)))

    def at(self, s: int) -> tuple[np.ndarray, int]:
        """Slot s as its chunk and its row in it; the chunk is allocated
        with its first slot."""
        c, r = divmod(s, self.k)
        if c == len(self):
            shape = (self.planes, min(self.k, self.n - s), self.n)
            try:
                self.append(_SPARE[shape].pop())
            except (KeyError, IndexError):
                self.append(np.empty(shape))
        return self[c], r

    def span(self, start: int, end: int) -> np.ndarray:
        """Slots start to end, cut where start's chunk ends, as a view."""
        chunk, r = self.at(start)
        return chunk[:, r : r + end - start]

    def take(self, slots: np.ndarray, index) -> np.ndarray:
        """The rows at slots, gathered on axis 1 by one index(chunk, rows) per chunk."""
        if len(self) <= 1:
            return index(self[0] if self else np.empty((self.planes, 0, self.n)), slots)
        which, rows = np.divmod(slots, self.k)
        chunks = np.unique(which)
        if chunks.size <= 1:
            return index(self[which.max(initial=0)], rows)
        parts = [(which == c, index(self[c], rows[which == c])) for c in chunks]
        out = np.empty((len(parts[0][1]), slots.size) + parts[0][1].shape[2:])
        for at, part in parts:
            out[:, at] = part
        return out


# the chunks of the last dropped row store that held any, by shape, left to the
# next chunks allocated: a process fitting one dictionary after another reuses
# their pages
_SPARE: dict = {}


def _drop(rows: _Chunks) -> None:
    global _SPARE
    if rows:  # a store that holds no chunk leaves the spare ones
        _SPARE = {c.shape: [x for x in rows if x.shape == c.shape] for c in rows}


class _RowStore:
    """Rows of nk Grams over n training examples: row i of Gram m is
    slot slot[i] of plane m of rows (see _Chunks), diag[m] its diagonal.

    Row i of every kernel is computed by _blocks the first time slots()
    asks for it (a precomputed kernel's row is gathered from its loaded
    matrix), into the next free slot; slot[i] is -1 until then. So the
    store holds the rows read and room for one chunk more at most. Each
    entry depends on its two examples alone (see _entries), so a row has
    the same bits in whatever batch it is computed, and diag, from _diag,
    the bits of its diagonal entry.
    """

    def __init__(self, specs, train):
        n = len(train)
        self.specs, self.train, self.rows = specs, train, _Chunks(len(specs), n)
        weakref.finalize(self, _drop, self.rows)
        self.slot = np.full(n, -1, dtype=np.intp)
        self.diag = np.stack([_diag(spec, train) for spec in specs])
        self.computed = 0  # rows computed into the chunks

    def slots(self, rows: np.ndarray) -> np.ndarray:
        """The slots of rows (an index array), computing the rows not yet
        in the store first, in one batch cut where chunks end."""
        rows = np.asarray(rows)
        slots = self.slot[rows]
        if (slots < 0).any():
            new, start = np.unique(rows[slots < 0]), self.computed
            while self.computed < start + new.size:
                out = self.rows.span(self.computed, start + new.size)
                batch = new[self.computed - start :][: out.shape[1]]
                _blocks(self.specs, self.train[batch], self.train, out)
                self.computed += out.shape[1]
            self.slot[new] = np.arange(start, self.computed)
            slots = self.slot[rows]
        return slots


class KernelDictionary:
    """Ordered base kernels with their Gram matrices over the training
    set, held in a row store (see _RowStore).

    train holds the n training examples as the kernels read them (feature
    rows, or row ids into precomputed matrices). A fit reads the Gram rows
    of the pairs it updates and of its support vectors, and the store keeps
    them for every later fit on the dictionary; stack and grams compute
    the whole Grams apart from it. select() gives the dictionary of one
    kernel over the same store. _memo holds the inner solves of every fit
    on the dictionary (see models._inner_solve).
    """

    def __init__(self, specs, train):
        specs = tuple(specs)
        if not specs:
            raise ValueError("kernel dictionary must hold at least one kernel")
        self.specs, self.train, self._store = specs, train, _RowStore(specs, train)
        self._planes, self._memo = slice(0, len(specs)), {}

    @property
    def nk(self) -> int:
        return len(self.specs)

    @property
    def n_train(self) -> int:
        return self._store.slot.size

    @property
    def rows_computed(self) -> int:
        """Training rows computed so far by the store this dictionary shares."""
        return self._store.computed

    @property
    def stack(self) -> np.ndarray:
        """The Grams as one new (nk, n, n) array, computed on each call
        without reading or filling the store: the bits of its rows, as
        every entry depends on its two examples alone (see _entries)."""
        return _blocks(self.specs, self.train)

    @property
    def grams(self) -> tuple[GramMatrix, ...]:
        """Per-kernel views of one stack."""
        return tuple(GramMatrix(values) for values in self.stack)

    def block(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The Gram blocks over training rows rows, (nk, len(rows), len(rows)),
        and their diagonals, (nk, len(rows)); computes only those rows."""
        store, planes = self._store, self._planes
        block = store.rows.take(store.slots(rows), lambda c, at: c[planes][:, at[:, None], rows])
        return block, store.diag[planes][:, rows]

    def select(self, m: int) -> "KernelDictionary":
        """The dictionary of kernel m alone. It shares this one's store, so
        a row read through either is computed once, and has a memo of its
        own."""
        sub = KernelDictionary.__new__(KernelDictionary)
        first = self._planes.start + m
        sub.specs, sub.train, sub._store = (self.specs[m],), self.train, self._store
        sub._planes, sub._memo = slice(first, first + 1), {}
        return sub

    @classmethod
    def from_data(cls, specs, X) -> "KernelDictionary":
        """Dictionary over the training examples X: features for rbf and
        poly kernels, row ids for precomputed ones (one kind per
        dictionary). Every Gram is left to the row store and computed as
        read; a loaded matrix comes from outside, so the symmetry of its
        training block is checked here, unless the matrix is symmetric
        exactly (KernelSpec.symmetric), which every block then passes."""
        specs = tuple(specs)
        if not specs:
            raise ValueError("kernel dictionary must hold at least one kernel")
        if len({spec.kind == "precomputed" for spec in specs}) > 1:
            raise ValueError("a kernel dictionary cannot mix precomputed and feature kernels")
        if len({s.matrix.shape for s in specs if s.matrix is not None}) > 1:
            raise ValueError("all precomputed matrices must be square with equal size")
        train = _examples(specs, X)
        if specs[0].kind == "precomputed":
            for spec in specs:
                if not spec.symmetric:
                    _check_symmetric(spec.matrix[np.ix_(train, train)])
        return cls(specs, train)

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
        and the test examples' k_m(x, x), shape (len(kernels), n_test).
        Reads no Gram row."""
        specs = [self.specs[m] for m in kernels]
        test = _examples(specs, X_test)
        blocks = _blocks(specs, test, self.train[rows])
        return blocks, np.stack([_diag(spec, test) for spec in specs])


class CombinedKernel:
    """K_d = sum_m d_m K_m over the Grams of a KernelDictionary, read by
    rows from its store and never formed as a whole.

    Row i is d @ (row i of each K_m), over one row slot of the store, and
    the diagonal d @ the store's diagonals; kernels with d_m = 0 are never
    read. Row i is computed on first use and kept for the life of the
    operator (one solve, or one model's training terms) in the next free
    slot of its chunks (see _Chunks), where it never moves. Every value is
    computed one way whatever is cached, so it does not depend on the
    order rows were asked for.
    """

    def __init__(self, dictionary: KernelDictionary, d: np.ndarray):
        self.store, first = dictionary._store, dictionary._planes.start
        self.n = self.store.slot.size
        active = np.flatnonzero(d)
        self.kernels = first + active
        # a contiguous run of kernels is read as a view, any other set gathered
        lo, hi = self.kernels[0], self.kernels[-1] + 1
        self._planes = slice(lo, hi) if hi - lo == active.size else self.kernels
        self.weights = np.asarray(d, dtype=float)[active]
        self.diag = self.weights @ self.store.diag[self.kernels]
        self._rows = _Chunks(1, self.n)
        self._slots = np.full(self.n, -1, dtype=np.intp)  # row i's slot in _rows
        self._views = [None] * self.n  # row i's slot as a view, once computed
        self.cached_rows = 0

    def row(self, i: int) -> np.ndarray:
        """Row i of K_d; the caller must not write to it."""
        view = self._views[i]
        if view is None:
            store, slot = self.store, self.cached_rows
            at = store.slot.item(i)
            if at < 0:
                at = store.slots(np.array([i])).item(0)
            self._slots[i] = slot
            chunk, r = self._rows.at(slot)
            view = self._views[i] = chunk[0, r]
            chunk, r = store.rows.at(at)
            np.matmul(self.weights, chunk[self._planes, r], out=view)
            self.cached_rows += 1
        return view

    def rows(self, indices: np.ndarray) -> np.ndarray:
        """Rows of K_d at indices, as a new (len(indices), n) array; the
        store computes the rows it lacks in one batch."""
        self.store.slots(indices)
        for i in indices[self._slots[indices] < 0]:
            self.row(i)
        return self._rows.take(self._slots[indices], lambda chunk, at: chunk[:, at])[0]

    def matvec(self, alpha: np.ndarray) -> np.ndarray:
        """K_d @ alpha, as a sum over the rows of alpha's support."""
        support = np.flatnonzero(alpha)
        return alpha[support] @ self.rows(support)


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
    """Plain-text matrix file: one row per line, whitespace-separated, the
    bytes np.savetxt(path, matrix, fmt="%.17e") writes (a 1-D matrix is
    one column).

    Rows are formatted in blocks of about BLOCK_ENTRIES entries
    (_block_rows). Where a block's square on the diagonal equals its
    transpose bit for bit, each mirrored pair in it is formatted once and
    its string used twice; the rest of the block, and a square that is
    not mirrored, is formatted row by row.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise ValueError(f"Expected 1D or 2D array, got {m.ndim}D array instead")
    rows, cols = m.shape
    step = _block_rows(rows, cols)
    with open(path, "w") as fh:
        for lo in range(0, rows, step):
            fh.writelines(_formatted_rows(m[lo:lo + step], lo))


def _formatted_rows(block: np.ndarray, lo: int):
    """The lines save_matrix writes for block, the rows of a matrix from
    row lo on, formed one at a time as they are written."""
    rows, cols = block.shape
    hi = lo + rows
    square = block[:, lo:hi]
    if hi > cols or not np.array_equal(square.view(np.uint64), square.T.view(np.uint64)):
        line = " ".join(["%.17e"] * cols) + "\n"
        return (line % tuple(row.tolist()) for row in block)
    upper = np.triu_indices(rows)
    text = np.empty((rows, rows), dtype=object)
    text[upper] = (" %.17e" * len(upper[0]) % tuple(square[upper].tolist())).split(" ")[1:]
    text.T[upper] = text[upper]
    left, right = "%.17e " * lo, " %.17e" * (cols - hi) + "\n"
    return (left % tuple(row[:lo].tolist()) + " ".join(t) + right % tuple(row[hi:].tolist())
            for row, t in zip(block, text.tolist()))


def load_matrix(path) -> np.ndarray:
    return np.loadtxt(path, ndmin=2)


def _check_unique(ids: list, where: str = "") -> None:
    """A ValueError, prefixed by where, naming the first id listed twice."""
    for k, matrix_id in enumerate(ids):
        if matrix_id in ids[:k]:
            raise ValueError(f"{where}matrix id {matrix_id!r} is listed twice")


def check_matrix_ids(ids: list) -> None:
    """A ValueError naming the first of the manifest ids listed twice, or
    else the first that is not a plain file name: one holding a path
    separator, or "", "." or "..". Each id names its file."""
    _check_unique(ids)
    for matrix_id in ids:
        if matrix_id in ("", ".", "..") or "/" in matrix_id or "\\" in matrix_id:
            raise ValueError(f"matrix id {matrix_id!r} is not a plain file name")


def write_manifest(directory, entries) -> Path:
    """Write matrix files plus a manifest.json naming them.

    entries is a sequence of dicts with at least "id" and "matrix" keys;
    remaining keys are stored as parameters. Each id names its file in
    directory, so every id is checked (check_matrix_ids) before any file is
    written.
    """
    entries = list(entries)
    check_matrix_ids([entry["id"] for entry in entries])
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    listed = []
    for entry in map(dict, entries):
        matrix_id = entry.pop("id")
        save_matrix(directory / f"{matrix_id}.txt", entry.pop("matrix"))
        listed.append({"id": matrix_id, "file": f"{matrix_id}.txt", "params": entry})
    manifest = directory / "manifest.json"
    manifest.write_text(json.dumps({"matrices": listed}, indent=2, sort_keys=True))
    return manifest


# manifest.json (write_manifest) as a data.check_json form; params is a record
MANIFEST = {"matrices": Required([{"id": Required(str), "file": Required(str), "params": object}])}


def load_manifest(manifest_path) -> dict[str, np.ndarray]:
    """Load every matrix listed in a manifest, keyed by matrix id.

    A manifest not of the form MANIFEST, or listing an id twice, raises a
    ValueError naming the file and the key or id."""
    manifest_path = Path(manifest_path)
    raw = check_json(json.loads(manifest_path.read_text()), MANIFEST, f"manifest {manifest_path}")
    _check_unique([e["id"] for e in raw["matrices"]], f"manifest {manifest_path}: ")
    return {e["id"]: load_matrix(manifest_path.parent / e["file"]) for e in raw["matrices"]}

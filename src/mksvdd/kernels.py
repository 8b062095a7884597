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
        raise ValueError(
            f"test dimension {A.shape[1]} does not match "
            f"training dimension {other.shape[1]}"
        )
    kinds = {spec.kind for spec in specs}
    # as many blocks as BLOCK_ENTRIES asks for, of near-equal sizes
    blocks = -(-len(A) // max(1, BLOCK_ENTRIES // max(len(other), 1)))
    step = -(-len(A) // blocks)
    if out is None:
        out = np.empty((len(specs), len(A), len(other)))
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


class _RowStore:
    """Rows of nk Grams over n examples in one (nk, n, n) buffer:
    buffer[m, slot[i]] is row i of Gram m, and diag[m] its diagonal.

    Given the Grams as a stack, the store is born full: the stack is the
    buffer and slot[i] = i. Given specs and the training examples instead,
    row i of every kernel is computed by _blocks the first time slots()
    asks for it, into the next free slot (slot[i] is -1 until then). The
    slots fill from the start in the order rows are first read, so the
    buffer's touched memory follows the rows computed. Each entry depends
    on its two examples alone (see _entries), so a row has the same bits
    whenever, and in whatever batch, it is computed, and diag, from
    _diag, holds the bits of the rows' diagonal entries.
    """

    def __init__(self, buffer: np.ndarray, specs=None, train=None):
        self.buffer, self.specs, self.train = buffer, specs, train
        n = buffer.shape[1]
        if specs is None:
            self.slot = np.arange(n)
            self.diag = np.diagonal(buffer, axis1=1, axis2=2)
        else:
            self.slot = np.full(n, -1, dtype=np.intp)
            self.diag = np.stack([_diag(spec, train) for spec in specs])
        self.computed = 0  # rows computed into the buffer

    def slots(self, rows: np.ndarray) -> np.ndarray:
        """The slots of rows (an index array), computing the rows not yet
        in the store first, in one batch."""
        rows = np.asarray(rows)
        slots = self.slot[rows]
        if (slots < 0).any():
            new = np.unique(rows[slots < 0])
            start, end = self.computed, self.computed + new.size
            _blocks(self.specs, self.train[new], self.train, self.buffer[:, start:end])
            self.slot[new] = np.arange(start, end)
            self.computed = end
            slots = self.slot[rows]
        return slots

    def full(self) -> np.ndarray:
        """The buffer with every row computed and in row order (slot[i] =
        i): rows computed out of order are sorted once, in place."""
        n = self.slot.size
        slots = self.slots(np.arange(n))
        if (slots != np.arange(n)).any():
            self.buffer[...] = self.buffer[:, slots]
            self.slot[...] = np.arange(n)
        return self.buffer


class KernelDictionary:
    """Ordered base kernels with their Gram matrices over the training
    set, held in a row store.

    train holds the n training examples as the kernels read them (feature
    rows, or row ids into precomputed matrices). Given stack, the (nk, n,
    n) Grams, the store is born full. With stack None, as from_data makes
    it over feature kernels, row i of every Gram is computed the first
    time anything reads it: a fit reads the rows of the pairs it updates
    and of its support vectors, and keeps them for every later fit on the
    dictionary. stack and grams compute every row. select() gives the
    dictionary of one kernel over the same store. _memo holds the inner
    solves of every fit on the dictionary (see models._inner_solve).
    """

    def __init__(self, specs, stack, train):
        specs = tuple(specs)
        if not specs:
            raise ValueError("kernel dictionary must hold at least one kernel")
        if stack is None:
            n = len(train)
            store = _RowStore(np.empty((len(specs), n, n)), specs, train)
        else:
            stack = np.asarray(stack, dtype=float)
            if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
                raise ValueError("Gram stack must hold square matrices, shape (nk, n, n)")
            if stack.shape[0] != len(specs):
                raise ValueError("one Gram matrix per kernel spec required")
            store = _RowStore(stack)
        self.specs, self.train = specs, train
        self._store, self._planes = store, slice(0, len(specs))
        self._memo: dict = {}

    @property
    def nk(self) -> int:
        return len(self.specs)

    @property
    def n_train(self) -> int:
        return self._store.slot.size

    @property
    def rows_computed(self) -> int:
        """Training rows the store has computed so far (none when born
        full), for this dictionary and every one sharing its store."""
        return self._store.computed

    @property
    def stack(self) -> np.ndarray:
        """The Grams as one read-only (nk, n, n) view; computes every row."""
        view = self._store.full()[self._planes].view()
        view.flags.writeable = False
        return view

    @property
    def grams(self) -> tuple[GramMatrix, ...]:
        """Per-kernel views of the stack."""
        return tuple(GramMatrix(values) for values in self.stack)

    def block(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every kernel's Gram entries among the training rows rows, as
        (nk, len(rows), len(rows)), and their diagonal entries, (nk,
        len(rows)); computes only those rows."""
        store = self._store
        slots = store.slots(rows)
        return store.buffer[self._planes][:, slots[:, None], rows], store.diag[self._planes][:, rows]

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
        dictionary). Computed Grams are left to the row store and computed
        as read; precomputed ones come from outside and are gathered and
        checked once here."""
        specs = tuple(specs)
        if not specs:
            raise ValueError("kernel dictionary must hold at least one kernel")
        if len({spec.kind == "precomputed" for spec in specs}) > 1:
            raise ValueError("a kernel dictionary cannot mix precomputed and feature kernels")
        if len({s.matrix.shape for s in specs if s.matrix is not None}) > 1:
            raise ValueError("all precomputed matrices must be square with equal size")
        train = _examples(specs, X)
        if specs[0].kind != "precomputed":
            return cls(specs, None, train)
        stack = _blocks(specs, train)
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
        and the test examples' k_m(x, x), shape (len(kernels), n_test).
        Reads no Gram row."""
        specs = [self.specs[m] for m in kernels]
        test = _examples(specs, X_test)
        blocks = _blocks(specs, test, self.train[rows])
        return blocks, np.stack([_diag(spec, test) for spec in specs])


class CombinedKernel:
    """K_d = sum_m d_m K_m over the Grams of a KernelDictionary, read by
    rows from its store and never formed as a whole (an (nk, n, n) stack
    of symmetric Grams serves as a store born full).

    Row i is d @ (row i of each K_m), over one row slot of the store, and
    the diagonal d @ the store's diagonals; kernels with d_m = 0 are never
    read. Row i is computed on first use and kept for the life of the
    operator (one solve, or one model's training terms) in the next free
    slot of an n x n buffer, so the buffer's memory grows with the rows
    computed, filled from its start, and never exceeds the K_d it stands
    for. Every value is computed one way whatever is cached, so it does
    not depend on the order rows were asked for.
    """

    def __init__(self, grams, d: np.ndarray):
        if isinstance(grams, KernelDictionary):
            self.store, first = grams._store, grams._planes.start
        else:
            self.store, first = _RowStore(np.asarray(grams, dtype=float)), 0
        self.n = self.store.slot.size
        active = np.flatnonzero(d)
        self.kernels = first + active
        # a contiguous run of kernels is read as a view, any other set gathered
        lo, hi = self.kernels[0], self.kernels[-1] + 1
        self._planes = slice(lo, hi) if hi - lo == active.size else self.kernels
        self.weights = np.asarray(d, dtype=float)[active]
        self.diag = self.weights @ self.store.diag[self.kernels]
        self._rows = np.empty((self.n, self.n))  # pages touched only as filled
        self._slots = np.empty(self.n, dtype=np.intp)  # row i's slot in _rows
        self._views = [None] * self.n  # _rows[_slots[i]], once row i is computed
        self.cached_rows = 0

    def row(self, i: int) -> np.ndarray:
        """Row i of K_d; the caller must not write to it."""
        view = self._views[i]
        if view is None:
            store = self.store
            slot = store.slot[i]
            if slot < 0:
                slot = store.slots(np.array([i]))[0]
            self._slots[i] = self.cached_rows
            view = self._views[i] = self._rows[self.cached_rows]
            np.matmul(self.weights, store.buffer[self._planes, slot, :], out=view)
            self.cached_rows += 1
        return view

    def rows(self, indices: np.ndarray) -> np.ndarray:
        """Rows of K_d at indices, as a new (len(indices), n) array; the
        store computes the rows it lacks in one batch."""
        self.store.slots(indices)
        for i in indices:
            self.row(i)
        return self._rows[self._slots[indices]]

    def matvec(self, alpha: np.ndarray) -> np.ndarray:
        """K_d @ alpha. An alpha with no zero entry (a uniform start) is
        summed as per-kernel dense products in kernel order, sum_m d_m
        (K_m @ alpha), which for one kernel at weight 1 is K @ alpha
        itself, over every row of the store; any other alpha as a sum over
        its support rows."""
        support = np.flatnonzero(alpha)
        if support.size < self.n:
            return alpha[support] @ self.rows(support)
        stack = self.store.full()
        out = self.weights[0] * (stack[self.kernels[0]] @ alpha)
        for w, m in zip(self.weights[1:], self.kernels[1:]):
            out += w * (stack[m] @ alpha)
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

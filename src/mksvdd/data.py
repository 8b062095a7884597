"""Tabular data containers, synthetic 2D target generators, and splits."""

from __future__ import annotations

import csv
import itertools
import json
import math
import reprlib
from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path

import numpy as np


# sample_inside_outside: a point is inside when it lies within INSIDE_RADIUS
# stds of a blob center; outside points are drawn from the centers' bounding
# box widened by BOX_MARGIN on every side
INSIDE_RADIUS = 2.5
BOX_MARGIN = 2.0


class ParseError(ValueError):
    """Raised when a data file cannot be parsed."""


@dataclass(frozen=True)
class SampleMatrix:
    """Dense feature matrix with optional {+1, -1} labels.

    An example's id is its row: 0..n_examples-1, which split plans and
    precomputed matrices index.

    Parameters
    ----------
    features : ndarray, shape (n_examples, n_features)
        Row-per-example real feature matrix.
    labels : ndarray or None, shape (n_examples,)
        Optional labels; +1 marks target examples, -1 marks outliers.
    """

    features: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 2:
            raise ValueError("features must be a 2D array")
        if not np.isfinite(feats).all():
            raise ValueError("features contain non-finite values")
        object.__setattr__(self, "features", feats)
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (feats.shape[0],):
                raise ValueError("labels length must match number of rows")
            if not np.isin(labels, (-1, 1)).all():
                raise ValueError("labels must take values in {+1, -1}")
            object.__setattr__(self, "labels", labels.astype(int))

    @property
    def n_examples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class SplitPlan:
    """Train/validation/test example ids (dataset rows) plus the seed that
    produced them."""

    train_ids: np.ndarray
    validation_ids: np.ndarray
    test_ids: np.ndarray
    seed: int
    mode: str = "supervised"

    def __post_init__(self) -> None:
        for name in ("train_ids", "validation_ids", "test_ids"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
        if self.mode not in ("supervised", "unsupervised"):
            raise ValueError(f"unknown split mode: {self.mode!r}")
        if self.mode == "supervised":
            # train = test = all ids is the unsupervised convention, so
            # disjointness is only meaningful (and enforced) here.
            train = set(self.train_ids.tolist())
            val = set(self.validation_ids.tolist())
            test = set(self.test_ids.tolist())
            if train & val or train & test or val & test:
                raise ValueError("supervised split id sets must be disjoint")

    def to_json(self) -> str:
        return json.dumps(
            {
                "mode": self.mode,
                "seed": int(self.seed),
                "train_ids": self.train_ids.tolist(),
                "validation_ids": self.validation_ids.tolist(),
                "test_ids": self.test_ids.tolist(),
            },
            sort_keys=True,
        )


def _parse_cell(text: str, line_no: int, col_no: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(
            f"line {line_no}: cell {col_no} ({text!r}) is not numeric"
        ) from None
    if not np.isfinite(value):
        raise ParseError(f"line {line_no}: cell {col_no} ({text!r}) is not finite")
    return value


def _raise_first_error(rows, width: int, label_idx: int | None) -> None:
    """Raise the ParseError of the first bad row, in row and cell order.

    Called only after the whole-table parse in load_csv has failed, so it
    never accepts a file: reaching its end is a bug.
    """
    for line_no, cells in rows:
        if len(cells) != width:
            raise ParseError(
                f"line {line_no}: expected {width} fields, got {len(cells)}"
            )
        if label_idx is not None:
            pos = label_idx % width
            value = _parse_cell(cells[pos].strip(), line_no, pos)
            if value not in (-1.0, 1.0):
                raise ParseError(
                    f"line {line_no}: label must be +1 or -1, got {cells[pos]!r}"
                )
            cells = cells[:pos] + cells[pos + 1 :]
        for j, c in enumerate(cells):
            _parse_cell(c.strip(), line_no, j)
    raise AssertionError("the table parse failed but every row parses")


def load_csv(
    path,
    label_column: int | str | None = None,
    standardize: bool = False,
) -> SampleMatrix:
    """Load a comma-separated file into a SampleMatrix.

    label_column selects the label field (-1 marks outliers, +1 targets):
    a string naming a header column selects that column; otherwise an int
    or an integer string is a 0-based (or negative) index. Every data cell
    must satisfy float(cell.strip()) and be finite. The first row is a
    header iff any of its cells fails float(cell.strip()).
    standardize=True applies per-feature standardization (mean 0, std 1);
    attribute scales in public tabular datasets vary widely.
    """
    path = Path(path)
    rows = list(csv.reader(path.read_bytes().decode("utf-8").splitlines()))
    rows = [
        (i + 1, r)
        for i, r in enumerate(rows)
        if r and not r[0].lstrip().startswith("#")
    ]
    if not rows:
        raise ParseError(f"{path}: empty file")

    def looks_numeric(cells):
        try:
            for c in cells:
                float(c.strip())
        except ValueError:
            return False
        return True

    names = None
    if not looks_numeric(rows[0][1]):
        names = [c.strip() for c in rows[0][1]]
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}: no data rows")

    label_idx = None
    if label_column is not None:
        if isinstance(label_column, bool) or not isinstance(label_column, (str, int, np.integer)):
            raise ParseError(
                f"label_column must be a column name or an integer index, got {label_column!r}"
            )
        if isinstance(label_column, str) and names is not None and label_column in names:
            label_idx = names.index(label_column)
        else:
            try:
                label_idx = int(label_column)
            except ValueError:
                raise ParseError(f"{path}: no column named {label_column!r}") from None

    width = len(rows[0][1])
    if label_idx is not None and not -width <= label_idx < width:
        raise ParseError(f"label column {label_idx} out of range")
    # One float(cell.strip()) pass over the whole table, the rule of
    # _parse_cell; on any failure the row loop finds and raises the error.
    cells = [r for _, r in rows]
    table = None
    if all(len(r) == width for r in cells):
        flat = map(str.strip, itertools.chain.from_iterable(cells))
        try:
            table = np.fromiter(map(float, flat), float, len(cells) * width)
        except ValueError:
            pass
        else:
            table = table.reshape(len(cells), width)
    if (
        table is None
        or not np.isfinite(table).all()
        or (label_idx is not None and not np.isin(table[:, label_idx], (-1.0, 1.0)).all())
    ):
        _raise_first_error(rows, width, label_idx)

    labels = None
    feats = table
    if label_idx is not None:
        labels = table[:, label_idx].astype(int)
        feats = np.delete(table, label_idx % width, axis=1)
    if standardize:
        std = feats.std(axis=0)
        std[std == 0.0] = 1.0
        feats = (feats - feats.mean(axis=0)) / std
    return SampleMatrix(feats, labels)


def _draw_blobs(rng, n_areas: int) -> tuple[np.ndarray, np.ndarray]:
    """Blob geometry of the synthetic 2D target classes: centers uniform in
    [-1, 1]^2, isotropic stds uniform in [0.05, 0.3]."""
    if n_areas not in (1, 2, 3):
        raise ValueError("n_areas must be 1, 2 or 3")
    centers = rng.uniform(-1.0, 1.0, size=(n_areas, 2))
    stds = rng.uniform(0.05, 0.3, size=n_areas)
    return centers, stds


def blob_parameters(seed: int, n_areas: int) -> tuple[np.ndarray, np.ndarray]:
    """Centers and stds of the blobs gen_2d_target(seed, n_areas, ...) draws."""
    return _draw_blobs(np.random.default_rng(seed), n_areas)


def gen_2d_target(seed: int, n_areas: int, n_points: int) -> SampleMatrix:
    """Random 2D target class made of 1 to 3 Gaussian areas, all labeled +1.

    Pure function of (seed, n_areas, n_points): identical arguments produce
    bit-identical output.
    """
    rng = np.random.default_rng(seed)
    centers, stds = _draw_blobs(rng, n_areas)
    if n_points < n_areas:
        raise ValueError("n_points must be at least n_areas")
    counts = np.full(n_areas, n_points // n_areas)
    counts[: n_points % n_areas] += 1
    chunks = [
        centers[k] + stds[k] * rng.standard_normal((counts[k], 2))
        for k in range(n_areas)
    ]
    feats = np.vstack(chunks)
    return SampleMatrix(feats, np.ones(n_points, dtype=int))


def membership(points, centers, stds) -> np.ndarray:
    """True where a point lies within INSIDE_RADIUS stds of some blob center."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dist = np.linalg.norm(pts[:, None, :] - np.asarray(centers)[None, :, :], axis=2)
    return (dist <= INSIDE_RADIUS * np.asarray(stds)[None, :]).any(axis=1)


def sample_inside_outside(seed: int, centers, stds, n_each: int) -> SampleMatrix:
    """Balanced ground-truth test set around the given blobs.

    Returns n_each points from the blob mixture labeled +1 (inside) and
    n_each uniform points from an enclosing box labeled -1 (outside), with
    membership decided by distance to the nearest center.
    """
    centers = np.asarray(centers, dtype=float)
    stds = np.asarray(stds, dtype=float)
    rng = np.random.default_rng(seed)
    lo = centers.min(axis=0) - BOX_MARGIN
    hi = centers.max(axis=0) + BOX_MARGIN

    def collect(want_inside: bool) -> np.ndarray:
        out = []
        while sum(len(c) for c in out) < n_each:
            if want_inside:
                k = rng.integers(0, len(centers), size=4 * n_each)
                cand = centers[k] + stds[k, None] * rng.standard_normal((4 * n_each, 2))
            else:
                cand = rng.uniform(lo, hi, size=(4 * n_each, 2))
            keep = membership(cand, centers, stds) == want_inside
            out.append(cand[keep])
        return np.vstack(out)[:n_each]

    inside = collect(True)
    outside = collect(False)
    feats = np.vstack([inside, outside])
    labels = np.concatenate([np.ones(n_each, dtype=int), -np.ones(n_each, dtype=int)])
    return SampleMatrix(feats, labels)


def is_finite_number(value) -> bool:
    """A real number, not a bool, neither NaN nor infinite."""
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)


def _is_integer(value, least) -> bool:
    """Whether value is an integer >= least by as_integer's rule."""
    integral = type(value) is int or isinstance(value, Integral) or (
        isinstance(value, Real) and float(value).is_integer()
    )
    return integral and not isinstance(value, bool) and value >= least


def as_integer(name: str, value, least: int) -> int:
    """value as an int >= least. An integral float such as 10.0 reads as
    an integer; a bool, a fractional, non-finite or non-numeric value is a
    ValueError naming name."""
    if not _is_integer(value, least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


class Integer(int):
    """The declared form of an integer >= this value (see check_json)."""


class Required:
    """The declared form of a key its object must hold (see check_json)."""
    def __init__(self, form):
        self.form = form


_FORM_NAMES = {str: "a string", bool: "true or false", float: "a finite number",
               int: "an integer", list: "a JSON list", dict: "a JSON object"}


def _fits(value, form) -> bool:
    """Whether value is of form (check_json), by JSON type alone for a list or object form."""
    if type(value) is float and form is float:  # the common case, cheaply
        return math.isfinite(value)
    if form is object:
        return True
    if isinstance(form, Integer):
        return _is_integer(value, form)
    if isinstance(form, tuple):
        return any(_fits(value, kind) for kind in form)
    if form is float:
        return is_finite_number(value)
    kind = form if isinstance(form, type) else type(form)
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def check_json(value, form, where: str, key: str = ""):
    """value, a decoded JSON value, checked against its declared form: a
    dict {key: form} of the only keys an object may hold, each optional
    (null stands for an absent object) unless Required(form), with the key
    str for any other key; a list [form] of the form of each entry, and a
    list [form_0, form_1, ...] of exactly those entries in order; str,
    bool, float or int for a string, true or false, a finite number or an
    integer (a bool is no number), a tuple of these for any one of them;
    Integer(least) for an integer >= least by as_integer's rule; object for
    any value, a record the program never reads back.

    where names the file and key the value's place in it ("" for the whole
    file, "dataset.seed", "matrices[0]"). An unknown key, a missing
    required key or a wrong type is a ValueError naming both. Value ranges
    are left to the constructors that read the values.
    """
    name = f"{where}: {key}" if key else where
    if not _fits(value, form):
        kinds = form if isinstance(form, tuple) else (form,)
        wanted = " or ".join(_FORM_NAMES.get(type(k), "") if isinstance(k, (list, dict))
                             else _FORM_NAMES.get(k) or f"an integer >= {k}" for k in kinds)
        raise ValueError(f"{name} must be {wanted}, got {reprlib.repr(value)}")
    if isinstance(form, list):
        if len(form) > 1 and len(value) != len(form):
            raise ValueError(
                f"{name} must be a JSON list of {len(form)} entries, got {reprlib.repr(value)}"
            )
        for i, v in enumerate(value):
            item = form[i] if len(form) > 1 else form[0]
            if isinstance(item, (list, dict)) or not _fits(v, item):
                check_json(v, item, where, f"{key}[{i}]")
    elif isinstance(form, dict):
        section = f" in {key}" if key else ""
        for k, sub in form.items():
            if isinstance(sub, Required) and k not in value:
                raise ValueError(f"{where} lacks the key {k!r}{section}")
        other = form.get(str)
        for k, v in value.items():
            sub = form.get(k, other)
            if sub is None:
                raise ValueError(f"{where}: unknown key {k!r}{section}")
            if v is None and isinstance(sub, dict):
                continue  # an optional object given as null
            sub = getattr(sub, "form", sub)
            if isinstance(sub, (list, dict)) or not _fits(v, sub):
                check_json(v, sub, where, f"{key}.{k}" if key else k)
    return value


def split(
    matrix: SampleMatrix,
    mode: str,
    seed: int,
    train_count: int | None = None,
    train_fraction: float | None = None,
    validation_count: int = 0,
) -> SplitPlan:
    """Plan a train/validation/test split of matrix's rows.

    Examples are numbered by row, np.arange(n_examples). Unsupervised mode
    trains on every row and tests on the same rows. Supervised mode
    samples the requested number of training rows uniformly from the
    positives, the rows labelled +1 or every row when there are no labels
    (plus validation_count more, disjoint); the remainder is the test set.
    Counts follow as_integer, and train_fraction must be a number in (0, 1].
    """
    all_ids = np.arange(matrix.n_examples)
    if mode == "unsupervised":
        return SplitPlan(all_ids, np.array([], dtype=all_ids.dtype), all_ids, seed, mode)
    if mode != "supervised":
        raise ValueError(f"unknown split mode: {mode!r}")

    positives = all_ids if matrix.labels is None else all_ids[matrix.labels == 1]
    if (train_count is None) == (train_fraction is None):
        raise ValueError("give exactly one of train_count or train_fraction")
    validation_count = as_integer("validation_count", validation_count, 0)
    if train_fraction is None:
        train_count = as_integer("train_count", train_count, 1)
    else:
        if not (is_finite_number(train_fraction) and 0 < train_fraction <= 1):
            raise ValueError(f"train_fraction must be a number in (0, 1], got {train_fraction!r}")
        train_count = int(train_fraction * len(positives))
        if train_count < 1:
            raise ValueError("training set would be empty")
    if train_count + validation_count > len(positives):
        raise ValueError(
            f"requested {train_count}+{validation_count} positives, "
            f"only {len(positives)} available"
        )
    rng = np.random.default_rng(seed)
    picked = rng.permutation(positives)[: train_count + validation_count]
    train_ids = np.sort(picked[:train_count])
    val_ids = np.sort(picked[train_count:])
    rest = np.setdiff1d(all_ids, picked)
    return SplitPlan(train_ids, val_ids, np.sort(rest), seed, mode)

"""Command line entry point for reproducible one-class experiments.

Subcommands: fit, eval, experiment, gen2d, gram, graph-gram. Runs are
driven by JSON config files (flags override file values); every file is
written atomically and all randomness flows from seeds recorded in the
outputs, so re-running a logged config reproduces its files byte for
byte.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    SampleMatrix,
    as_integer,
    gen_2d_target,
    is_finite_number,
    json_list,
    json_object,
    load_csv,
    split,
)
from .evaluation import grid_search, precision_recall
from .evaluation import auc as auc_metric
from .graphs import PathKernelConfig, build_graph_gram, collection_from_json
from .kernels import (
    KernelDictionary,
    KernelSpec,
    as_specs,
    check_matrix_id,
    examples_for,
    load_manifest,
    write_manifest,
)
from .mkl import METHOD_FAMILIES, check_options, fit_method
from .models import _stored_specs, model_from_dict, model_to_dict, score


class ConfigError(ValueError):
    pass


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _csv_text(header, rows, config_hash: str) -> str:
    """The config comment, the header and one line per row of cell strings."""
    lines = [f"# mksvdd {__version__} config {config_hash}", ",".join(header)]
    lines.extend(map(",".join, rows))
    return "\n".join(lines) + "\n"


def _cells(row):
    """A row's values as cell strings: floats by repr, None as empty."""
    return (
        repr(v) if isinstance(v, float) else "" if v is None else str(v) for v in row
    )


def _load_config(path) -> dict:
    try:
        config = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    return _object(config, f"config file {path}")


def _check_keys(config: dict, keys: frozenset, path) -> None:
    """A ConfigError naming the file and the first key of config, in
    sorted order, that the command does not read (not in keys)."""
    unknown = sorted(set(config) - keys)
    if unknown:
        raise ConfigError(f"config file {path}: unknown key {unknown[0]!r}")


def _object(value, name: str) -> dict:
    """value, which must be a JSON object (data.json_object); {} when null
    (absent). name names it in the error, as in "grids"."""
    return {} if value is None else json_object(value, name)


def _list(cfg: dict, key: str, default, where: str = "") -> list:
    """cfg[key], which must be a JSON list (data.json_list); default when
    absent or null. where prefixes the key in the error, as in "grids.C"."""
    value = cfg.get(key)
    return default if value is None else json_list(value, where + key)


def _bandwidths(cfg: dict, key: str, default, where: str = "") -> list[float]:
    """_list(cfg, key, default, where) of finite numbers > 0, as floats."""
    values = _list(cfg, key, default, where)
    for v in values:
        if not (is_finite_number(v) and v > 0):
            raise ConfigError(
                f"{where}{key} entries must be strictly positive bandwidths, got {v!r}"
            )
    return [float(v) for v in values]


def _build_dataset(dcfg: dict) -> SampleMatrix:
    kind = dcfg.get("kind")
    if kind == "gen2d":
        return gen_2d_target(
            as_integer("dataset.seed", dcfg.get("seed", 0), 0),
            as_integer("dataset.n_areas", dcfg.get("n_areas", 1), 1),
            as_integer("dataset.n_points", dcfg.get("n_points", 50), 1),
        )
    if kind == "csv":
        standardize = dcfg.get("standardize", False)
        if not isinstance(standardize, bool):
            raise ConfigError(f"dataset.standardize must be true or false, got {standardize!r}")
        return load_csv(dcfg["path"], dcfg.get("label_column"), standardize)
    raise ConfigError(f"unknown dataset kind: {kind!r}")


def _kernel_setup(kcfg: dict):
    """KernelSpecs for the configured rbf/poly lists or manifest matrices."""
    if "manifest" in kcfg:
        return as_specs(load_manifest(kcfg["manifest"]))
    specs = [KernelSpec.rbf(bw) for bw in _bandwidths(kcfg, "rbf", [], "kernels.")]
    specs += [KernelSpec.poly(deg) for deg in _list(kcfg, "poly", [], "kernels.")]
    if not specs:
        raise ConfigError("no kernels named: give at least one rbf or poly kernel")
    return specs


def _split_plan(matrix: SampleMatrix, scfg: dict | None, seed=None):
    scfg = dict(scfg or {"mode": "unsupervised"})
    mode = scfg.get("mode", "unsupervised")
    use_seed = as_integer("split.seed", scfg.get("seed", 0), 0) if seed is None else seed
    if mode == "unsupervised":
        return split(matrix, "unsupervised", use_seed)
    return split(
        matrix,
        "supervised",
        use_seed,
        train_count=scfg.get("train_count"),
        train_fraction=scfg.get("train_fraction"),
        validation_count=scfg.get("validation_count", 0),
    )


def _mkl_options(cfg: dict) -> dict:
    """The config's mkl options, checked by mkl.check_options."""
    return check_options(_object(cfg.get("mkl"), "mkl"))


def cmd_gen2d(args) -> int:
    matrix = gen_2d_target(args.seed, args.n_areas, args.n_points)
    config = {
        "command": "gen2d",
        "seed": args.seed,
        "n_areas": args.n_areas,
        "n_points": args.n_points,
    }
    rows = [
        (float(x[0]), float(x[1]), int(lab))
        for x, lab in zip(matrix.features, matrix.labels)
    ]
    text = _csv_text(["x1", "x2", "label"], map(_cells, rows), _config_hash(config))
    _atomic_write(Path(args.out), text)
    return 0


# the top-level config keys each command reads
FIT_KEYS = frozenset(
    {"method", "dataset", "split", "kernels", "C", "lambda", "mkl", "output_dir"}
)
EXPERIMENT_KEYS = FIT_KEYS | {
    "methods", "grids", "policy", "seed", "seeds", "repetitions", "train_sizes"
}


def cmd_fit(args) -> int:
    config = _load_config(args.config)
    _check_keys(config, FIT_KEYS, args.config)
    if args.method:
        config["method"] = args.method
    if args.c_value is not None:
        config["C"] = args.c_value
    if args.lam is not None:
        config["lambda"] = args.lam
    out_dir = Path(args.out_dir or config.get("output_dir", "."))

    method = config.get("method")
    if method not in METHOD_FAMILIES:
        raise ConfigError(f"method must be one of {sorted(METHOD_FAMILIES)}")
    for name in ("model.json", "trace.csv", "fit.json"):  # every file the fit writes
        if (out_dir / name).resolve() == Path(args.config).resolve():
            raise ConfigError(f"the fit would write {out_dir / name} over its own config file")
    dataset = _object(config.get("dataset"), "dataset")
    matrix = _build_dataset(dataset)
    plan = _split_plan(matrix, _object(config.get("split"), "split"))
    specs = _kernel_setup(_object(config.get("kernels"), "kernels"))
    dictionary = KernelDictionary.from_data(specs, examples_for(matrix, plan.train_ids, specs))
    model, trace = fit_method(
        method,
        dictionary,
        config.get("C", 0.1),
        config.get("lambda", 0.0),
        **_mkl_options(config),
    )

    payload = {
        "method": method,
        "lambda": trace.config.lam,
        "model": model_to_dict(model),
        "train_source": {
            "dataset": dataset,
            "split": plan.to_json(),
        },
        "version": __version__,
    }
    _atomic_write(out_dir / "model.json", json.dumps(payload, indent=2, sort_keys=True))
    header, rows = trace.table()
    text = _csv_text(header, map(_cells, rows), _config_hash(config))
    _atomic_write(out_dir / "trace.csv", text)
    stats = {
        "converged": trace.converged,
        "message": trace.message,
        "outer_iterations": len(trace.steps),
        "line_search_probes": len(trace.probes),
        "solves": trace.solves,
        "memo_hits": trace.memo_hits,
        "pair_updates": trace.pair_updates,
    }
    _atomic_write(out_dir / "fit.json", json.dumps(stats, indent=2, sort_keys=True))
    return 0


def _load_model(path, data_path, manifest_path):
    """The stored method and model over its support rows, with no training
    data read; precomputed kernels read the manifest's matrices."""
    raw = json_object(json.loads(Path(path).read_text()), f"model file {path}")
    matrices = load_manifest(manifest_path) if manifest_path else None
    try:
        stored = json_object(raw["model"], "model")
        precomputed = _stored_specs(stored)[0].kind == "precomputed"
        if precomputed == bool(manifest_path) and (precomputed or data_path):
            return raw["method"], model_from_dict(stored, matrices)
    except KeyError as exc:
        raise ConfigError(f"model file {path} lacks the key {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ConfigError(f"model file {path}: {exc}") from None
    raise ConfigError(
        "eval of precomputed-kernel models needs --manifest, of "
        "feature-kernel models --data (see README)"
    )


def cmd_eval(args) -> int:
    method, model = _load_model(args.model, args.data, args.manifest)
    config = {"command": "eval", "model": method, "data": str(args.data)}
    if args.manifest:
        if args.test_ids == "all":
            ids = np.arange(model.dictionary.specs[0].matrix.shape[0])
        else:
            ids = np.array([int(t) for t in args.test_ids.split(",")])
        scores = score(model, ids)
        labels = None
        config.update(manifest=str(args.manifest), test_ids=args.test_ids)
    else:
        test = load_csv(args.data, label_column=args.label_column)
        scores = score(model, test.features)
        ids = np.arange(test.n_examples)
        labels = test.labels

    # whole columns formatted as _cells would: ints by str, floats by repr
    chash = _config_hash(config)
    out_dir = Path(args.out_dir)
    headers = ["id", "outlier_score"]
    columns = [map(str, ids.tolist()), map(repr, scores.tolist())]
    if labels is not None:
        headers.append("label")
        columns.append(map(str, labels.tolist()))
    text = _csv_text(headers, zip(*columns), chash)
    _atomic_write(out_dir / "scores.csv", text)

    both_classes = labels is not None and len(np.unique(labels)) == 2
    if both_classes:
        value = auc_metric(scores, labels)
        curve = precision_recall(scores, labels)
        text = _csv_text(
            ["recall", "precision"],
            zip(*(map(repr, c) for c in curve.T.tolist())),
            chash,
        )
        text = text.replace("\n", f"\n# auc {value!r}\n", 1)
        _atomic_write(out_dir / "report.csv", text)
    elif labels is not None:
        print("note: single-class labels; skipping report.csv (AUC undefined)")
    return 0


def _resolve_seeds(config: dict) -> list[int]:
    reps = as_integer("repetitions", config.get("repetitions", 1), 1)
    seeds = _list(config, "seeds", None)
    if seeds is None:
        base = as_integer("seed", config.get("seed", 0), 0)
        seeds = [base + i for i in range(reps)]
    if len(seeds) != reps:
        raise ConfigError("seeds list must match repetitions")
    return [as_integer("seeds", s, 0) for s in seeds]


def _experiment_cell(run: dict, cell: tuple) -> list[dict]:
    """One result row per method for one (seed, train-size) cell; top-level
    for process pools. run holds what cmd_experiment read once from the
    config: the dataset and split entries, the kernel specs, methods,
    grids, policy and mkl options."""
    seed, train_size = cell
    dcfg = dict(run["dataset"])
    if dcfg.get("kind") == "gen2d":
        dcfg["seed"] = seed
    matrix = _build_dataset(dcfg)

    scfg = dict(run["split"] or {"mode": "unsupervised"})
    if train_size is not None:
        scfg["train_count"] = train_size
        scfg.pop("train_fraction", None)
    plan = _split_plan(matrix, scfg, seed=seed)

    specs, methods, policy = run["specs"], run["methods"], run["policy"]
    result = grid_search(
        matrix,
        specs,
        methods,
        run["c_grid"],
        run["lambda_grid"],
        policy=policy,
        plan=plan,
        mkl_options=run["mkl"],
    )
    if policy == "positive-fraction":
        test_examples = examples_for(matrix, plan.test_ids, specs)  # checks the ids
        test_labels = None if matrix.labels is None else matrix.labels[plan.test_ids]
    rows = []
    for method in methods:
        best = result.best.get(method)
        if best is None:
            errors = {c.error for c in result.table if c.method == method}
            rows.append(
                {"method": method, "error": "; ".join(sorted(filter(None, errors)))}
            )
            continue
        if policy == "auc":
            value = best.score
        else:
            # test AUC of the selected cell's model; a test set without
            # both classes is a recorded failure, not a crash
            try:
                value = auc_metric(score(best.model, test_examples), test_labels)
            except (ValueError, RuntimeError) as exc:
                rows.append({"method": method, "error": str(exc)})
                continue
        rows.append(
            {
                "method": method,
                "C": best.C,
                "lambda": best.lam,
                "kernel_index": best.kernel_index,
                "auc": value,
            }
        )
    return rows


def cmd_experiment(args) -> int:
    config = _load_config(args.config)
    _check_keys(config, EXPERIMENT_KEYS, args.config)
    out_dir = Path(args.out_dir or config.get("output_dir", "."))
    seeds = _resolve_seeds(config)
    train_sizes = _list(config, "train_sizes", []) or [None]
    split_cfg = _object(config.get("split"), "split")
    split_mode = split_cfg.get("mode", "unsupervised")
    if train_sizes != [None] and split_mode == "unsupervised":
        raise ConfigError(
            "train_sizes needs a supervised split: an unsupervised split "
            "trains on every example whatever the size"
        )
    train_sizes = [None if s is None else as_integer("train_sizes", s, 1) for s in train_sizes]
    dataset = _object(config.get("dataset"), "dataset")
    if "seed" in split_cfg or (dataset.get("kind") == "gen2d" and "seed" in dataset):
        key = "split.seed" if "seed" in split_cfg else "dataset.seed"
        raise ConfigError(
            f"experiment takes no {key}: it takes its seeds from seed/seeds, "
            "and each repetition's seed sets the split and a gen2d dataset"
        )
    methods = _list(config, "methods", []) or [config.get("method")]
    for m in methods:
        if m not in METHOD_FAMILIES:
            raise ConfigError(f"method must be one of {sorted(METHOD_FAMILIES)}")
    grids = _object(config.get("grids"), "grids")
    run = {
        "mkl": _mkl_options(config),  # a bad value fails here, not in every cell
        "dataset": dataset,
        "split": split_cfg,
        "specs": _kernel_setup(_object(config.get("kernels"), "kernels")),
        "methods": methods,
        "c_grid": _list(grids, "C", [config.get("C", 0.1)], "grids."),
        "lambda_grid": _list(grids, "lambda", [config.get("lambda", 0.0)], "grids."),
        "policy": config.get("policy", "auc"),
    }

    cells = [(seed, size) for size in train_sizes for seed in seeds]
    workers = max(1, args.workers)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(functools.partial(_experiment_cell, run), cells))
    else:
        outcomes = [_experiment_cell(run, cell) for cell in cells]

    header = [
        "row", "train_size", "repetition", "seed",
        "method", "C", "lambda", "kernel_index", "auc", "error",
    ]
    rows = []
    failed = False
    by_group: dict = {}
    for idx, ((seed, size), outcome) in enumerate(zip(cells, outcomes)):
        for m in outcome:
            rows.append(
                ("rep", size, idx % len(seeds), seed, m["method"], m.get("C"),
                 m.get("lambda"), m.get("kernel_index"), m.get("auc"), m.get("error"))
            )
            if "error" in m:
                failed = True
            else:
                by_group.setdefault((size, m["method"]), []).append(m["auc"])
    for (size, method), values in sorted(
        by_group.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
    ):
        arr = np.asarray(values)
        rows.append(("mean", size, None, None, method, None, None, None,
                     float(arr.mean()), None))
        rows.append(("std", size, None, None, method, None, None, None,
                     float(arr.std()), None))

    text = _csv_text(header, map(_cells, rows), _config_hash(config))
    _atomic_write(out_dir / "results.csv", text)
    return 1 if failed else 0


def cmd_gram(args) -> int:
    matrix = load_csv(args.data, label_column=args.label_column)
    specs = _kernel_setup({"rbf": args.rbf or [], "poly": args.poly or []})
    dictionary = KernelDictionary.from_data(specs, matrix)
    entries = [
        {
            "id": f"rbf_{spec.bandwidth:g}" if spec.kind == "rbf" else f"poly_{spec.degree}",
            "matrix": values,
            **spec.to_dict(),
        }
        for spec, values in zip(specs, dictionary.stack)
    ]
    write_manifest(args.out_dir, entries)
    return 0


def cmd_graph_gram(args) -> int:
    config = _load_config(args.config)
    collections = collection_from_json(args.graphs)
    grid_cfg = _object(config.get("grid"), "grid")
    # integer settings go through unconverted: PathKernelConfig rejects
    # a fractional, non-finite or boolean one instead of truncating it
    base = {
        "bag_size": config.get("bag_size", 20),
        "seed": config.get("seed", 0),
        "distance_mode": config.get("distance_mode", "product"),
    }
    axes = [[("max_length", v) for v in _list(grid_cfg, "max_lengths", [3], "grid.")]]
    axes += [
        [(name, v) for v in _bandwidths(grid_cfg, name + "s", [1.0], "grid.")]
        for name in ("sigma", "vertex_bandwidth", "edge_bandwidth")
    ]
    configs = [
        PathKernelConfig(**dict(combo), **base)
        for combo in itertools.product(*axes)
    ]
    # every id the build names, checked before any graph-kernel work
    for name in sorted(collections):
        for k in range(len(configs)):
            check_matrix_id(f"{name}_{k:03d}")
    entries = []
    for name in sorted(collections):
        _, function_entries = build_graph_gram(
            collections[name], configs, id_prefix=name
        )
        for e in function_entries:
            e["function"] = name
        entries.extend(function_entries)
    write_manifest(args.out_dir, entries)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mksvdd",
        description="One-class learning with multiple kernels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen2d", help="generate a synthetic 2D target class CSV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-areas", type=int, default=1)
    p.add_argument("--n-points", type=int, default=50)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit", help="fit one model from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir")
    p.add_argument("--method", choices=sorted(METHOD_FAMILIES))
    p.add_argument("--c-value", type=float, dest="c_value")
    p.add_argument("--lambda", type=float, dest="lam")

    p = sub.add_parser("eval", help="score test data with a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", help="test CSV (feature-kernel models)")
    p.add_argument("--label-column")
    p.add_argument("--manifest", help="kernel manifest (precomputed models)")
    p.add_argument("--test-ids", default="all",
                   help="comma-separated ids for precomputed models")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("experiment", help="run a repeated grid experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir")
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("gram", help="precompute kernel matrices from a CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--label-column")
    p.add_argument("--rbf", type=float, action="append")
    p.add_argument("--poly", type=int, action="append")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("graph-gram", help="bag-of-paths Grams for labeled graphs")
    p.add_argument("--graphs", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at call time, so a command wrapped after import is the one run
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Spans around the public functions of every mksvdd layer, timed from outside.

The library is not changed: a Tracer replaces each traced function with a
wrapper in every ``mksvdd`` module that bound it (``from .qp import
solve_raw`` leaves a second name in ``mkl``), records one span per call and
puts every original name back on ``close``. A call made directly inside a
span of the same name (``solve`` -> ``solve_raw``) is not recorded again, so
nothing is counted twice.

A span is ``[name, start, end, parent, op, attrs]``; ``parent`` indexes the
enclosing span (-1 at the top) and ``op`` is the benchmark's op id. The
layer of a span is the part of its name before the dot.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

LAYERS = ("cli", "data", "kernels", "qp", "mkl", "models", "graphs", "evaluation")

STOP_REASONS = {
    "duality gap within tolerance": "gap",
    "stationary weights (zero reduced gradient)": "stationary",
    "line search found no improving step": "linesearch",
    "outer iteration cap reached": "cap",
}


def _solve_attrs(result, args, kwargs, exc):
    solution = result if exc is None else getattr(exc, "solution", None)
    return {"iterations": 0 if solution is None else int(solution.iterations)}


def _mkl_attrs(result, args, kwargs, exc):
    dictionary = args[0] if args else kwargs["dictionary"]
    out = {"nk": dictionary.nk, "n": dictionary.n_train}
    if exc is None:
        trace = result[1]
        out["steps"] = len(trace.steps)
        out["stop"] = STOP_REASONS.get(trace.message, "other")
    return out


def _rows_attrs(result, args, kwargs, exc):
    return {"rows": len(args[1])}


def _grid_attrs(result, args, kwargs, exc):
    if exc is not None:
        return None
    return {
        "cells": len(result.table),
        "errors": sum(cell.error is not None for cell in result.table),
    }


def _psd_attrs(result, args, kwargs, exc):
    return {"ok": bool(result)} if exc is None else None


def traced_functions():
    """(span name, owner, attribute, attrs hook) for every traced call.

    The owner is a module (its function is replaced wherever mksvdd bound
    it) or a class (the method is replaced on the class).
    """
    from mksvdd import cli, data, evaluation, graphs, kernels, mkl, models, qp

    return [
        ("cli.cmd", cli, "cmd_fit", None),
        ("cli.cmd", cli, "cmd_eval", None),
        ("cli.cmd", cli, "cmd_experiment", None),
        ("cli.cmd", cli, "cmd_graph_gram", None),
        ("data.load_csv", data, "load_csv", None),
        ("data.gen2d", data, "gen_2d_target", None),
        ("kernels.gram", kernels, "gram", None),
        ("kernels.cross", kernels, "cross_gram", None),
        ("kernels.combine", kernels, "combine", None),
        ("kernels.combine", kernels, "combine_blocks", None),
        ("kernels.manifest_write", kernels, "write_manifest", None),
        ("qp.solve", qp, "solve", _solve_attrs),
        ("qp.solve", qp, "solve_raw", _solve_attrs),
        ("qp.problem_check", qp.QpProblem, "__post_init__", None),
        ("mkl.fit", mkl, "fit_mkl", _mkl_attrs),
        ("mkl.gradient", mkl, "mkl_gradient", None),
        ("models.fit", models, "fit_one_class", None),
        ("models.score", models, "score", _rows_attrs),
        ("models.score", models, "score_ids", _rows_attrs),
        ("graphs.build", graphs, "build_graph_gram", None),
        ("graphs.sample", graphs, "sample_paths", None),
        ("graphs.pair", graphs, "graph_kernel_value", None),
        ("graphs.psd_check", kernels.GramMatrix, "eigenvalue_floor_ok", _psd_attrs),
        ("evaluation.grid", evaluation, "grid_search", _grid_attrs),
        ("evaluation.metrics", evaluation, "auc", None),
        ("evaluation.metrics", evaluation, "precision_recall", None),
    ]


class Patches:
    """Replaced attributes, restored in reverse order by ``restore``."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make_wrapper):
        """Wrap owner.attr; for a module, wrap every mksvdd binding of it."""
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [
                (module, name)
                for mod_name, module in sorted(sys.modules.items())
                if mod_name == "mksvdd" or mod_name.startswith("mksvdd.")
                for name, value in list(vars(module).items())
                if value is original
            ]
        for target, name in targets:
            self._saved.append((target, name, original))
            setattr(target, name, wrapper)

    def restore(self):
        while self._saved:
            target, name, original = self._saved.pop()
            setattr(target, name, original)


class Tracer:
    """In-memory span recorder; ``op`` is set by the benchmark loop."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._patches = Patches()

    def install(self):
        for name, owner, attr, attrs in traced_functions():
            self._patches.replace(
                owner, attr, lambda fn, n=name, a=attrs: self._wrap(n, fn, a)
            )

    def close(self):
        self._patches.restore()

    def _wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if attrs is not None:
                    span[5] = attrs(None, args, kwargs, exc)
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(result, args, kwargs, None)
            return result

        return wrapper


def _children(spans):
    kids = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            kids[span[3]].append(idx)
    return kids


def self_times(spans) -> dict:
    """Seconds per layer spent in its own spans, children excluded."""
    kids = _children(spans)
    out = {layer: 0.0 for layer in LAYERS}
    for idx, span in enumerate(spans):
        own = span[2] - span[1] - sum(spans[k][2] - spans[k][1] for k in kids[idx])
        out[span[0].split(".")[0]] += own
    return out


def op_counts(spans) -> dict:
    """Counts that must repeat exactly, per op id."""
    kids = _children(spans)
    per_op: dict[int, dict] = {}
    for idx, (name, _, _, _, op, attrs) in enumerate(spans):
        counts = per_op.setdefault(
            op,
            {"qp.solves": 0, "qp.pair_updates": 0, "mkl.outer_iters": 0,
             "mkl.ls_probes": 0, "mkl.stop": [], "graphs.pair_evals": 0},
        )
        if name == "qp.solve":
            counts["qp.solves"] += 1
            counts["qp.pair_updates"] += attrs["iterations"] if attrs else 0
        elif name == "mkl.fit" and attrs and "steps" in attrs:
            counts["mkl.outer_iters"] += attrs["steps"]
            counts["mkl.ls_probes"] += _probes(spans, kids[idx])
            counts["mkl.stop"].append(attrs["stop"])
        elif name == "graphs.pair":
            counts["graphs.pair_evals"] += 1
    return per_op


def _probes(spans, kid_ids) -> int:
    """Line-search probes of one fit_mkl: its direct inner solves but the first."""
    solves = sum(spans[k][0] == "qp.solve" for k in kid_ids)
    return max(solves - 1, 0)


def layer_metrics(spans) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from one traced pass."""
    kids = _children(spans)
    total = {}
    count = {}
    for name, start, end, *_ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        count[name] = count.get(name, 0) + 1

    own = self_times(spans)
    traced = sum(own.values())
    m = {f"{layer}.self_s": s for layer, s in own.items()}
    m.update({f"{layer}.self_share": s / traced for layer, s in own.items()})
    m["data.load_csv_s"] = total.get("data.load_csv", 0.0)
    m["kernels.gram_s"] = total.get("kernels.gram", 0.0)
    m["kernels.gram_calls"] = count.get("kernels.gram", 0)
    m["kernels.cross_s"] = total.get("kernels.cross", 0.0)
    m["kernels.combine_s"] = total.get("kernels.combine", 0.0)
    m["kernels.combine_calls"] = count.get("kernels.combine", 0)
    m["kernels.manifest_write_s"] = total.get("kernels.manifest_write", 0.0)

    updates = sum(s[5]["iterations"] for s in spans if s[0] == "qp.solve" and s[5])
    m["qp.solve_s"] = total.get("qp.solve", 0.0)
    m["qp.solves"] = count.get("qp.solve", 0)
    m["qp.pair_updates"] = updates
    m["qp.us_per_update"] = 1e6 * m["qp.solve_s"] / updates if updates else 0.0
    m["qp.problem_check_s"] = total.get("qp.problem_check", 0.0)

    fits = [(i, s) for i, s in enumerate(spans) if s[0] == "mkl.fit" and s[5]]
    done = [(i, s) for i, s in fits if "steps" in s[5]]
    probes = sum(_probes(spans, kids[i]) for i, _ in done)
    accepted = sum(s[5]["steps"] - (s[5]["stop"] != "cap") for _, s in done)
    m["mkl.fit_s"] = total.get("mkl.fit", 0.0)
    m["mkl.fits"] = count.get("mkl.fit", 0)
    m["mkl.combine_bytes_computed"] = sum(
        sum(spans[k][0] == "qp.solve" for k in kids[i]) * s[5]["nk"] * s[5]["n"] ** 2 * 8
        for i, s in fits
    )
    m["mkl.gradient_s"] = total.get("mkl.gradient", 0.0)
    m["mkl.refit_s"] = sum(
        s[2] - s[1]
        for s in spans
        if s[0] == "models.fit" and s[3] >= 0 and spans[s[3]][0] == "mkl.fit"
    )
    m["mkl.outer_iters"] = sum(s[5]["steps"] for _, s in done)
    m["mkl.ls_probes"] = probes
    m["mkl.ls_accept_ratio"] = accepted / probes if probes else 0.0
    for reason in ("gap", "stationary", "linesearch", "cap"):
        m[f"mkl.stop_{reason}"] = sum(s[5]["stop"] == reason for _, s in done)

    m["models.score_s"] = total.get("models.score", 0.0)
    m["models.score_rows"] = sum(s[5]["rows"] for s in spans if s[0] == "models.score" and s[5])
    m["models.fit_s"] = total.get("models.fit", 0.0)

    pairs = count.get("graphs.pair", 0)
    m["graphs.build_s"] = total.get("graphs.build", 0.0)
    m["graphs.pair_evals"] = pairs
    m["graphs.us_per_pair"] = 1e6 * total.get("graphs.pair", 0.0) / pairs if pairs else 0.0
    m["graphs.sample_s"] = total.get("graphs.sample", 0.0)
    m["graphs.psd_check_s"] = total.get("graphs.psd_check", 0.0)
    m["graphs.psd_jitter_count"] = sum(
        1 for s in spans if s[0] == "graphs.psd_check" and s[5] and not s[5]["ok"]
    )

    grids = [s[5] for s in spans if s[0] == "evaluation.grid" and s[5]]
    m["evaluation.grid_s"] = total.get("evaluation.grid", 0.0)
    m["evaluation.cells"] = sum(g["cells"] for g in grids)
    m["evaluation.cell_errors"] = sum(g["errors"] for g in grids)
    m["evaluation.metrics_s"] = total.get("evaluation.metrics", 0.0)
    return m

"""The benchmark's tracer wraps library names from outside; keep them resolvable."""

import ast
import importlib.util
import inspect
from pathlib import Path

from mksvdd import mkl
from mksvdd.data import gen_2d_target
from mksvdd.kernels import KernelDictionary, KernelSpec
from mksvdd.mkl import MklConfig, fit_mkl

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracing = load_tracing()
    for name, owner, attr, _ in tracing.traced_functions():
        assert name.split(".")[0] in tracing.LAYERS
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_every_stop_message_has_a_reason():
    tree = ast.parse(inspect.getsource(mkl.fit_mkl))
    messages = {
        node.value.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Attribute) and t.attr == "message" for t in node.targets)
    }
    assert len(messages) == 4
    assert messages <= set(load_tracing().STOP_REASONS)


def test_probes_are_direct_solves_of_the_fit():
    tracing = load_tracing()
    X = gen_2d_target(3, 2, 30)
    dictionary = KernelDictionary.from_data([KernelSpec.rbf(s) for s in (0.1, 1.0, 10.0)], X)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, trace = mkl.fit_mkl(dictionary, MklConfig(C=0.1, lam=0.1), "svdd")
    finally:
        tracer.close()
    assert mkl.fit_mkl is fit_mkl  # every name put back
    spans = tracer.spans
    (fit,) = [i for i, s in enumerate(spans) if s[0] == "mkl.fit"]
    assert spans[fit][5]["stop"] == tracing.STOP_REASONS[trace.message]
    solves = [s for s in spans if s[0] == "qp.solve"]
    direct = [s for s in solves if s[3] == fit]
    # one solve at the start and at least one probe per accepted step, all
    # made by the loop itself: the model is its last solve, not a refit
    assert len(direct) >= len(trace.steps)
    assert len(direct) == len(solves)
    assert not [s for s in spans if s[0] == "models.fit"]
    counts = tracing.op_counts(spans)[0]
    assert counts["mkl.ls_probes"] == len(direct) - 1
    assert counts["qp.pair_updates"] == sum(s[5]["iterations"] for s in solves)

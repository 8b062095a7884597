"""The benchmark splits CLI calls into ops at each workload's boundary
function; keep those functions where the workloads look for them."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from mksvdd import evaluation
from mksvdd.data import SampleMatrix
from mksvdd.evaluation import grid_search
from mksvdd.kernels import KernelSpec

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def workloads(monkeypatch):
    # workloads.py imports bench/oracles.py as "oracles", the name of the
    # tests' own oracles module; monkeypatch puts that one back afterwards
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "oracles", raising=False)
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_every_boundary_resolves(workloads):
    bounded = 0
    for cls in workloads.WORKLOADS.values():
        boundary = cls().boundary
        if boundary is None:
            continue
        kind, owner, attr = boundary
        assert kind in ("enter", "exit")
        assert callable(getattr(owner, attr, None)), f"{cls.name}: {attr}"
        bounded += 1
    assert bounded == 2


def test_grid_cells_enter_fit_method_once_each(workloads, monkeypatch):
    kind, owner, attr = workloads.GridSlim().boundary
    assert (owner, attr) == (evaluation, "fit_method")
    original = getattr(owner, attr)
    entered = []

    def counting(*args, **kwargs):
        entered.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counting)
    rng = np.random.default_rng(0)
    features = np.vstack([0.2 * rng.standard_normal((30, 2)), rng.uniform(-2, 2, (4, 2))])
    matrix = SampleMatrix(features, np.array([1] * 30 + [-1] * 4))
    result = grid_search(
        matrix,
        [KernelSpec.rbf(0.5), KernelSpec.rbf(5.0)],
        ["slim-mk-svdd", "svdd"],
        [0.1, 0.2],
        [0.0, 0.1],
        mkl_options={"gap_tol": 1e-3},
    )
    # slim: 2 C x 2 lambda; svdd: 2 kernels x 2 C
    assert len(result.table) == 8
    assert len(entered) == len(result.table)

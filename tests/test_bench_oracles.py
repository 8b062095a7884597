"""The benchmark checks model.json and scores.csv with its own oracles; keep
the files the CLI writes readable by them."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from mksvdd.cli import main

ORACLES = Path(__file__).resolve().parent.parent / "bench" / "oracles.py"
RBF = [0.1, 1.0, 10.0]


def load_oracles():
    spec = importlib.util.spec_from_file_location("bench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_labeled_csv(path, features, labels):
    lines = ["label,x1,x2"]
    lines += [f"{int(l)},{float(a)!r},{float(b)!r}" for (a, b), l in zip(features, labels)]
    path.write_text("\n".join(lines) + "\n")


def test_slim_model_and_scores_pass_the_oracles(tmp_path):
    oracles = load_oracles()
    rng = np.random.default_rng(11)
    train = 0.2 * rng.standard_normal((80, 2))
    write_labeled_csv(tmp_path / "train.csv", train, np.ones(80))
    test = np.vstack([0.2 * rng.standard_normal((40, 2)), rng.uniform(-2, 2, (10, 2))])
    labels = np.array([1] * 40 + [-1] * 10)
    write_labeled_csv(tmp_path / "test.csv", test, labels)
    (tmp_path / "fit-config.json").write_text(json.dumps({
        "method": "slim-mk-svdd",
        "dataset": {"kind": "csv", "path": str(tmp_path / "train.csv"), "label_column": "label"},
        "kernels": {"rbf": RBF},
        "C": 0.05,
        "lambda": 0.01,
    }))
    assert main(["fit", "--config", str(tmp_path / "fit-config.json"), "--out-dir", str(tmp_path)]) == 0
    assert main(["eval", "--model", str(tmp_path / "model.json"), "--data", str(tmp_path / "test.csv"),
                 "--label-column", "label", "--out-dir", str(tmp_path / "eval")]) == 0

    raw = oracles.load_json(tmp_path / "model.json")
    assert oracles.model_problems(raw, len(RBF)) == []
    read_train, _ = oracles.read_labeled_csv(tmp_path / "train.csv")
    _, rows = oracles.read_cli_csv(tmp_path / "eval" / "scores.csv")
    table = np.array(rows[1:], dtype=float)
    np.testing.assert_array_equal(table[:, 2], labels)
    expected = oracles.rbf_scores(raw, read_train, test)
    np.testing.assert_allclose(table[:, 1], expected, atol=1e-9, rtol=0)

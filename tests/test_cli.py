import json

import numpy as np
import pytest

from mksvdd import __version__, cli, kernels
from mksvdd.cli import _config_hash, main
from mksvdd.data import gen_2d_target, load_csv
from mksvdd.evaluation import auc, precision_recall
from mksvdd.kernels import (
    KernelDictionary, KernelSpec, gram, load_manifest, load_matrix, save_matrix, write_manifest,
)
from mksvdd.mkl import fit_method
from mksvdd.models import fit_one_class, model_to_dict, score_ids


def write_outlier_csv(path, seed=0, n_in=40, n_out=6):
    rng = np.random.default_rng(seed)
    inliers = rng.standard_normal((n_in, 2)) * 0.25
    outliers = rng.uniform(-3.0, 3.0, size=(n_out, 2))
    lines = ["x1,x2,label"]
    for row in inliers:
        lines.append(f"{float(row[0])!r},{float(row[1])!r},1")
    for row in outliers:
        lines.append(f"{float(row[0])!r},{float(row[1])!r},-1")
    path.write_text("\n".join(lines) + "\n")
    return path


def fit_config(tmp_path, **overrides):
    config = {
        "dataset": {"kind": "gen2d", "seed": 1, "n_areas": 2, "n_points": 40},
        "kernels": {"rbf": [0.5, 5.0]},
        "method": "mk-svdd",
        "C": 0.15,
        "lambda": 0.0,
        "mkl": {"gap_tol": 1e-4},
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def read_rows(path):
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        cells = line.split(",")
        if header is None:
            header = cells
            continue
        rows.append(dict(zip(header, cells)))
    return rows


class TestGen2d:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "points.csv"
        assert main(["gen2d", "--seed", "3", "--n-areas", "2",
                     "--n-points", "25", "--out", str(out)]) == 0
        m = load_csv(out, label_column="label")
        assert m.n_examples == 25
        assert (m.labels == 1).all()

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["gen2d", "--seed", "7", "--n-points", "30", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()


class TestFit:
    def test_produces_loadable_model(self, tmp_path):
        cfg = fit_config(tmp_path)
        out = tmp_path / "run"
        assert main(["fit", "--config", str(cfg), "--out-dir", str(out)]) == 0
        payload = json.loads((out / "model.json").read_text())
        assert payload["method"] == "mk-svdd"
        assert len(payload["model"]["weights"]) == 2
        assert (out / "trace.csv").exists()

    def test_refit_byte_identical(self, tmp_path):
        cfg = fit_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["fit", "--config", str(cfg), "--out-dir", str(out1)])
        main(["fit", "--config", str(cfg), "--out-dir", str(out2)])
        assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    def test_slim_lambda_zero_differs_only_in_method_tag(self, tmp_path):
        out_mk = tmp_path / "mk"
        out_slim = tmp_path / "slim"
        main(["fit", "--config", str(fit_config(tmp_path, method="mk-svdd")),
              "--out-dir", str(out_mk)])
        main(["fit", "--config", str(fit_config(tmp_path, method="slim-mk-svdd")),
              "--out-dir", str(out_slim)])
        a = json.loads((out_mk / "model.json").read_text())
        b = json.loads((out_slim / "model.json").read_text())
        assert a.pop("method") == "mk-svdd"
        assert b.pop("method") == "slim-mk-svdd"
        assert a == b

    @pytest.mark.parametrize("method", ["svdd", "ocsvm", "mk-svdd", "mk-ocsvm",
                                        "slim-mk-svdd", "slim-mk-ocsvm"])
    def test_model_lambda_is_the_fitted_one(self, tmp_path, method):
        # non-slim methods fit with lambda = 0 whatever the config says
        kernels = {"rbf": [1.0]} if method in ("svdd", "ocsvm") else {"rbf": [0.5, 5.0]}
        cfg = fit_config(tmp_path, method=method, kernels=kernels, **{"lambda": 0.1})
        out = tmp_path / "run"
        assert main(["fit", "--config", str(cfg), "--out-dir", str(out)]) == 0
        stored = json.loads((out / "model.json").read_text())["lambda"]
        assert stored == (0.1 if method.startswith("slim") else 0.0)

    def test_fit_json_reports_the_stop(self, tmp_path):
        cfg = fit_config(tmp_path, method="slim-mk-svdd", **{"lambda": 0.1})
        out = tmp_path / "run"
        assert main(["fit", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["fit.json", "model.json", "trace.csv"]
        stats = json.loads((out / "fit.json").read_text())
        assert set(stats) == {
            "converged", "message", "outer_iterations", "line_search_probes",
            "solves", "memo_hits", "pair_updates", "finishes", "finish_systems",
            "max_kkt_violation", "gram_rows",
        }
        assert stats["outer_iterations"] == len(read_rows(out / "trace.csv"))
        # a fresh dictionary: every solve ran, the cold one and at least a probe
        assert stats["solves"] >= 2 and stats["pair_updates"] > 0
        # every accepted step took at least one probe
        assert stats["line_search_probes"] >= stats["outer_iterations"] - 1 > 0
        assert stats["converged"] == stats["message"].startswith(("duality gap", "stationary"))
        # every solve met the inner tolerance, and a fit reads few of its rows
        assert 0 <= stats["finishes"] <= stats["solves"]
        assert stats["finish_systems"] >= stats["finishes"]
        assert stats["max_kkt_violation"] < 1e-6
        assert 0 < stats["gram_rows"] <= 40

    def test_fit_json_never_overwrites_the_config(self, tmp_path, monkeypatch):
        # no file the fit writes may be its config: it exits 2 before fitting;
        # every method writes model.json, trace.csv and fit.json
        monkeypatch.setattr(cli, "fit_method", lambda *a, **k: pytest.fail("fitted"))
        for method, kernels in (("mk-svdd", [0.5, 5.0]), ("svdd", [1.0])):
            for name in ("fit.json", "trace.csv", "model.json"):
                out = tmp_path / method / name.replace(".", "_")
                out.mkdir(parents=True)
                cfg = fit_config(out, method=method, kernels={"rbf": kernels}).rename(out / name)
                before = cfg.read_bytes()
                assert main(["fit", "--config", str(cfg), "--out-dir", str(out)]) == 2, name
                assert cfg.read_bytes() == before
                assert [p.name for p in out.iterdir()] == [name]

    @pytest.mark.parametrize("method", ["svdd", "ocsvm"])
    def test_single_kernel_method_writes_its_trace(self, tmp_path, method):
        # a one-kernel fit stops at its first gap test, which is exactly 0,
        # with its cold solve: the model of fit_one_class
        cfg = fit_config(tmp_path, method=method, kernels={"rbf": [1.0]})
        out = tmp_path / "sk"
        assert main(["fit", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["fit.json", "model.json", "trace.csv"]
        dictionary = KernelDictionary.from_data([KernelSpec.rbf(1.0)], gen_2d_target(1, 2, 40))
        direct = fit_one_class(method, dictionary, [1.0], 0.15)
        assert json.loads((out / "fit.json").read_text()) == {
            "converged": True,
            "message": "duality gap within tolerance",
            "outer_iterations": 1,
            "line_search_probes": 0,
            "solves": 1,
            "memo_hits": 0,
            "pair_updates": direct.alpha.iterations,
            "finishes": int(direct.alpha.finished),
            "finish_systems": direct.alpha.finish_systems,
            "max_kkt_violation": direct.alpha.violation,
            "gram_rows": direct.dictionary.rows_computed,
        }
        [step] = read_rows(out / "trace.csv")
        assert (step["iteration"], step["gap"], step["step_size"], step["d0"]) == ("1", "0.0", "0.0", "1.0")
        stored = json.loads(json.dumps(model_to_dict(direct)))
        assert json.loads((out / "model.json").read_text())["model"] == stored

    def test_bad_config_exit_code(self, tmp_path):
        assert main(["fit", "--config", str(tmp_path / "missing.json"),
                     "--out-dir", str(tmp_path)]) == 2
        cfg = fit_config(tmp_path, method="banana")
        assert main(["fit", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2


    @pytest.mark.parametrize("overrides, message", [
        ({"mkl": {"gap_tol": "1e-3"}}, "gap_tol must be"),
        ({"mkl": {"max_outer_iters": 2.5}}, "max_outer_iters must be"),
        ({"mkl": {"ls_shrink": 0.5}}, "unknown mkl options"),
        ({"mkl": [1]}, "mkl must be a JSON object"),
        ({"method": "slim-mk-svdd", "lambda": float("nan")}, "lambda must be"),
        ({"C": float("nan")}, "C must be"),
        ({"method": "svdd", "kernels": {"rbf": [1.0]}, "C": float("inf")}, "C must be"),
        # ids kept from before the messages named the entry
        pytest.param({"kernels": {"rbf": [0.5], "poly": [2.5]}},
                     "kernels.poly[0] must be an integer >= 1",
                     id="overrides7-integer degree >= 1"),
        pytest.param({"kernels": {"rbf": [0.5, float("nan")]}},
                     "kernels.rbf[1] must be a finite number",
                     id="overrides8-strictly positive bandwidth"),
        # MklConfig is the one check of C and lambda: a bool is no number
        ({"C": True}, "C must be"),
        ({"method": "svdd", "kernels": {"rbf": [1.0]}, "C": True}, "C must be"),
        ({"method": "slim-mk-svdd", "lambda": True}, "lambda must be"),
        ({"split": {"mode": "supervised", "train_count": 10.5}}, "train_count must be an integer"),
        ({"split": {"mode": "supervised", "train_count": True}}, "train_count must be an integer"),
        ({"split": {"mode": "supervised", "train_fraction": "0.5"}}, "train_fraction must be"),
        ({"split": {"mode": "supervised", "train_count": 10, "validation_count": 2.5}},
         "validation_count must be an integer"),
    ])
    def test_bad_value_exits_2_without_model(self, tmp_path, capsys, overrides, message):
        cfg = fit_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "model.json").exists()

    def test_unknown_key_exits_2_naming_file_and_key(self, tmp_path, capsys, monkeypatch):
        # a misspelt "lambda" would otherwise fit silently at lambda = 0
        monkeypatch.setattr(cli, "fit_method", lambda *a, **k: pytest.fail("fitted"))
        cfg = fit_config(tmp_path, method="slim-mk-svdd", lamda=0.5)
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert f"config file {cfg}: unknown key 'lamda'" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("overrides, key", [
        ({"dataset": {"kind": "gen2d", "seed": 1.9, "n_points": 40}}, "dataset.seed"),
        ({"dataset": {"kind": "gen2d", "n_areas": 1.5, "n_points": 40}}, "dataset.n_areas"),
        ({"dataset": {"kind": "gen2d", "seed": 1, "n_points": 40.7}}, "dataset.n_points"),
        # a numeric string is no integer, as for train_count
        ({"dataset": {"kind": "gen2d", "seed": 1, "n_points": "40"}}, "dataset.n_points"),
        ({"split": {"mode": "unsupervised", "seed": 1.5}}, "split.seed"),
    ])
    def test_fractional_count_exits_2_naming_the_key(self, tmp_path, capsys, overrides, key):
        # such a count was truncated: n_points 40.7 fitted 40 points at seed 1
        cfg = fit_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert f"{key} must be an integer" in capsys.readouterr().err
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize("kernels, message", [
        ({"rbf": 3}, "kernels.rbf must be a JSON list"),
        ({"rbf": [0.5], "poly": 2}, "kernels.poly must be a JSON list"),
        # ids kept from before the messages named the entry
        pytest.param({"rbf": [0.5, True]}, "kernels.rbf[1] must be a finite number, got True",
                     id="kernels2-kernels.rbf entries must be strictly positive bandwidths"),
        pytest.param({"rbf": ["0.5"]}, "kernels.rbf[0] must be a finite number, got '0.5'",
                     id="kernels3-kernels.rbf entries must be strictly positive bandwidths"),
    ])
    def test_kernel_lists_hold_numbers(self, tmp_path, capsys, kernels, message):
        # a bare number crashed in a TypeError, and true or "0.5" went
        # through float() as a bandwidth
        cfg = fit_config(tmp_path, kernels=kernels)
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize("config, message", [
        ([1], "must be a JSON object, got [1]"),
        ({"dataset": [1]}, "dataset must be a JSON object"),
        ({"split": [1]}, "split must be a JSON object"),
        ({"kernels": [1.0]}, "kernels must be a JSON object"),
        ({"mkl": 5}, "mkl must be a JSON object"),
    ])
    def test_sections_must_be_objects(self, tmp_path, capsys, config, message):
        # each crashed in an AttributeError or TypeError (exit 1)
        cfg = tmp_path / "config.json"
        if isinstance(config, dict):
            cfg = fit_config(tmp_path, **config)
        else:
            cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize("command, overrides, message", [
        ("fit", {"dataset": {"kind": "gen2d", "seed": 1, "n_area": 3}},
         "unknown key 'n_area' in dataset"),
        ("fit", {"dataset": {"kind": "csv", "path": "d.csv", "labels": "y"}},
         "unknown key 'labels' in dataset"),
        ("fit", {"split": {"mode": "unsupervised", "splt": 1}}, "unknown key 'splt' in split"),
        ("fit", {"kernels": {"rbf": [1.0], "rbff": [3]}}, "unknown key 'rbff' in kernels"),
        ("experiment", {"grids": {"C": [0.1], "lamda": [0.1]}}, "unknown key 'lamda' in grids"),
    ])
    def test_unknown_section_key_exits_2_naming_it(
        self, tmp_path, capsys, monkeypatch, command, overrides, message
    ):
        # each one ran with the key's default: one area, one kernel, an
        # unsupervised split, lambda 0
        monkeypatch.setattr(cli, "fit_method", lambda *a, **k: pytest.fail("fitted"))
        monkeypatch.setattr(cli, "grid_search", lambda *a, **k: pytest.fail("searched"))
        cfg = fit_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert f"error: config file {cfg}: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"dataset": {"kind": "csv"}}, "config file {} lacks the key 'path' in dataset"),
        ({"dataset": {"kind": "csv", "path": 5}},
         "config file {}: dataset.path must be a string, got 5"),
        ({"dataset": {"kind": "csv", "path": "d.csv", "label_column": [2]}},
         "config file {}: dataset.label_column must be a string or an integer, got [2]"),
        ({"kernels": {"manifest": 5}}, "config file {}: kernels.manifest must be a string, got 5"),
    ])
    def test_wrong_form_exits_2_naming_the_key(self, tmp_path, capsys, overrides, message):
        # each ended in a KeyError or TypeError traceback (exit 1)
        cfg = fit_config(tmp_path, **overrides)
        assert main(["fit", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
        assert message.format(cfg) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_null_section_means_absent(self, tmp_path):
        cfg = fit_config(tmp_path, split=None, mkl=None)
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert (out / "model.json").exists()

    def test_standardize_must_be_a_boolean(self, tmp_path, capsys):
        # "false" is truthy, so bool() standardized the data
        data = write_outlier_csv(tmp_path / "data.csv")
        dataset = {"kind": "csv", "path": str(data), "label_column": "label"}
        out = tmp_path / "out"
        cfg = fit_config(tmp_path, dataset={**dataset, "standardize": "false"})
        assert main(["fit", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert "dataset.standardize must be true or false" in capsys.readouterr().err
        assert not (out / "model.json").exists()
        cfg = fit_config(tmp_path, dataset={**dataset, "standardize": True})
        assert main(["fit", "--config", str(cfg), "--out-dir", str(out)]) == 0

    def test_integral_numbers_write_the_same_model(self, tmp_path):
        # C = 1 is the float 1.0 in model.json, and a train_count of 10.0
        # is the count 10
        written = []
        for name, overrides in (
            ("floats", {"C": 1.0, "split": {"mode": "supervised", "train_count": 10}}),
            ("ints", {"C": 1, "split": {"mode": "supervised", "train_count": 10.0}}),
        ):
            out = tmp_path / name
            cfg = fit_config(tmp_path, **overrides)
            assert main(["fit", "--config", str(cfg), "--out-dir", str(out)]) == 0
            written.append((out / "model.json").read_bytes())
        assert written[0] == written[1]
        assert json.loads(written[0])["model"]["C"] == 1.0 and b'"C": 1.0' in written[0]


class TestEval:
    def fit_and_eval(self, tmp_path, method="svdd", C=0.1):
        data = write_outlier_csv(tmp_path / "data.csv")
        cfg = fit_config(
            tmp_path,
            method=method,
            C=C,
            kernels={"rbf": [0.5]},
            dataset={"kind": "csv", "path": str(data), "label_column": "label"},
        )
        fit_dir = tmp_path / "fit"
        assert main(["fit", "--config", str(cfg), "--out-dir", str(fit_dir)]) == 0
        eval_dir = tmp_path / "eval"
        assert main([
            "eval", "--model", str(fit_dir / "model.json"),
            "--data", str(data), "--label-column", "label",
            "--out-dir", str(eval_dir),
        ]) == 0
        return fit_dir, eval_dir, data

    def test_train_on_self_flags_bounded_svs(self, tmp_path):
        fit_dir, eval_dir, data = self.fit_and_eval(tmp_path)
        payload = json.loads((fit_dir / "model.json").read_text())
        C = payload["model"]["C"]
        alpha = dict(
            zip(payload["model"]["alpha"]["indices"], payload["model"]["alpha"]["values"])
        )
        bounded = {i for i, a in alpha.items() if a >= C - 1e-7 * max(1.0, C)}
        rows = read_rows(eval_dir / "scores.csv")
        flagged = {int(r["id"]) for r in rows if float(r["outlier_score"]) > 1e-5}
        assert flagged == bounded

    def test_pr_rows_equal_distinct_scores_plus_one(self, tmp_path):
        _, eval_dir, _ = self.fit_and_eval(tmp_path)
        scores = [float(r["outlier_score"]) for r in read_rows(eval_dir / "scores.csv")]
        report_rows = read_rows(eval_dir / "report.csv")
        assert len(report_rows) == len(set(scores)) + 1

    def test_single_class_labels_skip_report(self, tmp_path):
        # scoring the training class itself: AUC is undefined, scores
        # must still be written and the command must succeed
        out = tmp_path / "target.csv"
        main(["gen2d", "--seed", "9", "--n-points", "30", "--out", str(out)])
        cfg = fit_config(
            tmp_path,
            method="svdd",
            kernels={"rbf": [0.5]},
            dataset={"kind": "csv", "path": str(out), "label_column": "label"},
        )
        fit_dir = tmp_path / "fit"
        assert main(["fit", "--config", str(cfg), "--out-dir", str(fit_dir)]) == 0
        eval_dir = tmp_path / "ev"
        assert main(["eval", "--model", str(fit_dir / "model.json"),
                     "--data", str(out), "--label-column", "label",
                     "--out-dir", str(eval_dir)]) == 0
        assert (eval_dir / "scores.csv").exists()
        assert not (eval_dir / "report.csv").exists()

    def test_matches_library_evaluation(self, tmp_path):
        _, eval_dir, data = self.fit_and_eval(tmp_path)
        from mksvdd.evaluation import auc as auc_metric

        rows = read_rows(eval_dir / "scores.csv")
        scores = np.array([float(r["outlier_score"]) for r in rows])
        labels = np.array([int(r["label"]) for r in rows])
        reported = None
        for line in (eval_dir / "report.csv").read_text().splitlines():
            if line.startswith("# auc "):
                reported = float(line.split()[-1])
        assert reported == pytest.approx(auc_metric(scores, labels), abs=1e-12)


class TestEvalFromSupport:
    """eval scores from the support rows stored in model.json alone."""

    def fit(self, tmp_path, method="slim-mk-svdd"):
        data = write_outlier_csv(tmp_path / "train.csv")
        cfg = fit_config(
            tmp_path,
            method=method,
            **{"lambda": 0.01},
            kernels={"rbf": [0.5, 5.0]},
            dataset={"kind": "csv", "path": str(data), "label_column": "label"},
        )
        fit_dir = tmp_path / "fit"
        assert main(["fit", "--config", str(cfg), "--out-dir", str(fit_dir)]) == 0
        return data, fit_dir / "model.json"

    def eval(self, model, data, out):
        return main(["eval", "--model", str(model), "--data", str(data),
                     "--label-column", "label", "--out-dir", str(out)])

    def test_eval_without_the_training_csv(self, tmp_path):
        data, model = self.fit(tmp_path)
        test = write_outlier_csv(tmp_path / "test.csv", seed=4, n_in=30, n_out=10)
        assert self.eval(model, test, tmp_path / "before") == 0
        data.unlink()
        assert self.eval(model, test, tmp_path / "after") == 0
        for name in ("scores.csv", "report.csv"):
            assert (tmp_path / "before" / name).read_bytes() == (tmp_path / "after" / name).read_bytes()

    def test_model_without_support_rows_asks_for_refit(self, tmp_path, capsys):
        data, model = self.fit(tmp_path)
        payload = json.loads(model.read_text())
        del payload["model"]["support_features"]
        model.write_text(json.dumps(payload))
        assert self.eval(model, data, tmp_path / "ev") == 2
        assert "refit" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    def test_non_finite_weights_rejected(self, tmp_path, capsys):
        data, model = self.fit(tmp_path)
        payload = json.loads(model.read_text())
        payload["model"]["weights"] = [float("nan")] * len(payload["model"]["weights"])
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        assert self.eval(model, data, tmp_path / "ev") == 2
        err = capsys.readouterr().err
        assert f"model file {model}: model.weights[0] must be a finite number" in err
        assert not (tmp_path / "ev" / "scores.csv").exists()

    def test_feature_model_needs_data(self, tmp_path, capsys):
        _, model = self.fit(tmp_path)
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--out-dir", str(tmp_path / "ev")]) == 2
        assert "--data" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("key", ["kernels", "method"])
    def test_missing_key_names_key_and_file(self, tmp_path, capsys, key):
        data, model = self.fit(tmp_path)
        payload = json.loads(model.read_text())
        del (payload["model"] if key == "kernels" else payload)[key]
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        assert self.eval(model, data, tmp_path / "ev") == 2
        err = capsys.readouterr().err
        assert repr(key) in err and str(model) in err
        assert not (tmp_path / "ev").exists()

    def test_non_object_names_the_file(self, tmp_path, capsys):
        data, model = self.fit(tmp_path)
        payload = json.loads(model.read_text())
        for bad in ([payload], {**payload, "model": [payload["model"]]},
                    {**payload, "model": "slim-mk-svdd"}):
            model.write_text(json.dumps(bad))
            capsys.readouterr()
            assert self.eval(model, data, tmp_path / "ev") == 2
            err = capsys.readouterr().err
            assert "must be a JSON object" in err and str(model) in err, bad
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("key, value, named", [
        ("kernels", [1], "kernels"),
        ("kernels", 5, "kernels"),
        ("kernels", [{"kind": "rbf", "bandwidth": "0.5"}], "bandwidth"),
        ("alpha", [1], "alpha"),
        ("alpha", {"indices": [0], "values": [{}], "length": 1}, "alpha.values"),
        ("support_features", 3, "support_features"),
        ("support_features", [[{}]], "support_features"),
        ("threshold", None, "threshold"),
        ("self_term", "0.5", "self_term"),
        ("weights", {"d0": 1.0}, "weights"),
        ("kind", ["svdd"], "kind"),
    ])
    def test_wrong_type_names_key_and_file(self, tmp_path, capsys, key, value, named):
        # each ended in a TypeError traceback (exit 1)
        data, model = self.fit(tmp_path)
        payload = json.loads(model.read_text())
        payload["model"][key] = value
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        assert self.eval(model, data, tmp_path / "ev") == 2
        err = capsys.readouterr().err
        assert f"error: model file {model}: " in err
        assert named in err.split(str(model))[1]
        assert not (tmp_path / "ev").exists()

    def test_field_of_another_kind_names_the_key(self, tmp_path, capsys):
        # an rbf kernel holding a degree loaded and scored with exit 0
        data, model = self.fit(tmp_path)
        payload = json.loads(model.read_text())
        payload["model"]["kernels"][0]["degree"] = "abc"
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        assert self.eval(model, data, tmp_path / "ev") == 2
        err = capsys.readouterr().err
        assert f"error: model file {model}: " in err and "degree" in err
        assert not (tmp_path / "ev" / "scores.csv").exists()

    @pytest.mark.parametrize("section", [None, "model", "alpha", "kernels"])
    def test_unknown_key_names_the_file_and_section(self, tmp_path, capsys, section):
        data, model = self.fit(tmp_path)
        payload = json.loads(model.read_text())
        place = {None: payload, "model": payload["model"], "alpha": payload["model"]["alpha"],
                 "kernels": payload["model"]["kernels"][0]}[section]
        place["extra"] = 1
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        assert self.eval(model, data, tmp_path / "ev") == 2
        where = {None: "", "model": " in model", "alpha": " in model.alpha",
                 "kernels": " in model.kernels[0]"}[section]
        assert f"error: model file {model}: unknown key 'extra'{where}\n" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    def test_data_hash_unchanged(self, tmp_path):
        data, model = self.fit(tmp_path)
        assert self.eval(model, data, tmp_path / "ev") == 0
        first = (tmp_path / "ev" / "scores.csv").read_text().splitlines()[0]
        config = {"command": "eval", "model": "slim-mk-svdd", "data": str(data)}
        assert first.endswith(f"config {_config_hash(config)}")



def per_cell_csv_text(header, rows, config_hash):
    """A CLI CSV rendered value by value: floats by repr, None as empty."""
    def cell(value):
        if isinstance(value, float):
            return repr(value)
        return "" if value is None else str(value)

    lines = [f"# mksvdd {__version__} config {config_hash}", ",".join(header)]
    lines += [",".join(cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def per_cell_eval_files(ids, scores, labels, config_hash):
    """scores.csv and report.csv text of eval, rendered value by value."""
    header = ["id", "outlier_score"] + (["label"] if labels is not None else [])
    rows = [
        (int(i), float(s)) + (() if labels is None else (int(labels[k]),))
        for k, (i, s) in enumerate(zip(ids, scores))
    ]
    files = {"scores.csv": per_cell_csv_text(header, rows, config_hash)}
    if labels is not None:
        curve = [tuple(map(float, r)) for r in precision_recall(scores, labels)]
        text = per_cell_csv_text(["recall", "precision"], curve, config_hash)
        value = auc(scores, labels)
        files["report.csv"] = text.replace("\n", f"\n# auc {value!r}\n", 1)
    return files


class TestEvalBytes:
    """eval formats whole columns; every byte must be that of the
    value-by-value rendering."""

    ADVERSARIAL = [
        -0.0, 5e-324, 1e16, 0.1 + 0.2, 0.3, 0.3, -1.5, 1e-300,
        123456789.123, 2.5, 2.5, 0.0, 1 / 3, -7e22, 1.0000000000000002, 0.3,
    ]

    def test_adversarial_scores(self, tmp_path, monkeypatch):
        data, model = TestEvalFromSupport().fit(tmp_path)
        test = write_outlier_csv(tmp_path / "test.csv", seed=5, n_in=10, n_out=6)
        scores = np.array(self.ADVERSARIAL)

        def fake_score(model, features):
            assert features.shape == (len(scores), 2)
            return scores.copy()

        monkeypatch.setattr(cli, "score", fake_score)
        out = tmp_path / "ev"
        assert TestEvalFromSupport().eval(model, test, out) == 0
        labels = load_csv(test, label_column="label").labels
        assert labels.dtype == np.int64
        chash = _config_hash({"command": "eval", "model": "slim-mk-svdd", "data": str(test)})
        expected = per_cell_eval_files(np.arange(len(scores)), scores, labels, chash)
        for name, text in expected.items():
            assert (out / name).read_text() == text
        assert "-0.0," in (out / "scores.csv").read_text()

    def test_precomputed_subset_writes_two_columns(self, tmp_path, monkeypatch):
        _, manifest, model = TestEvalPrecomputed().fit(tmp_path)
        seen = []
        real_score = cli.score
        monkeypatch.setattr(cli, "score", lambda m, x: seen.append(real_score(m, x)) or seen[-1])
        out = tmp_path / "ev"
        assert TestEvalPrecomputed().eval(model, manifest, out, "3,0,7") == 0
        assert not (out / "report.csv").exists()
        lines = (out / "scores.csv").read_text().splitlines()
        assert lines[1] == "id,outlier_score"
        assert [line.split(",")[0] for line in lines[2:]] == ["3", "0", "7"]
        assert all(len(line.split(",")) == 2 for line in lines[2:])
        chash = _config_hash({
            "command": "eval", "model": "mk-svdd", "data": "None",
            "manifest": str(manifest), "test_ids": "3,0,7",
        })
        expected = per_cell_eval_files(np.array([3, 0, 7]), seen[0], None, chash)
        assert (out / "scores.csv").read_text() == expected["scores.csv"]


class TestLabelColumnByIndex:
    """--label-column names a header column, or else is a 0-based index."""

    def files(self, tmp_path):
        named = write_outlier_csv(tmp_path / "named.csv", seed=6, n_in=12, n_out=4)
        lines = named.read_text().splitlines()[1:]
        bare = tmp_path / "bare.csv"
        bare.write_text("".join(
            ",".join([c[2]] + c[:2]) + "\n" for c in (line.split(",") for line in lines)
        ))
        zero = tmp_path / "zero.csv"
        zero.write_text("\n".join(["x1,x2,0"] + lines) + "\n")
        return named, bare, zero

    def test_eval(self, tmp_path):
        named, bare, zero = self.files(tmp_path)
        _, model = TestEvalFromSupport().fit(tmp_path)
        bodies = []
        for data, column in ((named, "label"), (bare, "0"), (zero, "0")):
            out = tmp_path / f"ev-{data.stem}"
            assert main(["eval", "--model", str(model), "--data", str(data),
                         "--label-column", column, "--out-dir", str(out)]) == 0
            bodies.append([(out / f).read_text().splitlines()[1:]
                           for f in ("scores.csv", "report.csv")])
        assert bodies[0][0][0] == "id,outlier_score,label"
        assert bodies[1] == bodies[0] and bodies[2] == bodies[0]

    def test_gram(self, tmp_path):
        named, bare, zero = self.files(tmp_path)
        grams = []
        for data, column in ((named, "label"), (bare, "0"), (zero, "0")):
            out = tmp_path / f"grams-{data.stem}"
            assert main(["gram", "--data", str(data), "--label-column", column,
                         "--rbf", "0.5", "--out-dir", str(out)]) == 0
            grams.append(load_manifest(out / "manifest.json")["rbf_0.5"])
        assert grams[0].shape == (16, 16)
        for other in grams[1:]:
            assert other.tobytes() == grams[0].tobytes()

    def test_unknown_name_still_rejected(self, tmp_path, capsys):
        named, _, _ = self.files(tmp_path)
        assert main(["gram", "--data", str(named), "--label-column", "y",
                     "--rbf", "0.5", "--out-dir", str(tmp_path / "g")]) == 2
        assert "no column named 'y'" in capsys.readouterr().err


class TestGramCommand:
    def test_manifest_equals_per_kernel_reference(self, tmp_path):
        # one dictionary build writes the bytes of one gram() per kernel
        data = write_outlier_csv(tmp_path / "data.csv", n_in=20, n_out=4)
        out = tmp_path / "grams"
        assert main(["gram", "--data", str(data), "--label-column", "label", "--rbf", "0.5",
                     "--rbf", "2", "--poly", "2", "--out-dir", str(out)]) == 0
        X = load_csv(data, label_column="label")
        entries = [
            {"id": matrix_id, "matrix": gram(spec, X).values, **spec.to_dict()}
            for matrix_id, spec in (("rbf_0.5", KernelSpec.rbf(0.5)),
                                    ("rbf_2", KernelSpec.rbf(2.0)),
                                    ("poly_2", KernelSpec.poly(2)))
        ]
        reference = tmp_path / "reference"
        write_manifest(reference, entries)
        names = sorted(f.name for f in reference.iterdir())
        assert names == ["manifest.json", "poly_2.txt", "rbf_0.5.txt", "rbf_2.txt"]
        assert sorted(f.name for f in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (reference / name).read_bytes(), name

    def test_two_kernels_with_one_id_rejected(self, tmp_path, capsys):
        # both bandwidths print as 0.123456: one file would hold both
        data = write_outlier_csv(tmp_path / "data.csv", n_in=10, n_out=2)
        out = tmp_path / "grams"
        assert main(["gram", "--data", str(data), "--label-column", "label", "--rbf",
                     "0.1234561", "--rbf", "0.1234562", "--out-dir", str(out)]) == 2
        assert "matrix id 'rbf_0.123456' is listed twice" in capsys.readouterr().err
        assert not out.exists()

    def test_ids_checked_before_any_gram_is_built(self, tmp_path, monkeypatch, capsys):
        # over 2,000 rows a build would take its time: the ids stop it first
        data = write_outlier_csv(tmp_path / "data.csv", n_in=1900, n_out=100)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return blocks(*args, **kwargs)

        blocks = kernels._blocks
        monkeypatch.setattr(kernels, "_blocks", counted)
        out = tmp_path / "grams"
        assert main(["gram", "--data", str(data), "--label-column", "label", "--rbf",
                     "0.1234561", "--rbf", "0.1234562", "--out-dir", str(out)]) == 2
        assert "matrix id 'rbf_0.123456' is listed twice" in capsys.readouterr().err
        assert calls == [] and not out.exists()


class TestEvalPrecomputed:
    def fit(self, tmp_path):
        data = write_outlier_csv(tmp_path / "data.csv", n_in=30, n_out=5)
        grams = tmp_path / "grams"
        assert main(["gram", "--data", str(data), "--label-column", "label",
                     "--rbf", "0.5", "--rbf", "5.0", "--out-dir", str(grams)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dataset": {"kind": "csv", "path": str(data), "label_column": "label"},
            "split": {"mode": "supervised", "train_count": 25, "seed": 3},
            "kernels": {"manifest": str(grams / "manifest.json")},
            "method": "mk-svdd",
            "C": 0.2,
        }))
        fit_dir = tmp_path / "fit"
        assert main(["fit", "--config", str(cfg), "--out-dir", str(fit_dir)]) == 0
        return data, grams / "manifest.json", fit_dir / "model.json"

    def eval(self, model, manifest, out, test_ids="all"):
        return main(["eval", "--model", str(model), "--manifest", str(manifest),
                     "--test-ids", test_ids, "--out-dir", str(out)])

    def test_support_ids_from_train_ids(self, tmp_path):
        # precomputed models keep the layout they had before support rows
        # were stored: support ids are train_ids[alpha.indices]
        data, manifest, model = self.fit(tmp_path)
        payload = json.loads(model.read_text())
        assert set(payload["model"]) == {
            "kind", "C", "threshold", "self_term", "objective", "weights",
            "alpha", "kernels", "train_ids",
        }
        data.unlink()
        assert self.eval(model, manifest, tmp_path / "ev") == 0
        got = np.array([float(r["outlier_score"]) for r in read_rows(tmp_path / "ev" / "scores.csv")])

        matrices = load_manifest(manifest)
        train_ids = np.asarray(payload["model"]["train_ids"])
        dictionary = KernelDictionary.from_matrices(matrices, train_ids=train_ids)
        fitted, _ = fit_method("mk-svdd", dictionary, 0.2)
        np.testing.assert_allclose(got, score_ids(fitted, np.arange(35)), atol=1e-12, rtol=0)

    def test_config_hash_names_manifest_and_test_ids(self, tmp_path):
        _, manifest, model = self.fit(tmp_path)
        copy = tmp_path / "copy"
        copy.mkdir()
        for f in manifest.parent.iterdir():
            (copy / f.name).write_bytes(f.read_bytes())

        def config_line(out, path=manifest, test_ids="all"):
            assert self.eval(model, path, tmp_path / out, test_ids) == 0
            return (tmp_path / out / "scores.csv").read_text().splitlines()[0]

        hashes = {
            config_line("a"),
            config_line("b", test_ids="0,1,2"),
            config_line("c", path=copy / "manifest.json"),
        }
        assert len(hashes) == 3
        assert config_line("d") == config_line("a")

    def test_out_of_range_test_ids_rejected(self, tmp_path, capsys):
        # the manifest covers ids 0..34; -1 must not wrap to the last example
        _, manifest, model = self.fit(tmp_path)
        capsys.readouterr()
        for test_ids in ("-1", "999", "0,35"):
            assert self.eval(model, manifest, tmp_path / "ev", test_ids) == 2
        err = capsys.readouterr().err
        assert err.count("error: example id") == 3 and "out of range" in err
        assert not (tmp_path / "ev").exists()

    def test_non_finite_manifest_rejected(self, tmp_path, capsys):
        _, manifest, _ = self.fit(tmp_path)
        matrix_file = manifest.parent / "rbf_0.5.txt"
        matrix = np.loadtxt(matrix_file)
        matrix[3, 7] = matrix[7, 3] = np.nan
        np.savetxt(matrix_file, matrix)
        cfg = tmp_path / "cfg.json"
        capsys.readouterr()
        assert main(["fit", "--config", str(cfg), "--out-dir", str(tmp_path / "refit")]) == 2
        assert "'rbf_0.5' holds non-finite values" in capsys.readouterr().err
        assert not (tmp_path / "refit").exists()

    @pytest.mark.parametrize("manifest, key", [
        ({"x": []}, "matrices"),
        ({"matrices": [{"id": "rbf_0.5"}]}, "file"),
    ])
    def test_manifest_missing_key_names_key_and_file(self, tmp_path, capsys, manifest, key):
        _, path, _ = self.fit(tmp_path)
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        out = tmp_path / "refit"
        assert main(["fit", "--config", str(tmp_path / "cfg.json"), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"manifest {path} lacks the key {key!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("manifest, key", [
        ({"matrices": 5}, "matrices"),
        ({"matrices": {"rbf_0.5": "rbf_0.5.txt"}}, "matrices"),
        ({"matrices": [{"id": "rbf_0.5", "file": 3}]}, "file"),
        ({"matrices": [{"id": ["rbf_0.5"], "file": "rbf_0.5.txt"}]}, "id"),
    ])
    def test_manifest_wrong_type_names_key_and_file(self, tmp_path, capsys, manifest, key):
        # each ended in a TypeError traceback (exit 1)
        _, path, _ = self.fit(tmp_path)
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        out = tmp_path / "refit"
        assert main(["fit", "--config", str(tmp_path / "cfg.json"), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        place = "matrices" if key == "matrices" else f"matrices[0].{key}"
        assert err.startswith(f"error: manifest {path}: {place} must be ")
        assert not out.exists()

    def test_manifest_non_object_names_the_file(self, tmp_path, capsys):
        _, path, _ = self.fit(tmp_path)
        raw = json.loads(path.read_text())
        out = tmp_path / "refit"
        for bad, place in (([raw], ""),
                           ({"matrices": [raw["matrices"][0], ["rbf_5"]]}, ": matrices[1]"),
                           ({"matrices": ["rbf_0.5.txt"]}, ": matrices[0]")):
            path.write_text(json.dumps(bad))
            capsys.readouterr()
            assert main(["fit", "--config", str(tmp_path / "cfg.json"), "--out-dir", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"manifest {path}{place} must be a JSON object" in err, bad
        assert not out.exists()

    @pytest.mark.parametrize("entry", [False, True])
    def test_manifest_unknown_key_names_the_file_and_section(self, tmp_path, capsys, entry):
        # an unknown key was ignored, and the fit ran
        _, path, _ = self.fit(tmp_path)
        raw = json.loads(path.read_text())
        (raw["matrices"][0] if entry else raw)["extra"] = 1
        path.write_text(json.dumps(raw))
        capsys.readouterr()
        out = tmp_path / "refit"
        assert main(["fit", "--config", str(tmp_path / "cfg.json"), "--out-dir", str(out)]) == 2
        where = " in matrices[0]" if entry else ""
        assert f"error: manifest {path}: unknown key 'extra'{where}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_only_for_precomputed_models(self, tmp_path, capsys):
        data, manifest, model = self.fit(tmp_path)
        assert main(["eval", "--model", str(model), "--data", str(data),
                     "--out-dir", str(tmp_path / "ev")]) == 2
        cfg = fit_config(tmp_path, method="svdd", kernels={"rbf": [0.5]})
        assert main(["fit", "--config", str(cfg), "--out-dir", str(tmp_path / "feature")]) == 0
        assert self.eval(tmp_path / "feature" / "model.json", manifest, tmp_path / "ev") == 2
        assert capsys.readouterr().err.count("--manifest") == 2
        assert not (tmp_path / "ev").exists()


class TestExperiment:
    def experiment_config(self, tmp_path, data, **overrides):
        config = {
            "dataset": {"kind": "csv", "path": str(data), "label_column": "label"},
            "kernels": {"rbf": [0.5, 5.0]},
            "methods": ["mk-svdd"],
            "grids": {"C": [0.15]},
            "policy": "auc",
            "repetitions": 1,
            "mkl": {"gap_tol": 1e-4},
        }
        config.update(overrides)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config))
        return path

    def test_unknown_key_exits_2_naming_file_and_key(self, tmp_path, capsys, monkeypatch):
        # fit's keys and experiment's own are read; any other key is refused
        monkeypatch.setattr(cli, "grid_search", lambda *a, **k: pytest.fail("searched"))
        data = write_outlier_csv(tmp_path / "data.csv")
        cfg = self.experiment_config(tmp_path, data, repetition=2)
        out = tmp_path / "exp"
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert f"config file {cfg}: unknown key 'repetition'" in capsys.readouterr().err
        assert not out.exists()

    def test_single_repetition_matches_fit_eval(self, tmp_path):
        data = write_outlier_csv(tmp_path / "data.csv")
        cfg = self.experiment_config(tmp_path, data)
        out = tmp_path / "exp"
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out)]) == 0
        rows = read_rows(out / "results.csv")
        rep_rows = [r for r in rows if r["row"] == "rep"]
        assert len(rep_rows) == 1

        fit_cfg = fit_config(
            tmp_path,
            method="mk-svdd",
            C=0.15,
            kernels={"rbf": [0.5, 5.0]},
            dataset={"kind": "csv", "path": str(data), "label_column": "label"},
        )
        fit_dir, eval_dir = tmp_path / "f", tmp_path / "e"
        main(["fit", "--config", str(fit_cfg), "--out-dir", str(fit_dir)])
        main(["eval", "--model", str(fit_dir / "model.json"), "--data", str(data),
              "--label-column", "label", "--out-dir", str(eval_dir)])
        reported = None
        for line in (eval_dir / "report.csv").read_text().splitlines():
            if line.startswith("# auc "):
                reported = float(line.split()[-1])
        assert float(rep_rows[0]["auc"]) == pytest.approx(reported, abs=1e-12)

    def test_supervised_sweep_one_row_per_size(self, tmp_path):
        data = write_outlier_csv(tmp_path / "data.csv", n_in=50, n_out=8)
        cfg = self.experiment_config(
            tmp_path,
            data,
            methods=["svdd"],
            kernels={"rbf": [0.5]},
            split={"mode": "supervised", "train_count": 10},
            # small training sets need C >= 1/ell, so sweep a grid
            grids={"C": [0.15, 0.25, 0.5]},
            train_sizes=[5, 10, 20],
            repetitions=2,
        )
        out = tmp_path / "sweep"
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out)]) == 0
        rows = read_rows(out / "results.csv")
        for size in ("5", "10", "20"):
            size_rows = [r for r in rows if r["row"] == "rep" and r["train_size"] == size]
            assert len(size_rows) == 2
            means = [r for r in rows if r["row"] == "mean" and r["train_size"] == size]
            assert len(means) == 1

    def test_mean_std_match_recompute(self, tmp_path):
        data = write_outlier_csv(tmp_path / "data.csv", n_in=50, n_out=8)
        cfg = self.experiment_config(
            tmp_path,
            data,
            methods=["svdd"],
            kernels={"rbf": [0.5]},
            split={"mode": "supervised", "train_count": 12},
            repetitions=3,
        )
        out = tmp_path / "agg"
        main(["experiment", "--config", str(cfg), "--out-dir", str(out)])
        rows = read_rows(out / "results.csv")
        values = [float(r["auc"]) for r in rows if r["row"] == "rep"]
        mean = [float(r["auc"]) for r in rows if r["row"] == "mean"][0]
        std = [float(r["auc"]) for r in rows if r["row"] == "std"][0]
        assert mean == pytest.approx(np.mean(values), abs=1e-12)
        assert std == pytest.approx(np.std(values), abs=1e-12)

    def test_seeds_logged_and_deterministic(self, tmp_path):
        data = write_outlier_csv(tmp_path / "data.csv")
        cfg = self.experiment_config(tmp_path, data, repetitions=2, seeds=[11, 29])
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        main(["experiment", "--config", str(cfg), "--out-dir", str(out1)])
        main(["experiment", "--config", str(cfg), "--out-dir", str(out2)])
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        rows = read_rows(out1 / "results.csv")
        assert [r["seed"] for r in rows if r["row"] == "rep"] == ["11", "29"]

    def test_positive_fraction_policy_reports_test_auc(self, tmp_path):
        data = write_outlier_csv(tmp_path / "data.csv", n_in=50, n_out=8)
        cfg = self.experiment_config(
            tmp_path,
            data,
            methods=["svdd"],
            kernels={"rbf": [0.5]},
            policy="positive-fraction",
            split={"mode": "supervised", "train_count": 15, "validation_count": 8},
            grids={"C": [0.2, 0.4]},
        )
        out = tmp_path / "pf"
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out)]) == 0
        rows = read_rows(out / "results.csv")
        reps = [r for r in rows if r["row"] == "rep"]
        assert len(reps) == 1
        assert 0.0 <= float(reps[0]["auc"]) <= 1.0

    def test_undefined_test_metric_recorded_not_fatal(self, tmp_path):
        # all-positive dataset: selection works on validation positives,
        # but test AUC is undefined; the row records the error, exit is 1
        target = tmp_path / "target.csv"
        main(["gen2d", "--seed", "9", "--n-points", "40", "--out", str(target)])
        cfg = self.experiment_config(
            tmp_path,
            target,
            methods=["svdd"],
            kernels={"rbf": [0.5]},
            policy="positive-fraction",
            split={"mode": "supervised", "train_count": 15, "validation_count": 8},
            grids={"C": [0.2]},
        )
        out = tmp_path / "undef"
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out)]) == 1
        rows = read_rows(out / "results.csv")
        assert any("both classes" in (r["error"] or "") for r in rows)

    def test_failing_cells_nonzero_exit(self, tmp_path):
        data = write_outlier_csv(tmp_path / "data.csv", n_in=30, n_out=4)
        cfg = self.experiment_config(tmp_path, data, grids={"C": [0.001]})
        out = tmp_path / "fail"
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out)]) == 1
        rows = read_rows(out / "results.csv")
        assert any(r["error"] for r in rows)


    def test_bad_mkl_option_fails_before_any_cell(self, tmp_path, capsys, monkeypatch):
        data = write_outlier_csv(tmp_path / "data.csv", n_in=30, n_out=4)
        cfg = self.experiment_config(tmp_path, data, mkl={"gap_tol": -1.0})
        monkeypatch.setattr(cli, "_experiment_cell", None)  # never reached
        out = tmp_path / "bad"
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert "gap_tol must be" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_manifest_loaded_once_per_run(self, tmp_path, monkeypatch):
        data = write_outlier_csv(tmp_path / "data.csv", n_in=30, n_out=4)
        grams = tmp_path / "grams"
        assert main(["gram", "--data", str(data), "--label-column", "label",
                     "--rbf", "0.5", "--rbf", "5.0", "--out-dir", str(grams)]) == 0
        loads = []

        def counting_load(path):
            loads.append(path)
            return load_manifest(path)

        monkeypatch.setattr(cli, "load_manifest", counting_load)
        cfg = self.experiment_config(
            tmp_path, data, kernels={"manifest": str(grams / "manifest.json")},
            split={"mode": "supervised", "train_count": 20}, repetitions=3,
        )
        out = tmp_path / "man"
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert len(loads) == 1
        assert len([r for r in read_rows(out / "results.csv") if r["row"] == "rep"]) == 3

    def test_manifest_matrices_compared_once_per_run(self, tmp_path, monkeypatch, capsys):
        # three repetitions over seven loaded matrices compare each one with
        # its transpose once, as it is loaded, and gather no training block
        # to check; a matrix symmetric only within round-off has its block
        # checked on every build, and an asymmetric one still exits 2
        data = write_outlier_csv(tmp_path / "data.csv", n_in=30, n_out=4)
        grams = tmp_path / "grams"
        rbf = [arg for b in ("0.1", "0.5", "1", "5", "10", "50", "100") for arg in ("--rbf", b)]
        assert main(["gram", "--data", str(data), "--label-column", "label", *rbf,
                     "--out-dir", str(grams)]) == 0
        checks, check = [], kernels._check_symmetric
        monkeypatch.setattr(kernels, "_check_symmetric", lambda values, tol=kernels.SYMMETRY_TOL: (
            checks.append((values.shape, tol)), check(values, tol))[1])
        whole = [((34, 34), np.inf)] * 7
        cfg = self.experiment_config(
            tmp_path, data, kernels={"manifest": str(grams / "manifest.json")},
            split={"mode": "supervised", "train_count": 20}, repetitions=3,
        )
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "a")]) == 0
        assert checks == whole
        matrix = load_matrix(grams / "rbf_0.5.txt")
        matrix[0, 1] = np.nextafter(matrix[0, 1], 2.0)
        save_matrix(grams / "rbf_0.5.txt", matrix)
        checks.clear()
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "b")]) == 0
        assert checks == whole + [((20, 20), kernels.SYMMETRY_TOL)] * 3
        matrix[0, 1] += 0.5
        save_matrix(grams / "rbf_0.5.txt", matrix)
        fit = fit_config(tmp_path, dataset={"kind": "csv", "path": str(data), "label_column": "label"},
                         kernels={"manifest": str(grams / "manifest.json")})
        capsys.readouterr()
        assert main(["fit", "--config", str(fit), "--out-dir", str(tmp_path / "fit")]) == 2
        assert "Gram matrix is not symmetric" in capsys.readouterr().err

    @pytest.mark.parametrize("split", [None, {"mode": "unsupervised"}, {"seed": 3}])
    def test_train_sizes_need_a_supervised_split(self, tmp_path, capsys, monkeypatch, split):
        # an unsupervised split trains on every example, so each size would
        # repeat the same fit under a different train_size tag
        data = write_outlier_csv(tmp_path / "data.csv", n_in=60, n_out=8)
        extra = {} if split is None else {"split": split}
        cfg = self.experiment_config(tmp_path, data, train_sizes=[5, 30], **extra)
        monkeypatch.setattr(cli, "_experiment_cell", None)  # never reached
        out = tmp_path / "sizes"
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert "train_sizes needs a supervised split" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("overrides, key", [
        ({"split": {"mode": "supervised", "train_count": 20, "seed": "abc"}}, "split.seed"),
        ({"split": {"mode": "unsupervised", "seed": -3}}, "split.seed"),
        ({"split": {"mode": "supervised", "train_count": 20, "seed": 2.5}}, "split.seed"),
        ({"split": {"mode": "supervised", "train_count": 20, "seed": 3}}, "split.seed"),
        ({"dataset": {"kind": "gen2d", "seed": 4, "n_points": 30}}, "dataset.seed"),
    ])
    def test_seeds_come_from_seed_or_seeds(self, tmp_path, capsys, monkeypatch, overrides, key):
        # each repetition's seed replaced the value, which was then ignored
        # with exit 0, whatever it was
        data = write_outlier_csv(tmp_path / "data.csv", n_in=60, n_out=8)
        cfg = self.experiment_config(tmp_path, data, **overrides)
        monkeypatch.setattr(cli, "_experiment_cell", None)  # never reached
        out = tmp_path / "run"
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"experiment takes no {key}" in err and "seed/seeds" in err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"train_sizes": [10, 10.5]}, "train_sizes[1] must be an integer"),
        ({"train_sizes": [True]}, "train_sizes[0] must be an integer"),
        ({"train_sizes": [0]}, "train_sizes[0] must be an integer >= 1"),
    ])
    def test_fractional_train_sizes_exit_2_before_any_cell(
        self, tmp_path, capsys, monkeypatch, overrides, message
    ):
        # such a size reached the split's slice and died in a TypeError
        data = write_outlier_csv(tmp_path / "data.csv", n_in=60, n_out=8)
        split = {"mode": "supervised", "train_count": 20}
        cfg = self.experiment_config(tmp_path, data, split=split, **overrides)
        monkeypatch.setattr(cli, "_experiment_cell", None)  # never reached
        out = tmp_path / "sizes"
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"repetitions": 1.5}, "repetitions must be an integer"),
        ({"repetitions": "1"}, "repetitions must be an integer"),
        # ids kept from before the messages named the file and the entry
        pytest.param({"seed": 1.9}, "exp.json: seed must be an integer",
                     id="overrides2-error: seed must be an integer"),
        pytest.param({"repetitions": 2, "seeds": [3, 1.5]}, "seeds[1] must be an integer",
                     id="overrides3-seeds must be an integer"),
        ({"seeds": 5}, "seeds must be a JSON list"),
        ({"train_sizes": 10}, "train_sizes must be a JSON list"),
        ({"methods": "svdd"}, "methods must be a JSON list"),
        ({"grids": {"C": 0.1}}, "grids.C must be a JSON list"),
        ({"grids": {"C": [0.1], "lambda": 0.1}}, "grids.lambda must be a JSON list"),
        ({"kernels": {"rbf": 3}}, "kernels.rbf must be a JSON list"),
    ])
    def test_bad_run_settings_exit_2_before_any_cell(
        self, tmp_path, capsys, monkeypatch, overrides, message
    ):
        # a fractional count was truncated, and a bare number where a list
        # belongs crashed in a TypeError (exit 1)
        data = write_outlier_csv(tmp_path / "data.csv", n_in=60, n_out=8)
        split = {"mode": "supervised", "train_count": 20}
        cfg = self.experiment_config(tmp_path, data, split=split, **overrides)
        monkeypatch.setattr(cli, "_experiment_cell", None)  # never reached
        out = tmp_path / "run"
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"grids": 5}, "grids must be a JSON object, got 5"),
        ({"dataset": [1]}, "dataset must be a JSON object"),
        ({"split": [1]}, "split must be a JSON object"),
        ({"kernels": [1.0]}, "kernels must be a JSON object"),
    ])
    def test_sections_must_be_objects(self, tmp_path, capsys, monkeypatch, overrides, message):
        # each crashed in an AttributeError or TypeError (exit 1)
        data = write_outlier_csv(tmp_path / "data.csv", n_in=60, n_out=8)
        cfg = self.experiment_config(tmp_path, data, **overrides)
        monkeypatch.setattr(cli, "_experiment_cell", None)  # never reached
        out = tmp_path / "run"
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("split, message", [
        ({"mode": "supervised", "train_count": 10.5}, "train_count must be an integer"),
        ({"mode": "supervised", "train_fraction": "0.5"}, "train_fraction must be"),
        ({"mode": "supervised", "train_count": 10, "validation_count": 2.5},
         "validation_count must be an integer"),
    ])
    def test_bad_split_exits_2(self, tmp_path, capsys, split, message):
        data = write_outlier_csv(tmp_path / "data.csv", n_in=60, n_out=8)
        cfg = self.experiment_config(tmp_path, data, split=split)
        out = tmp_path / "split"
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "results.csv").exists()


class TestMain:
    def test_parser_built_once_and_command_looked_up_per_call(self, tmp_path, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        calls = []

        def wrapped(args, original=cli.cmd_gen2d):
            calls.append(args.seed)
            return original(args)

        monkeypatch.setattr(cli, "cmd_gen2d", wrapped)
        assert main(["gen2d", "--seed", "3", "--out", str(tmp_path / "g.csv")]) == 0
        assert calls == [3]


class TestGram:
    def test_manifest_written(self, tmp_path):
        data = write_outlier_csv(tmp_path / "d.csv", n_in=10, n_out=2)
        out = tmp_path / "grams"
        assert main(["gram", "--data", str(data), "--label-column", "label",
                     "--rbf", "0.5", "--rbf", "1.0", "--poly", "2",
                     "--out-dir", str(out)]) == 0
        matrices = load_manifest(out / "manifest.json")
        assert sorted(matrices) == ["poly_2", "rbf_0.5", "rbf_1"]
        for m in matrices.values():
            assert m.shape == (12, 12)


class TestGraphGram:
    def graphs_file(self, tmp_path, n_functions=2, n_graphs=3):
        rng = np.random.default_rng(0)
        functions = {}
        for f in range(n_functions):
            graphs = []
            for _ in range(n_graphs):
                n = int(rng.integers(3, 6))
                edges = [[i, i + 1] for i in range(n - 1)]
                graphs.append({
                    "vertex_labels": rng.standard_normal((n, 2)).tolist(),
                    "edges": edges,
                    "edge_labels": rng.standard_normal((len(edges), 1)).tolist(),
                })
            functions[f"f{f}"] = graphs
        path = tmp_path / "graphs.json"
        path.write_text(json.dumps({"functions": functions}))
        return path

    def test_manifest_count_is_functions_times_grid(self, tmp_path):
        graphs = self.graphs_file(tmp_path)
        cfg = tmp_path / "gg.json"
        cfg.write_text(json.dumps({
            "bag_size": 6,
            "seed": 0,
            "grid": {"max_lengths": [2, 3], "sigmas": [0.5, 1.0]},
        }))
        out = tmp_path / "gg"
        assert main(["graph-gram", "--graphs", str(graphs),
                     "--config", str(cfg), "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["matrices"]) == 2 * 4  # functions x (L x sigma)
        matrices = load_manifest(out / "manifest.json")
        for m in matrices.values():
            assert m.shape == (3, 3)

    @pytest.mark.parametrize("setting, field", [
        ({"bag_size": 4.7}, "bag_size"),
        ({"seed": 1.9}, "seed"),
        # ids kept from before the messages named the grid entry
        pytest.param({"grid": {"max_lengths": [2.5]}}, "grid.max_lengths[0]",
                     id="setting2-max_length"),
        ({"bag_size": True}, "bag_size"),
        pytest.param({"grid": {"max_lengths": [2, float("nan")]}}, "grid.max_lengths[1]",
                     id="setting4-max_length"),
    ])
    def test_fractional_count_exits_2_before_graph_work(
        self, tmp_path, capsys, monkeypatch, setting, field
    ):
        # such a count was truncated (4.7 bags became 4) and recorded so
        def refuse(*args, **kwargs):
            raise AssertionError("a Gram was built from an invalid config")

        monkeypatch.setattr(cli, "build_graph_gram", refuse)
        graphs = self.graphs_file(tmp_path, n_functions=1)
        cfg = tmp_path / "gg.json"
        cfg.write_text(json.dumps({"bag_size": 6, "seed": 0, **setting}))
        out = tmp_path / "gg"
        assert main(["graph-gram", "--graphs", str(graphs),
                     "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert f"{field} must be an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid, message", [
        ({"max_lengths": 3}, "grid.max_lengths must be a JSON list"),
        ({"sigmas": 1.0}, "grid.sigmas must be a JSON list"),
        # ids kept from before the messages named the entry
        pytest.param({"vertex_bandwidths": [True]},
                     "grid.vertex_bandwidths[0] must be a finite number",
                     id="grid2-grid.vertex_bandwidths entries must be"),
        pytest.param({"edge_bandwidths": ["1.0"]},
                     "grid.edge_bandwidths[0] must be a finite number",
                     id="grid3-grid.edge_bandwidths entries must be"),
        pytest.param({"max_lengths": [2, 2**32 + 1]},
                     "max_length must be at most 2**32, got 4294967297",
                     id="grid4-max_length above 2**32"),
    ])
    def test_grid_lists_hold_numbers(self, tmp_path, capsys, monkeypatch, grid, message):
        # float() read true as 1.0 and "1.0" as a bandwidth
        def refuse(*args, **kwargs):
            raise AssertionError("a Gram was built from an invalid config")

        monkeypatch.setattr(cli, "build_graph_gram", refuse)
        graphs = self.graphs_file(tmp_path, n_functions=1)
        cfg = tmp_path / "gg.json"
        cfg.write_text(json.dumps({"bag_size": 6, "seed": 0, "grid": grid}))
        out = tmp_path / "gg"
        assert main(["graph-gram", "--graphs", str(graphs),
                     "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        ({"bag_size": 6, "grid": [3]}, "grid must be a JSON object, got [3]"),
        ([6], "must be a JSON object, got [6]"),
    ])
    def test_config_and_grid_must_be_objects(self, tmp_path, capsys, monkeypatch, config, message):
        def refuse(*args, **kwargs):
            raise AssertionError("a Gram was built from an invalid config")

        monkeypatch.setattr(cli, "build_graph_gram", refuse)
        graphs = self.graphs_file(tmp_path, n_functions=1)
        cfg = tmp_path / "gg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "gg"
        assert main(["graph-gram", "--graphs", str(graphs),
                     "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        ({"bag_sise": 6}, "unknown key 'bag_sise'"),
        ({"grid": {"max_length": [2]}}, "unknown key 'max_length' in grid"),
    ])
    def test_unknown_config_key_exits_2_naming_it(
        self, tmp_path, capsys, monkeypatch, config, message
    ):
        # each built with the default bag size or walk length
        monkeypatch.setattr(cli, "build_graph_gram", lambda *a, **k: pytest.fail("built"))
        graphs = self.graphs_file(tmp_path, n_functions=1)
        cfg = tmp_path / "gg.json"
        cfg.write_text(json.dumps({"seed": 0, **config}))
        out = tmp_path / "gg"
        assert main(["graph-gram", "--graphs", str(graphs),
                     "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert f"error: config file {cfg}: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("functions, where", [
        (False, ""), (True, ""), (False, " in graphs[1]"), (True, " in functions.f0[2]"),
    ])
    def test_unknown_collection_key_exits_2_naming_it(self, tmp_path, capsys, functions, where):
        # an extra key, in a graph or beside the graphs, was ignored
        graphs = self.graphs_file(tmp_path, n_functions=1)
        raw = json.loads(graphs.read_text())
        if not functions:
            raw = {"graphs": raw["functions"]["f0"]}
        if where:
            (raw["functions"]["f0"][2] if functions else raw["graphs"][1])["extra"] = 1
        else:
            raw["extra"] = 1
        graphs.write_text(json.dumps(raw))
        cfg = tmp_path / "gg.json"
        cfg.write_text(json.dumps({"bag_size": 6, "seed": 0}))
        out = tmp_path / "gg"
        assert main(["graph-gram", "--graphs", str(graphs),
                     "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: graph collection {graphs}: unknown key 'extra'{where}\n" in err
        assert not out.exists()

    def test_integral_float_counts_write_the_int_files(self, tmp_path):
        graphs = self.graphs_file(tmp_path, n_functions=1)
        written = []
        for name, config in (
            ("ints", {"bag_size": 6, "seed": 1, "grid": {"max_lengths": [2, 3]}}),
            ("floats", {"bag_size": 6.0, "seed": 1.0, "grid": {"max_lengths": [2.0, 3.0]}}),
        ):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(config))
            out = tmp_path / name
            assert main(["graph-gram", "--graphs", str(graphs),
                         "--config", str(cfg), "--out-dir", str(out)]) == 0
            written.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert written[0] == written[1]
        params = json.loads(written[0]["manifest.json"])["matrices"][0]["params"]
        assert (params["bag_size"], params["seed"], params["max_length"]) == (6, 1, 2)

    def test_mixed_edge_label_dimensions_rejected(self, tmp_path, capsys):
        graphs = self.graphs_file(tmp_path, n_functions=1)
        raw = json.loads(graphs.read_text())
        chain = raw["functions"]["f0"][0]
        chain["edge_labels"] = [[0.1, 0.2]] * len(chain["edges"])
        graphs.write_text(json.dumps(raw))
        cfg = tmp_path / "gg.json"
        cfg.write_text(json.dumps({"bag_size": 6, "seed": 0}))
        out = tmp_path / "gg"
        assert main(["graph-gram", "--graphs", str(graphs),
                     "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert "edge label dimension" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("payload, key", [
        ({"nodes": []}, "graphs"),
        ({"functions": {"f0": [{"edges": []}]}}, "vertex_labels"),
    ])
    def test_missing_key_names_key_and_file(self, tmp_path, capsys, payload, key):
        graphs = tmp_path / "graphs.json"
        graphs.write_text(json.dumps(payload))
        cfg = tmp_path / "gg.json"
        cfg.write_text(json.dumps({"bag_size": 6, "seed": 0}))
        out = tmp_path / "gg"
        assert main(["graph-gram", "--graphs", str(graphs),
                     "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert f"graph collection {graphs} lacks the key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_non_object_names_the_file(self, tmp_path, capsys):
        graphs = tmp_path / "graphs.json"
        cfg = tmp_path / "gg.json"
        cfg.write_text(json.dumps({"bag_size": 6, "seed": 0}))
        out = tmp_path / "gg"
        graph = {"vertex_labels": [[0.0], [1.0]], "edges": [[0, 1]], "edge_labels": [[1.0]]}
        for bad in ([graph], {"graphs": [graph, [[0.0]]]}, {"functions": {"f0": ["g"]}},
                    {"functions": [graph]}):
            graphs.write_text(json.dumps(bad))
            capsys.readouterr()
            assert main(["graph-gram", "--graphs", str(graphs),
                         "--config", str(cfg), "--out-dir", str(out)]) == 2
            err = capsys.readouterr().err
            assert "must be a JSON object" in err and str(graphs) in err, bad
        assert not out.exists()

    @pytest.mark.parametrize("payload, message", [
        # ids kept from before the messages named the file first
        pytest.param({"graphs": 5}, "graph collection {}: graphs must be a JSON list, got 5",
                     id="payload0-graphs of graph collection {} must be a JSON list, got 5"),
        pytest.param({"functions": {"f": 5}},
                     "graph collection {}: functions.f must be a JSON list, got 5",
                     id="payload1-functions.f of graph collection {} must be a JSON list, got 5"),
        pytest.param({"graphs": [{"vertex_labels": 5}]},
                     "graph collection {}: graphs[0].vertex_labels must be a JSON list, got 5",
                     id="payload2-vertex_labels of a graph of {} must be a JSON list, got 5"),
    ])
    def test_wrong_type_names_the_key_and_file(self, tmp_path, capsys, payload, message):
        # {"graphs": 5} and {"functions": {"f": 5}} ended in a TypeError,
        # and vertex_labels 5 loaded as a one-vertex graph
        graphs = tmp_path / "graphs.json"
        graphs.write_text(json.dumps(payload))
        cfg = tmp_path / "gg.json"
        cfg.write_text(json.dumps({"bag_size": 6, "seed": 0}))
        out = tmp_path / "gg"
        assert main(["graph-gram", "--graphs", str(graphs),
                     "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert message.format(graphs) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edge", [[0, 1, 2, 3], [0, 1, 2]])
    def test_an_edge_has_two_ends(self, tmp_path, capsys, edge):
        # edges were reshaped to pairs: [0, 1, 2, 3] read as two edges, and
        # [0, 1, 2] failed with numpy's message, naming no key
        graphs = tmp_path / "graphs.json"
        graph = {"vertex_labels": [[0.0]] * 4, "edges": [edge], "edge_labels": [[1.0]]}
        graphs.write_text(json.dumps({"graphs": [graph]}))
        cfg = tmp_path / "gg.json"
        cfg.write_text(json.dumps({"bag_size": 6, "seed": 0}))
        out = tmp_path / "gg"
        assert main(["graph-gram", "--graphs", str(graphs),
                     "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"graph collection {graphs}: graphs[0].edges[0] must be a JSON list of 2 entries" in err
        assert not out.exists()

    def test_path_in_function_name_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # a function name becomes a file name; one holding a path would write
        # outside --out-dir. It is rejected before any Gram is built.
        def refuse(*args, **kwargs):
            raise AssertionError("a Gram was built before the ids were checked")

        monkeypatch.setattr(cli, "build_graph_gram", refuse)
        graphs = self.graphs_file(tmp_path, n_functions=1)
        raw = json.loads(graphs.read_text())
        raw["functions"] = {"../escaped": raw["functions"]["f0"]}
        graphs.write_text(json.dumps(raw))
        cfg = tmp_path / "gg.json"
        cfg.write_text(json.dumps({"bag_size": 6, "seed": 0}))
        before = sorted(tmp_path.rglob("*"))
        assert main(["graph-gram", "--graphs", str(graphs), "--config", str(cfg),
                     "--out-dir", str(tmp_path / "gg_out" / "sub")]) == 2
        assert "'../escaped_000' is not a plain file name" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

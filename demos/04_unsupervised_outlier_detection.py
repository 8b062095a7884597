"""Unsupervised outlier detection with hyperparameter search.

Ten uniform outliers are hidden inside a 360-point dataset; the complete
dataset (outliers included) is used for training, and afterwards we ask
which examples the model rejects. The grid search sweeps C and lambda,
scoring cells by AUC on the training-equals-test split. The best slim
model typically ranks nearly all planted outliers ahead of the first
false alarm. Precision/recall pairs go to demos/output/pr_curve.csv.
"""

import csv
from pathlib import Path

import numpy as np

import mksvdd

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

rng = np.random.default_rng(12)
centers = np.array([[-0.55, -0.3], [0.5, 0.45]])
stds = np.array([0.12, 0.1])
inliers = np.vstack(
    [centers[k] + stds[k] * rng.standard_normal((175, 2)) for k in range(2)]
)
outliers = rng.uniform(-2.0, 2.0, size=(10, 2))
matrix = mksvdd.SampleMatrix(
    np.vstack([inliers, outliers]),
    np.array([1] * 350 + [-1] * 10),
)

result = mksvdd.grid_search(
    matrix,
    [mksvdd.KernelSpec.rbf(s) for s in (0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0)],
    methods=["slim-mk-svdd"],
    c_grid=[0.05, 0.1, 0.2],
    lambda_grid=[0.0, 0.01, 0.1, 1.0],
    policy="auc",
    mkl_options={"gap_tol": 1e-3, "max_outer_iters": 100},
)
best = result.best["slim-mk-svdd"]
print(f"best cell: C={best.C:g} lambda={best.lam:g} auc={best.score:.4f} "
      f"({best.model.card} support vectors)")

dictionary = mksvdd.KernelDictionary.from_data(
    [mksvdd.KernelSpec.rbf(s) for s in (0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0)],
    matrix,
)
model, _ = mksvdd.fit_method(
    "slim-mk-svdd", dictionary, best.C, best.lam,
    gap_tol=1e-3, max_outer_iters=100,
)
scores = mksvdd.score(model, matrix.features)
detections = mksvdd.detections_before_first_false_alarm(scores, matrix.labels)
print(f"outliers ranked before the first false alarm: {detections}/10")

curve = mksvdd.precision_recall(scores, matrix.labels)
with open(OUT / "pr_curve.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["recall", "precision"])
    writer.writerows(curve.tolist())
print(f"wrote {OUT / 'pr_curve.csv'} ({curve.shape[0]} points)")

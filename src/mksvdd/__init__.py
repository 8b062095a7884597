"""One-class learning with multiple kernels.

Support vector data description and one-class SVM under learned convex
kernel combinations, slim variants that reward support-vector-rich
(tighter) boundaries, bag-of-paths graph kernels, and the evaluation
machinery for outlier-detection and filtering experiments.
"""

__version__ = "0.1.0"

from .data import (
    ParseError,
    SampleMatrix,
    SplitPlan,
    blob_parameters,
    gen_2d_target,
    load_csv,
    membership,
    sample_inside_outside,
    split,
)
from .evaluation import (
    GridCell,
    GridSearchResult,
    RankMetrics,
    UndefinedMetricError,
    auc,
    classification_accuracy,
    detections_before_first_false_alarm,
    grid_search,
    precision_recall,
    rank_metrics,
)
from .graphs import (
    LabeledGraph,
    PathBag,
    PathKernelConfig,
    build_graph_gram,
    graph_kernel_value,
    path_similarity,
    sample_paths,
)
from .kernels import (
    GramMatrix,
    KernelDictionary,
    KernelSpec,
    combine,
    cross_gram,
    gram,
    load_manifest,
    write_manifest,
)
from .mkl import (
    METHOD_FAMILIES,
    MklConfig,
    MklTrace,
    duality_gap,
    fit_method,
    fit_mkl,
    mkl_gradient,
    mkl_objective,
)
from .models import (
    OneClassModel,
    bounded_sv_indices,
    fit_ocsvm,
    fit_svdd,
    model_from_dict,
    model_to_dict,
    score,
    score_ids,
    train_scores,
)
from .qp import (
    AlphaSolution,
    ConvergenceError,
    InfeasibleProblemError,
    QpProblem,
    project_to_feasible,
    solve,
    sv_threshold,
)

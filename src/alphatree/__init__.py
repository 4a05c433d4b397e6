"""Fairness post-processing for black-box binary scorers.

An alpha-tree partitions the feature space and raises the black-box score
q to a per-leaf exponent, q^a / (q^a + (1-q)^a), leaving the score's
meaning intact while correcting group-dependent miscalibration.  The
package trains such trees by boosting-style top-down induction under a
choice of fairness driver (worst-group CVaR, equal opportunity, statistical
parity) and quantifies the harm of wrapping through KL drift bounds.
"""

from .boosting import (
    DegenerateLeafError,
    InductionConfig,
    LeafStats,
    SplitCandidate,
    UndefinedLeafError,
    audacious_leaf_bound,
    balanced_weights,
    best_split,
    decrease_certificate,
    edge,
    leaf_alpha_audacious,
    leaf_alpha_conservative,
    leaf_entropy,
    leaf_stats,
    relabel_leaves,
    topdown,
    tree_entropy,
    wha_check,
)
from .core import (
    A_MAX,
    AlphaTree,
    DomainError,
    Leaf,
    Node,
    NonInvertibleError,
    SchemaError,
    SplitTest,
    alpha_at_rows,
    apply_alpha,
    clip_bounds,
    clip_score,
    compose_alpha,
    evaluate_tree,
    invert_tree,
    logit,
    nlogit,
    route_rows,
    single_leaf_tree,
    stump,
    wrap,
    wrap_chain,
    wrapped_scores,
)
from .data import (
    Dataset,
    EmptyMeasureError,
    InfiniteRiskError,
    RunTrace,
    View,
    binary_entropy,
    condition_on_group,
    empirical_risk,
    full_view,
    make_dataset,
    make_view,
)
from .estimators import (
    gaussian_plugin_eval,
    gaussian_plugin_fit,
    init_stump,
    label_plugin,
    proxy_group_tree,
)
from .fairness import (
    CvarSpec,
    EooSpec,
    SpSpec,
    advantage_rate,
    cvar_quantile,
    cvar_value,
    group_means,
    pushup_posterior,
    run_cvar,
    run_eoo,
    run_sp,
    subgroup_risks,
)
from .io_cli import (
    LoadError,
    ModelFormatError,
    ModelMeta,
    load_dataset,
    load_model,
    model_from_json,
    model_to_json,
    resolve_seed,
    save_model,
    split_plan,
)
from .metrics import (
    empirical_kl,
    kl_bound_s1,
    kl_bound_s2,
    kl_taylor_bound,
    metric_auc,
    metric_cvar,
    metric_eoo_gap,
    metric_md,
    metric_sp_gap,
    metric_zero_one,
    s1_applicable,
    s2_applicable,
)

__version__ = "0.1.0"

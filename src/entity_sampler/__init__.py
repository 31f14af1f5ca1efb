"""Uniform entity sampling from datasets with duplicate records.

The pipeline has two stages: estimate each record's probability mass
(``estimate_probs_balanced``, ``estimate_probs_lsh``, or
``estimate_probs_gmm`` depending on what the data offers, or ``estimate``
to run one of them by name), then cancel the duplication skew by rejection
sampling (``sample_clean``).  Planners size the samples the estimators
need; a benchmark harness reproduces error sweeps over duplication rates
and sample fractions.
"""

from .balanced import (
    BalancedPlan,
    FingerprintStats,
    estimate_eta,
    estimate_probs_balanced,
    eta_lower_bound,
    fingerprint_sample,
    goodman_estimate,
    plan_sample_size,
)
from .blocking import (
    Blocking,
    LshConfig,
    choose_bands_rows,
    hyperplane_signatures,
    jaccard_distance,
    lsh_partition,
    minhash_signatures,
)
from .clustering import (
    Clustering,
    brute_force_kmeans,
    kmeans_cost,
    lloyd_kmeans,
    regularized_kmeans,
)
from .dataset import (
    CsvSchema,
    Dataset,
    DiscreteDistribution,
    char_ngrams,
    ingest_csv,
    relative_error,
    tv_distance,
    uniform_distribution,
)
from .gmm import (
    EmResult,
    GmmPlan,
    MixtureModel,
    em_fit,
    estimate_probs_gmm,
    plan_gmm,
)
from .lsh_pipeline import LshEstimate, estimate_probs_lsh
from .rejection import (
    ProbabilityMap,
    SampleResult,
    exact_induced_distribution,
    expected_trials_per_accept,
    sample_clean,
)
from .ssc import SameClusterOracle, SscReport, plan_pair_budget, ssc_select

__version__ = "0.1.0"

# the benchmark harness and its generators, and the command line module
# with ``estimate``, load on first use, so that importing the package
# (and every CLI process) does not pay for them
_LAZY_NAMES = {"Estimate": "cli", "estimate": "cli", **dict.fromkeys((
    "CellResult",
    "ExperimentSpec",
    "SampleReport",
    "emit_report",
    "inject_duplicates",
    "run_experiment",
), "bench")}


def __getattr__(name: str):
    if name in _LAZY_NAMES:
        from importlib import import_module

        return getattr(import_module(f".{_LAZY_NAMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BalancedPlan",
    "Blocking",
    "CellResult",
    "Clustering",
    "CsvSchema",
    "Dataset",
    "DiscreteDistribution",
    "EmResult",
    "Estimate",
    "ExperimentSpec",
    "FingerprintStats",
    "GmmPlan",
    "LshConfig",
    "LshEstimate",
    "MixtureModel",
    "ProbabilityMap",
    "SameClusterOracle",
    "SampleReport",
    "SampleResult",
    "SscReport",
    "brute_force_kmeans",
    "char_ngrams",
    "choose_bands_rows",
    "em_fit",
    "emit_report",
    "estimate",
    "estimate_eta",
    "estimate_probs_balanced",
    "estimate_probs_gmm",
    "estimate_probs_lsh",
    "eta_lower_bound",
    "exact_induced_distribution",
    "expected_trials_per_accept",
    "fingerprint_sample",
    "goodman_estimate",
    "hyperplane_signatures",
    "ingest_csv",
    "inject_duplicates",
    "jaccard_distance",
    "kmeans_cost",
    "lloyd_kmeans",
    "lsh_partition",
    "minhash_signatures",
    "plan_gmm",
    "plan_pair_budget",
    "plan_sample_size",
    "regularized_kmeans",
    "relative_error",
    "run_experiment",
    "sample_clean",
    "ssc_select",
    "tv_distance",
    "uniform_distribution",
]

"""Probability weighted moments with jackknife empirical likelihood inference.

``beta_r = E[X * F(X)**r]`` is estimated by weighted order statistics or by
a U-statistic over subset maxima; confidence intervals and tests come from
empirical likelihood on the jackknife pseudo-values, with an adjusted
variant that never loses the hypothesis outside the convex hull.  A seeded
Monte Carlo harness and a CSV-driven CLI (``pwm``) sit on top.
"""

from .data import ColumnDataset, load_csv_column
from .distributions import (
    CONSTANT,
    EXPONENTIAL,
    LOGNORMAL,
    NORMAL,
    DistSpec,
    chi2_1_cdf,
    chi2_1_quantile,
    make_rng,
    sample,
    true_beta,
)
from .el import ELSolution, neg2_log_ratio, solve_lambda
from .errors import (
    ConvergenceError,
    DegenerateSampleError,
    HullError,
    InsufficientSampleError,
    MissingColumnError,
    NumericError,
    PwmError,
    PwmInputError,
)
from .estimators import (
    PseudoValues,
    SortedSample,
    SummandVector,
    dn_estimate,
    dnel_summands,
    jackknife_pseudo_values,
    ustat_estimate,
    vexler_estimate,
    vxl_summands,
)
from .inference import (
    CI_METHODS,
    ConfidenceInterval,
    TestResult,
    adjustment_constant,
    ajel_confidence_interval,
    ajel_neg2_ratio,
    ajel_test,
    confidence_interval,
    jel_confidence_interval,
    jel_neg2_ratio,
    jel_test,
    plugin_el_ci,
    plugin_el_test,
    ratio_test,
)
from .simulate import (
    ESTIMATOR_METHODS,
    KINDS,
    ExperimentConfig,
    ExperimentReport,
    ReportRow,
    parse_config_file,
    run_experiment,
    seed_for_rep,
    write_report_csv,
    write_report_markdown,
)

__version__ = "0.1.0"

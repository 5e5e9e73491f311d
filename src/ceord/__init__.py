"""Rate-distortion frontier of robust distributed compression of
symmetrically correlated Gaussian sources."""

from .spectra import (
    DomainError,
    InconsistencyError,
    ModelError,
    SourceModel,
    SymmetricSpec,
    basis,
    d_min,
    dense,
    level,
    validate,
)
from .rdcore import (
    ConditionReport,
    RegimeReport,
    check_conditions,
    classify_regime,
    degenerate_rate_s1zero,
    degenerate_rate_s2zero,
    distortion_profile,
    mu_nu,
    rate_bar,
    solve_lambda_q,
)
from .bergertung import (
    RegionCheck,
    achievable_point,
    check_symmetric_rate,
    subset_mutual_info,
)
from .converse import (
    CASE_P,
    CASE_PHAT,
    FeasiblePoint,
    KKTCertificate,
    Multipliers,
    candidate_minimizer,
    dj_lower_bound,
    kkt_multipliers,
    solve_numeric,
    verify_kkt,
)
from .mcsim import (
    DecompositionReport,
    EmpiricalRD,
    SampleBatch,
    decomposition_check,
    empirical_distortion,
    empirical_profile,
    sample,
)

__version__ = "0.1.0"

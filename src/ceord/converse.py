"""Converse machinery: convex programs, KKT certificates, and matrix bounds.

The lower-bound argument reduces to one three-variable convex program over
(d1, d2, delta): per-mode distortion surrogates for the observations plus a
per-encoder residual, with the fictitious residual noise lambda_W taken at
the smaller observation eigenvalue, min(lambda_s1(j), lambda_s2).  The
paper's programs P and P-hat are this program at lambda_W = lambda_s2 and
at lambda_W = lambda_s1(j).  Every entry point derives lambda_W from
(model, k, j); the case label on the certificate only names which one is
the minimum.  The closed-form candidate minimizer and its multipliers are
checked against an independent numerical minimizer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rdcore
from .spectra import DomainError, InconsistencyError, SourceModel, d_min

CASE_P = "P"
CASE_PHAT = "P-hat"


@dataclass(frozen=True)
class FeasiblePoint:
    d1: float
    d2: float
    delta: float


@dataclass(frozen=True)
class Multipliers:
    a1: float
    a2: float
    b1: float
    b2: float
    c: float

    @property
    def nonnegative(self) -> bool:
        return min(self.a1, self.a2, self.b1, self.b2, self.c) >= 0


@dataclass(frozen=True)
class KKTCertificate:
    case: str  # select_case(model, j), reported only
    lambda_q: float  # the test-channel noise variance the candidate is built from
    point: FeasiblePoint
    multipliers: Multipliers
    residuals: dict[str, float]
    objective: float
    valid: bool
    violations: tuple[str, ...]


def select_case(model: SourceModel, j: int) -> str:
    """Name the program variant from the spectrum ordering at sub-dimension j."""
    return CASE_P if model.s.lambda1(j) >= model.s.lambda2 else CASE_PHAT


def _lw(model: SourceModel, k: int, j: int) -> float:
    """The residual-noise level lambda_W = min(lambda_s1(j), lambda_s2) > 0."""
    if not 1 <= k <= j <= model.ell:
        raise DomainError(f"need 1 <= k <= j <= ell, got k={k}, j={j}")
    ls1j, ls2 = model.s.lambda1(j), model.s.lambda2
    if ls1j >= ls2 and not ls2 > 0:
        raise DomainError(
            f"case P needs lambda_s1(j) >= lambda_s2 > 0, got {ls1j:.6g}, {ls2:.6g}"
        )
    if ls2 > ls1j and not ls1j > 0:
        raise DomainError(
            f"case P-hat needs lambda_s2 >= lambda_s1(j) > 0, got {ls2:.6g}, {ls1j:.6g}"
        )
    return min(ls1j, ls2)


def _eta(model: SourceModel, k: int, lw: float, p: FeasiblePoint) -> float:
    ls1, ls2 = model.s.lambda1(k), model.s.lambda2
    arg1 = (ls1 - lw) * p.d1 + ls1 * lw
    arg2 = (ls2 - lw) * p.d2 + ls2 * lw
    if arg1 <= 0 or arg2 <= 0 or p.delta <= 0:
        raise DomainError("nonpositive log argument in objective")
    val = math.log(ls1 * ls1 / arg1) / (2 * k) + 0.5 * math.log(lw / p.delta)
    if k > 1:
        val += (k - 1) / (2 * k) * math.log(ls2 * ls2 / arg2)
    return val


def objective_eta(model: SourceModel, k: int, j: int, point: FeasiblePoint) -> float:
    """Objective of the converse program at sub-dimension j."""
    return _eta(model, k, _lw(model, k, j), point)


def _harmonic(a: float, b: float) -> float:
    return 1.0 / (1.0 / a + 1.0 / b)


def candidate_minimizer(model: SourceModel, k: int, j: int, d_k: float) -> FeasiblePoint:
    """The closed-form candidate: harmonic means of eigenvalues with lambda_q."""
    lw = _lw(model, k, j)
    return _candidate(model, k, lw, rdcore.solve_lambda_q(model, k, d_k))


def _candidate(model: SourceModel, k: int, lw: float, lam: float) -> FeasiblePoint:
    d1 = _harmonic(model.s.lambda1(k), lam)
    d2 = _harmonic(model.s.lambda2, lam)
    return FeasiblePoint(d1=d1, d2=d2, delta=_harmonic(lw, lam))


def _distortion_lhs(model: SourceModel, k: int, d1: float, d2: float) -> float:
    """Left side of the coupled distortion constraint (compared to k*d_k)."""
    lx1, ls1 = model.x.lambda1(k), model.s.lambda1(k)
    lx2, ls2 = model.x.lambda2, model.s.lambda2
    lz1, lz2 = model.z.lambda1(k), model.z.lambda2
    # lx lz/ls, the per-mode term of d_min, is lx - lx^2/ls without the cancellation
    t1 = lx1**2 / ls1**2 * d1 + lx1 * lz1 / ls1
    t2 = lx2**2 / ls2**2 * d2 + lx2 * lz2 / ls2 if ls2 > 0 else 0.0
    return t1 + (k - 1) * t2


def kkt_multipliers(model: SourceModel, k: int, j: int, d_k: float) -> Multipliers:
    """Closed-form multipliers at the candidate point.

    The box multipliers vanish (the candidate is strictly inside the box);
    negative b-values are returned as-is and signal that the matching
    condition fails rather than raising.
    """
    return _multipliers(model, k, candidate_minimizer(model, k, j, d_k))


def _multipliers(model: SourceModel, k: int, p: FeasiblePoint) -> Multipliers:
    lx1, ls1 = model.x.lambda1(k), model.s.lambda1(k)
    lx2, ls2 = model.x.lambda2, model.s.lambda2
    a1_coef = lx1**2 / ls1**2
    a2_coef = lx2**2 / ls2**2
    den = a1_coef * p.d1**2 + (k - 1) * a2_coef * p.d2**2
    c = (p.d1 + (k - 1) * p.d2) / den / (2 * k)
    # b's numerator delta - d + 2k*c*coef*d^2 cancels when delta << d; it is
    # taken as delta + d*excess, with excess = 2k*c*coef*d - 1 in closed form
    spread = a1_coef * p.d1 - a2_coef * p.d2
    excess1, excess2 = (k - 1) * p.d2 * spread / den, -p.d1 * spread / den

    def b(mult: int, d: float, coef: float, excess: float) -> float:
        # at delta == d (lambda_W is this mode's eigenvalue) only one term is left
        num = 2 * k * c * coef * d**2 if p.delta == d else p.delta + d * excess
        return mult * num / (2 * k * p.delta**2)

    b1, b2 = b(1, p.d1, a1_coef, excess1), b(k - 1, p.d2, a2_coef, excess2)
    return Multipliers(a1=0.0, a2=0.0, b1=b1, b2=b2, c=c)


def _delta_cap(d: float, lw: float, ls: float) -> float:
    """Upper bound on delta from the estimator-composition constraint.

    (1/d + 1/lw - 1/ls)^-1, written so that it is exactly d when lw == ls.
    """
    den = 1.0 + d * (1.0 / lw - 1.0 / ls)
    if den <= 0:
        return math.inf
    return d / den


def verify_kkt(
    model: SourceModel,
    k: int,
    j: int,
    d_k: float,
    tol: float = 1e-9,
) -> KKTCertificate:
    """Assemble and check the full KKT system at the candidate point.

    Evaluates the three stationarity equations, the five complementary-
    slackness products, and primal feasibility; the certificate is valid iff
    every residual is within tol and all multipliers are nonnegative.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise DomainError(f"tol must be positive and finite, got {tol}")
    lw = _lw(model, k, j)
    lam = rdcore.solve_lambda_q(model, k, d_k)
    p = _candidate(model, k, lw, lam)
    m = _multipliers(model, k, p)
    lx1, ls1 = model.x.lambda1(k), model.s.lambda1(k)
    lx2, ls2 = model.x.lambda2, model.s.lambda2
    a1_coef = lx1**2 / ls1**2
    a2_coef = lx2**2 / ls2**2

    cap1 = _delta_cap(p.d1, lw, ls1)
    cap2 = _delta_cap(p.d2, lw, ls2)

    def stationarity(mult, d, ls, a, b, coef):  # in d1 (mult 1) or d2 (mult k-1)
        t = (
            mult * (lw - ls) / (2 * k * ((ls - lw) * d + ls * lw)),
            a,
            b * (1.0 + d * (1.0 / lw - 1.0 / ls)) ** -2,
            m.c * mult * coef,
        )
        return t[0] + t[1] - t[2] + t[3], max(map(abs, t))

    lhs, rhs = _distortion_lhs(model, k, p.d1, p.d2), k * d_k
    # (residual, the largest |term| it sums; |m| times that of g for m * g)
    checks = {
        "stationarity_d1": stationarity(1, p.d1, ls1, m.a1, m.b1, a1_coef),
        "stationarity_d2": stationarity(k - 1, p.d2, ls2, m.a2, m.b2, a2_coef),
        "stationarity_delta": (
            -1.0 / (2 * p.delta) + m.b1 + m.b2,
            max(1.0 / (2 * p.delta), abs(m.b1), abs(m.b2)),
        ),
        "slack_d1_box": (m.a1 * (p.d1 - ls1), abs(m.a1) * max(p.d1, ls1)),
        "slack_d2_box": (m.a2 * (p.d2 - ls2), abs(m.a2) * max(p.d2, ls2)),
        "slack_delta_cap1": (m.b1 * (p.delta - cap1), abs(m.b1) * max(p.delta, cap1)),
        "slack_delta_cap2": (m.b2 * (p.delta - cap2), abs(m.b2) * max(p.delta, cap2)),
        "slack_distortion": (m.c * (lhs - rhs), abs(m.c) * max(lhs, rhs)),
        "primal_d1": (max(0.0, p.d1 - ls1, -p.d1), max(p.d1, ls1)),
        "primal_d2": (max(0.0, p.d2 - ls2, -p.d2), max(p.d2, ls2)),
        "primal_delta_cap1": (max(0.0, p.delta - cap1), max(p.delta, cap1)),
        "primal_delta_cap2": (max(0.0, p.delta - cap2), max(p.delta, cap2)),
        "primal_distortion": (max(0.0, lhs - rhs), max(lhs, rhs)),
    }
    residuals = {name: r for name, (r, _) in checks.items()}
    # judged relative to the terms, which scale like 1/d or like d
    violations = [
        name for name, (r, size) in checks.items() if abs(r) > tol * max(1.0, size)
    ]
    if not m.nonnegative:
        violations.append("negative_multiplier")
    objective = _eta(model, k, lw, p)
    return KKTCertificate(
        case=select_case(model, j),
        lambda_q=lam,
        point=p,
        multipliers=m,
        residuals=residuals,
        objective=objective,
        valid=not violations,
        violations=tuple(violations),
    )


def solve_numeric(
    model: SourceModel, k: int, j: int, d_k: float
) -> tuple[FeasiblePoint, float]:
    """Independent numerical minimizer for the convex programs.

    The objective never benefits from slack in d2 or delta, so the problem
    collapses to one dimension: for each d1, push d2 to the distortion
    budget and delta to its caps.  A partial minimum of a jointly convex
    program is convex, so the reduced function is unimodal in d1 and one
    golden-section search finds its minimum (Kiefer, 1953).  The search
    never reads lambda_q or the candidate it is checked against.
    """
    lw = _lw(model, k, j)
    rdcore._check_dk(model, k, d_k)
    lx1, ls1 = model.x.lambda1(k), model.s.lambda1(k)
    lx2, ls2 = model.x.lambda2, model.s.lambda2
    a1_coef = lx1**2 / ls1**2
    a2_coef = (k - 1) * lx2**2 / ls2**2
    budget = k * d_k - _distortion_lhs(model, k, 0.0, 0.0)
    if not budget > 0:  # d_k > d_min guarantees room
        raise InconsistencyError(f"no distortion budget at d_k={d_k!r}: {budget!r}")

    def expand(d1: float) -> Optional[FeasiblePoint]:
        if d1 <= 0 or d1 > ls1 or a1_coef * d1 > budget:
            return None
        if a2_coef > 0:
            d2 = min(ls2, (budget - a1_coef * d1) / a2_coef)
        else:
            d2 = ls2
        if d2 <= 0:
            return None
        delta = min(_delta_cap(d1, lw, ls1), _delta_cap(d2, lw, ls2))
        return FeasiblePoint(d1=d1, d2=d2, delta=delta)

    def reduced(d1: float) -> float:
        p = expand(d1)
        if p is None or p.delta <= 0:
            return math.inf
        return _eta(model, k, lw, p)

    hi = ls1 if a1_coef == 0 else min(ls1, budget / a1_coef)
    if a1_coef * hi > budget:  # rounded up past the budget: keep the probe feasible
        hi = math.nextafter(hi, 0.0)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = hi * 1e-9, hi * (1.0 - 1e-12)
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = reduced(c), reduced(d)
    while b - a > 1e-13 * hi:
        if fc <= fd:  # the minimum lies in [a, d]
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = reduced(c)
        else:  # the minimum lies in [c, b]
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = reduced(d)
    d1_best, f_best = (c, fc) if fc <= fd else (d, fd)
    # the search never evaluates the top of the box, where the minimum may sit
    f_hi = reduced(hi)
    if f_hi < f_best:
        d1_best, f_best = hi, f_hi
    return expand(d1_best), f_best


def dj_lower_bound(model: SourceModel, k: int, j: int, delta: float) -> float:
    """Distortion lower bound at sub-dimension j, as a function of delta."""
    lw = _lw(model, k, j)
    if delta <= 0:
        raise DomainError(f"delta must be > 0, got {delta}")
    # per mode, the d that delta caps: (1/delta + 1/ls - 1/lw)^-1
    e1 = _delta_cap(delta, model.s.lambda1(j), lw)
    e2 = _delta_cap(delta, model.s.lambda2, lw)
    if math.isinf(e1) or math.isinf(e2):
        raise DomainError("nonpositive inner inverse in lower bound")
    return _distortion_lhs(model, j, e1, e2) / j


def sigma_identity(
    gamma_u: np.ndarray, gamma_s: np.ndarray, d: np.ndarray
) -> np.ndarray:
    """Reconstruction-error covariance of the fictitious signal.

    Maps the observation-error covariance D through the linear relation
    between the fictitious-signal estimate and the observation estimate.
    """
    try:
        np.linalg.cholesky(gamma_s)
    except np.linalg.LinAlgError as e:
        raise DomainError("observation covariance must be positive definite") from e
    m = np.linalg.solve(gamma_s, gamma_u)  # Gamma_S^{-1} Gamma_U
    return m.T @ d @ m + gamma_u - gamma_u @ m


def delta_bound(
    d: np.ndarray, lambda_w: float, gamma_s: np.ndarray
) -> np.ndarray:
    """Upper bound on the residual covariance given the fictitious signal.

    (D^{-1} + Lambda_W^{-1} - Gamma_S^{-1})^{-1}; the inner sum must be
    positive definite, which bounds how large lambda_w may be.
    """
    if lambda_w <= 0:
        raise DomainError(f"lambda_w must be > 0, got {lambda_w}")
    n = d.shape[0]
    inner = np.linalg.inv(d) + np.eye(n) / lambda_w - np.linalg.inv(gamma_s)
    try:
        np.linalg.cholesky(inner)
    except np.linalg.LinAlgError as e:
        raise DomainError("indefinite inner matrix in residual bound") from e
    return np.linalg.inv(inner)

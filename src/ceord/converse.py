"""Converse machinery: convex programs, KKT certificates, and lower bounds.

The lower-bound argument reduces to one three-variable convex program over
(d1, d2, delta): per-mode distortion surrogates for the observations plus a
per-encoder residual, with the fictitious residual noise lambda_W taken at
the smaller observation eigenvalue, min(lambda_s1(j), lambda_s2).  The
paper's programs P and P-hat are this program at lambda_W = lambda_s2 and
at lambda_W = lambda_s1(j).  Every entry point derives lambda_W from the
level k and j; the case label on the certificate only names which one is
the minimum.  The closed-form candidate minimizer and its multipliers are
checked against an independent numerical minimizer.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from . import rdcore
from .spectra import DomainError, InconsistencyError, Level, SourceModel, check_dk, check_lambda_q
from .spectra import check_pair, level
from .spectra import d_min  # only bench/spans.py and tests/test_source.py need it here

CASE_P = "P"
CASE_PHAT = "P-hat"
KKT_TOL = 1e-9  # every KKT residual's bound, relative to the largest term it sums


class FeasiblePoint(NamedTuple):
    d1: float
    d2: float
    delta: float


class Multipliers(NamedTuple):
    a1: float
    a2: float
    b1: float
    b2: float
    c: float

    @property
    def nonnegative(self) -> bool:
        return min(self.a1, self.a2, self.b1, self.b2, self.c) >= 0


class KKTCertificate(NamedTuple):
    case: str  # CASE_P if lambda_W = lambda_s2, else CASE_PHAT; reported only
    point: FeasiblePoint
    multipliers: Multipliers
    residuals: dict[str, float]
    objective: float
    valid: bool
    violations: tuple[str, ...]


def _program(lv: Level, j: int) -> tuple:
    """The (k, j) rule, then the program at level k = lv.k and sub-dimension j:
    (lw, ls1, ls2, lx1, lx2, f1, f2, case).

    lw = lambda_W = min(lambda_s1(j), lambda_s2) > 0, ls1 and lx1 are at level
    k, f = lx lz / ls per mode is d_min's term, lx - lx^2/ls uncancelled, and
    case names the minimum.  lambda_s1(j) is written from the level's
    (gamma_s, rho_s) as SymmetricSpec.lambda1 does.
    """
    check_pair(lv.k, j, lv.ell)
    ls1j, ls2 = (1.0 + (j - 1) * lv.rs) * lv.gs, lv.ls2
    if ls1j >= ls2:
        case, lw, other, order = CASE_P, ls2, ls1j, "lambda_s1(j) >= lambda_s2"
    else:
        case, lw, other, order = CASE_PHAT, ls1j, ls2, "lambda_s2 >= lambda_s1(j)"
    if not lw > 0:
        raise DomainError(f"case {case} needs {order} > 0, got {other:.6g}, {lw:.6g}")
    lx1, ls1, lx2 = lv.lx1, lv.ls1, lv.lx2
    return lw, ls1, ls2, lx1, lx2, lx1 * lv.lz1 / ls1, lx2 * lv.lz2 / ls2, case


def _eta_at(
    k: int, lw: float, ls1: float, ls2: float, d1: float, d2: float, delta: float
) -> float:
    """The objective on plain floats, ls1 = lambda_s1(k) and ls2 = lambda_s2."""
    arg1 = (ls1 - lw) * d1 + ls1 * lw
    arg2 = (ls2 - lw) * d2 + ls2 * lw
    if not (arg1 > 0 and arg2 > 0 and 0 < delta < math.inf):
        raise DomainError("nonpositive log argument in objective")
    val = math.log(ls1 * ls1 / arg1) / (2 * k) + 0.5 * math.log(lw / delta)
    if k > 1:
        val += (k - 1) / (2 * k) * math.log(ls2 * ls2 / arg2)
    return val


def _harmonic(a: float, b: float) -> float:
    return 1.0 / (1.0 / a + 1.0 / b)


def candidate_minimizer(model: SourceModel, k: int, j: int, d_k: float) -> FeasiblePoint:
    """The closed-form candidate: harmonic means of eigenvalues with lambda_q."""
    return verify_kkt(model, k, j, d_k).point


def _candidate(ls1: float, ls2: float, lw: float, lam: float) -> FeasiblePoint:
    return FeasiblePoint(_harmonic(ls1, lam), _harmonic(ls2, lam), _harmonic(lw, lam))


def kkt_multipliers(model: SourceModel, k: int, j: int, d_k: float) -> Multipliers:
    """Closed-form multipliers at the candidate point.

    The box multipliers vanish (the candidate is strictly inside the box);
    negative b-values are returned as-is and signal that the matching
    condition fails rather than raising.
    """
    return verify_kkt(model, k, j, d_k).multipliers


def _multipliers(k: int, a1_coef: float, a2_coef: float, p: FeasiblePoint) -> Multipliers:
    """The multipliers at p, with a_i_coef = lambda_xi^2 / lambda_si^2 at level k."""
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


def _delta_cap(d: float, inv: float) -> float:
    """Upper bound on delta from the estimator-composition constraint.

    (1/d + inv)^-1 with inv = 1/lw - 1/ls, written so that it is exactly d
    when lw == ls (inv == 0).
    """
    den = 1.0 + d * inv
    if den <= 0:
        return math.inf
    return d / den


def verify_kkt(model: SourceModel, k: int, j: int, d_k: float) -> KKTCertificate:
    """verify_at_lambda at the lambda_q that meets d_k on level k."""
    lv = level(model, k)
    return verify_at_lambda(lv, j, rdcore.solve_lambda_q(lv, d_k), d_k)


def verify_at_lambda(lv: Level, j: int, lam: float, d_k: float) -> KKTCertificate:
    """Assemble and check the full KKT system at the candidate built from lam.

    Evaluates the three stationarity equations, the five complementary-
    slackness products, and primal feasibility against the budget k d_k;
    the certificate is valid iff every residual is within KKT_TOL and all
    multipliers are nonnegative.
    """
    lw, ls1, ls2, lx1, lx2, f1, f2, case = _program(lv, j)
    check_lambda_q(lam)
    check_dk(lv, d_k)
    k = lv.k
    a1_coef, a2_coef = lx1**2 / ls1**2, lx2**2 / ls2**2
    p = _candidate(ls1, ls2, lw, lam)
    m = _multipliers(k, a1_coef, a2_coef, p)

    inv1, inv2 = 1.0 / lw - 1.0 / ls1, 1.0 / lw - 1.0 / ls2
    cap1, cap2 = _delta_cap(p.d1, inv1), _delta_cap(p.d2, inv2)

    def stationarity(mult, d, ls, inv, a, b, coef):  # in d1 (mult 1) or d2 (mult k-1)
        t = (
            mult * (lw - ls) / (2 * k * ((ls - lw) * d + ls * lw)),
            a,
            b * (1.0 + d * inv) ** -2,
            m.c * mult * coef,
        )
        return t[0] + t[1] - t[2] + t[3], max(map(abs, t))

    # the coupled distortion constraint: lhs <= rhs
    lhs, rhs = (a1_coef * p.d1 + f1) + (k - 1) * (a2_coef * p.d2 + f2), k * d_k
    # (residual, the largest |term| it sums; |m| times that of g for m * g)
    checks = {
        "stationarity_d1": stationarity(1, p.d1, ls1, inv1, m.a1, m.b1, a1_coef),
        "stationarity_d2": stationarity(k - 1, p.d2, ls2, inv2, m.a2, m.b2, a2_coef),
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
        name for name, (r, size) in checks.items() if abs(r) > KKT_TOL * max(1.0, size)
    ]
    if not m.nonnegative:
        violations.append("negative_multiplier")
    objective = _eta_at(k, lw, ls1, ls2, p.d1, p.d2, p.delta)
    return KKTCertificate(
        case=case,
        point=p,
        multipliers=m,
        residuals=residuals,
        objective=objective,
        valid=not violations,
        violations=tuple(violations),
    )


def solve_numeric(lv: Level, j: int, d_k: float) -> tuple[FeasiblePoint, float]:
    """Independent numerical minimizer for the convex programs.

    The objective never benefits from slack in d2 or delta, so the problem
    collapses to one dimension: for each d1, push d2 to the distortion
    budget and delta to its caps.  A partial minimum of a jointly convex
    program is convex, so the reduced function is unimodal in d1 and one
    golden-section search finds its minimum (Kiefer, 1953).  The search
    never reads lambda_q or the candidate it is checked against.
    """
    lw, ls1, ls2, lx1, lx2, f1, f2, _ = _program(lv, j)
    check_dk(lv, d_k)
    k = lv.k
    a1_coef = lx1**2 / ls1**2
    a2_coef = (k - 1) * lx2**2 / ls2**2
    budget = k * d_k - (f1 + (k - 1) * f2)
    if not budget > 0:  # d_k > d_min guarantees room
        raise InconsistencyError(f"no distortion budget at d_k={d_k!r}: {budget!r}")

    inv1, inv2 = 1.0 / lw - 1.0 / ls1, 1.0 / lw - 1.0 / ls2

    def reduced(d1: float, point: bool = False):
        """The objective with no slack in d2 or delta at d1 in (0, hi], inf
        where d2 has no room; with point, that (d1, d2, delta), None there."""
        if a2_coef > 0:
            d2 = min(ls2, (budget - a1_coef * d1) / a2_coef)
        else:
            d2 = ls2
        if d2 <= 0:
            return None if point else math.inf
        delta = min(_delta_cap(d1, inv1), _delta_cap(d2, inv2))
        if point:
            return FeasiblePoint(d1, d2, delta)
        return _eta_at(k, lw, ls1, ls2, d1, d2, delta)

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
    return reduced(d1_best, point=True), f_best


def dj_lower_bound(model: SourceModel, k: int, j: int, delta: float) -> float:
    """Distortion lower bound at sub-dimension j, as a function of delta."""
    check_pair(k, j, model.ell)  # the bound reads only level j
    lw, ls1, ls2, lx1, lx2, f1, f2, _ = _program(level(model, j), j)
    if not 0 < delta < math.inf:
        raise DomainError(f"delta must be positive and finite, got {delta}")
    # per mode, the d that delta caps: (1/delta + 1/ls - 1/lw)^-1
    e1 = _delta_cap(delta, 1.0 / ls1 - 1.0 / lw)
    e2 = _delta_cap(delta, 1.0 / ls2 - 1.0 / lw)
    if math.isinf(e1) or math.isinf(e2):
        raise DomainError("nonpositive inner inverse in lower bound")
    return ((lx1**2 / ls1**2 * e1 + f1) + (j - 1) * (lx2**2 / ls2**2 * e2 + f2)) / j

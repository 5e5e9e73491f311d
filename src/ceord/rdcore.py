"""Frontier quantities for the symmetric remote-source compression problem.

Everything reduces to one scalar test-channel noise variance lambda_q: the
per-encoder rate, the distortion profile over growing decoder subsets, the
mu/nu spectral ratios, and the polynomial matching conditions that decide
when the achievable rate is provably optimal.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .spectra import PSD_SLACK, DomainError, Level, SourceModel, check_dk, check_lambda_q
from .spectra import check_pair, level
from .spectra import d_min  # only bench/spans.py and tests/test_source.py need it here


class RegimeReport(NamedTuple):
    regime: str  # always | near-dmin | both-ends | degenerate-x
    roots: Optional[tuple[float, float]]


class ConditionReport(NamedTuple):
    mu: Optional[float]
    nu: Optional[float]
    nu_kj: tuple[Optional[float], ...]  # for j = k..ell
    cond1: Optional[bool]
    cond2: Optional[bool]
    cond3: tuple[Optional[bool], ...]
    cond4: tuple[Optional[bool], ...]
    roots: Optional[tuple[float, float]]
    regime: str


def distortion_at_lambda(lv: Level, lam: float) -> float:
    """d_j at j = lv.k as a function of the test-channel noise variance (strictly increasing)."""
    check_lambda_q(lam)
    j, lx1, lx2 = lv.k, lv.lx1, lv.lx2
    t1 = lx1 * (lv.lz1 + lam) / (lv.ls1 + lam) if lx1 > 0 else 0.0
    t2 = lx2 * (lv.lz2 + lam) / (lv.ls2 + lam) if lx2 > 0 else 0.0
    return t1 / j + (j - 1) * t2 / j


def solve_lambda_q(lv: Level, d_k: float) -> float:
    """Unique positive lambda_q with distortion_at_lambda(lv, .) = d_k.

    Per mode lx(lz + lam)/(ls + lam) = lx - lx^2/(ls + lam), so the equation
    is f(lam) = p/(ls1 + lam) + q/(ls2 + lam) = c with p = lx1^2,
    q = (k-1) lx2^2, c = k (gamma_x - d_k): a quadratic whose constant term
    ls1 ls2 (c - f(0)) = -k ls1 ls2 (d_k - d_min) <= 0 leaves one positive
    root.  It is taken in cancellation-free form, then one Newton step.
    """
    k, lo = lv.k, check_dk(lv, d_k)
    ls1, ls2 = lv.ls1, lv.ls2
    p = lv.lx1**2
    q = (k - 1) * lv.lx2**2
    c = k * (lv.gx - d_k)
    b = c * (ls1 + ls2) - p - q
    c0 = -k * ls1 * ls2 * (d_k - lo)
    root = math.sqrt(b * b - 4.0 * c * c0)
    lam = (root - b) / (2.0 * c) if b < 0 else -2.0 * c0 / (b + root)
    if not lam > 0:
        raise DomainError(f"d_k={d_k:.17g} is within rounding of d_min^({k})")
    # Newton on f(lam) - c, summed where it is small: near gamma_x both f and
    # c are small, near d_min the distortion residual is.
    if c < k * (d_k - lo):
        res = p / (ls1 + lam) + q / (ls2 + lam) - c
    else:
        res = k * (d_k - distortion_at_lambda(lv, lam))
    lam += res / (p / (ls1 + lam) ** 2 + q / (ls2 + lam) ** 2)
    return float(lam)  # d_k may be a numpy scalar


def rate_at_lambda(lv: Level, lam: float) -> float:
    """Per-encoder rate in nats, log det(I + Gamma_S/lam)/(2k), at noise lam."""
    check_lambda_q(lam)
    k = lv.k
    return (math.log1p(lv.ls1 / lam) + (k - 1) * math.log1p(lv.ls2 / lam)) / (2 * k)


def rate_bar(model: SourceModel, k: int, d_k: float) -> float:
    """Symmetric per-encoder rate achieving distortion d_k at level k (nats)."""
    lv = level(model, k)
    return rate_at_lambda(lv, solve_lambda_q(lv, d_k))


def profile_at_lambda(lv: Level, lam: float) -> tuple[float, ...]:
    """Distortions d_j, j = k..ell, of the test channel with noise variance lam.

    distortion_at_lambda for each j, in one loop: the repeated-mode term t2
    does not depend on j, so it is computed once, and the leading
    eigenvalues are written out with the float operations of
    SymmetricSpec.lambda1.
    """
    check_lambda_q(lam)
    rx, gx, rz, gz, rs, gs = lv.rx, lv.gx, lv.rz, lv.gz, lv.rs, lv.gs
    lx2 = lv.lx2
    t2 = lx2 * (lv.lz2 + lam) / (lv.ls2 + lam) if lx2 > 0 else 0.0
    profile = []
    for j in range(lv.k, lv.ell + 1):
        i = j - 1
        lx1 = (1.0 + i * rx) * gx
        t1 = lx1 * ((1.0 + i * rz) * gz + lam) / ((1.0 + i * rs) * gs + lam) if lx1 > 0 else 0.0
        profile.append(t1 / j + i * t2 / j)
    return tuple(profile)


def distortion_profile(model: SourceModel, k: int, d_k: float) -> tuple[float, ...]:
    """Distortions d_j, j = k..ell, induced by the level-k test channel."""
    lv = level(model, k)
    return profile_at_lambda(lv, solve_lambda_q(lv, d_k))


def _shrink(lam_s: float, lam_q: float) -> float:
    """lam_s - lam_s^2/(lam_s + lam_q), in cancellation-free harmonic form."""
    return lam_s * lam_q / (lam_s + lam_q)


def mu_nu(
    model: SourceModel, k: int, d_k: float
) -> tuple[Optional[float], Optional[float], tuple[Optional[float], ...]]:
    """The spectral shrinkage ratios (mu, nu, nu_kj for j = k..ell).

    mu compares the repeated-mode MMSE shrinkage against the leading-mode
    one; nu is its reciprocal; nu_kj generalizes nu to sub-dimension j.
    A ratio whose denominator eigenvalue is 0 is None: mu when
    lambda_s1(k) = 0, nu and every nu_kj when lambda_s2 = 0.  They are the
    ratio part of check_conditions.
    """
    rep = check_conditions(model, k, d_k)
    return rep.mu, rep.nu, rep.nu_kj


def classify_regime(lv: Level) -> RegimeReport:
    """Case split on where the matching condition can hold over the d-range.

    The condition is a quadratic A t(t - 1) + C in t = mu for rho_s >= 0
    and t = nu for rho_s < 0; if its discriminant is nonpositive it holds
    for every distortion ("always").  Otherwise the two roots in [0, 1] are
    compared against the limiting value of t at maximal distortion.
    """
    k, lx1, lx2, ls1, ls2 = lv.k, lv.lx1, lv.lx2, lv.ls1, lv.ls2
    # (A, C) of cond1 in t = mu or of cond2 in t = nu, and t's limit num/den
    if lv.rs >= 0:
        lhs, c, num, den = (k - 1) * lx2**2 * ls1**2, k * lx1**2 * ls2**2, ls2, ls1
    else:
        lhs, c, num, den = lx1**2 * ls2**2, k * lx2**2 * ls1**2, ls1, ls2
    rhs = 4 * c
    # a ratio pinned at 0 or 1, or no real roots: holds over the full range
    if num <= 0 or num == den or lhs <= rhs:
        return RegimeReport("always", None)
    disc = math.sqrt(1.0 - rhs / lhs)
    r1, r2 = 0.5 - 0.5 * disc, 0.5 + 0.5 * disc
    ratio = num / den
    if rhs == 0.0:
        # roots degenerate to (0, 1): vanishing leading signal eigenvalue
        return RegimeReport("degenerate-x", (r1, r2))
    if r2 <= ratio:
        return RegimeReport("always", (r1, r2))
    if r1 <= ratio:
        return RegimeReport("near-dmin", (r1, r2))
    return RegimeReport("both-ends", (r1, r2))


def check_conditions(model: SourceModel, k: int, d_k: float) -> ConditionReport:
    """Evaluate the matching-condition polynomials at (k, d_k).

    Branches whose sign hypothesis on rho_s does not apply are reported as
    None rather than False; exact zeros count as satisfied.
    """
    lv = level(model, k)
    return conditions_at_lambda(lv, solve_lambda_q(lv, d_k))


def _weights(lv: Level) -> tuple[float, float]:
    """p1 = lx1^2 ls2^2 and p2 = lx2^2 ls1^2 at level k, the matching-condition weights."""
    return lv.lx1**2 * lv.ls2**2, lv.lx2**2 * lv.ls1**2


def ratio_conditions(
    lv: Level, lam: float
) -> tuple[Optional[float], Optional[float], Optional[bool], Optional[bool]]:
    """(mu, nu, cond1, cond2) of conditions_at_lambda, without the O(ell) part.

    cond1 is (k-1) p2 mu(mu - 1) + k p1 >= 0 and cond2 is
    p1 nu(nu - 1) + k p2 >= 0, with p1, p2 from _weights.
    """
    check_lambda_q(lam)
    k, ls1, ls2 = lv.k, lv.ls1, lv.ls2
    p1, p2 = _weights(lv)
    mu = _shrink(ls2, lam) / _shrink(ls1, lam) if ls1 > 0 else None
    nu = _shrink(ls1, lam) / _shrink(ls2, lam) if ls2 > 0 else None
    cond1 = (k - 1) * p2 * mu * (mu - 1.0) + k * p1 >= 0 if lv.rs >= 0 else None
    # rho_s <= 0 makes ls2 >= gamma_s > 0, so nu is defined
    cond2 = p1 * nu * (nu - 1.0) + k * p2 >= 0 if lv.rs <= 0 else None
    return mu, nu, cond1, cond2


def conditions_at_lambda(lv: Level, lam: float) -> ConditionReport:
    """check_conditions for a given test-channel noise variance.

    mu, nu, cond1 and cond2 come from ratio_conditions.  For each j, cond3 is
    (nu_kj + k-1) p1 nu^2 + (k-1)(nu_kj - nu) p2 >= 0 and cond4 is
    (nu_kj - 1) p1 nu^2 + ((k-1) nu_kj + nu) p2 >= 0, one loop over j, with
    lambda_s1(j) written out as in SymmetricSpec.lambda1 and _shrink inlined.
    """
    k = lv.k
    mu, nu, cond1, cond2 = ratio_conditions(lv, lam)
    js = range(k, lv.ell + 1)
    nu_kj = cond3 = cond4 = (None,) * len(js)
    rs, gs, ls2 = lv.rs, lv.gs, lv.ls2
    if ls2 > 0:
        shrink2 = _shrink(ls2, lam)
        nu_kj = tuple(
            a * lam / (a + lam) / shrink2 if (a := (1.0 + (j - 1) * rs) * gs) > 0 else 0.0
            for j in js
        )
    if rs <= 0:
        p1, p2 = _weights(lv)
        q1 = p1 * nu**2
        c3, c4 = [], []
        for v in nu_kj:
            c3.append((v + (k - 1)) * q1 + (k - 1) * (v - nu) * p2 >= 0)
            c4.append((v - 1.0) * q1 + ((k - 1) * v + nu) * p2 >= 0)
        cond3, cond4 = tuple(c3), tuple(c4)
    reg = classify_regime(lv)
    return ConditionReport(
        mu=mu,
        nu=nu,
        nu_kj=nu_kj,
        cond1=cond1,
        cond2=cond2,
        cond3=cond3,
        cond4=cond4,
        roots=reg.roots,
        regime=reg.regime,
    )


def degenerate_rate_s2zero(
    model: SourceModel, k: int, j: int, d_k: float
) -> tuple[float, float]:
    """Closed forms at the fully correlated boundary (repeated eigenvalue 0)."""
    lv = level(model, k)
    if lv.ls2 > PSD_SLACK * lv.gs:
        raise DomainError("requires the repeated observation eigenvalue to be 0")
    check_pair(k, j, model.ell)
    check_dk(lv, d_k)
    gx, gz, gs = lv.gx, lv.gz, lv.gs
    arg = gs * d_k - gx * gz
    # near (not at) the boundary this floor, gx gz / gs, can exceed d_min^(k)
    if arg <= 0:
        raise DomainError(f"d_k={d_k:.12g} at or below the distortion floor")
    rate = math.log(gx * gx / arg) / (2 * k)
    num = (j - k) * gx * gx * gz + (k * gs - j * gz) * gx * d_k
    den = (j * gs - k * gz) * gx - (j - k) * gs * d_k
    return rate, num / den


def degenerate_rate_s1zero(model: SourceModel, d_ell: float) -> float:
    """Closed form at the fully anti-correlated boundary (leading eigenvalue 0).

    Coincides with the (per-encoder normalized) rate-distortion function of
    the centralized remote source coding problem.
    """
    ell = model.ell
    lv = level(model, ell)
    if lv.ls1 > PSD_SLACK * lv.gs:
        raise DomainError("requires the leading observation eigenvalue to be 0")
    check_dk(lv, d_ell)
    lx2, lz2, ls2 = lv.lx2, lv.lz2, lv.ls2
    arg = ell * ls2 * d_ell - (ell - 1) * lx2 * lz2
    return (ell - 1) / (2 * ell) * math.log((ell - 1) * lx2**2 / arg)

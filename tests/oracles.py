"""Independent references that the library never calls.

The library works with the two closed-form eigenvalues of each symmetric
family; most of these functions materialize the matrices instead, so that
tests can check the closed forms against plain linear algebra.  The
matching conditions are written out one polynomial at a time, as a check on
the library's single pass over them.  The paper's closed forms for the
frontier at the two boundary correlations check the library's one general
solve there, and the quadratic Gaussian CEO sum-rate, from outside the
paper, checks it at rho_x = 1, rho_z = 0.
"""
from __future__ import annotations

import math

import numpy as np

from ceord import CASE_P, CASE_PHAT, DomainError


def case_oracle(model, j: int) -> str:
    """The converse's case at sub-dimension j, from the observation spec's own
    eigenvalue methods: P where lambda_W = lambda_s2 <= lambda_s1(j), else P-hat."""
    return CASE_P if model.s.lambda1(j) >= model.s.lambda2 else CASE_PHAT


def degenerate_rate_s2zero(model, k: int, j: int, d_k: float) -> tuple[float, float]:
    """(rate, d_j) at the fully correlated boundary, rho_s = 1 (lambda_s2 = 0).

    The rate in nats and d_j are closed forms in the three variances; the
    input is not checked, so d_k must lie above the floor gamma_x gamma_z /
    gamma_s and below gamma_x.
    """
    gx, gz, gs = model.x.gamma, model.z.gamma, model.s.gamma
    arg = gs * d_k - gx * gz
    rate = math.log(gx * gx / arg) / (2 * k)
    num = (j - k) * gx * gx * gz + (k * gs - j * gz) * gx * d_k
    den = (j * gs - k * gz) * gx - (j - k) * gs * d_k
    return rate, num / den


def degenerate_rate_s1zero(model, d_ell: float) -> float:
    """The rate at level ell, in nats, at the fully anti-correlated boundary,
    rho_s = -1/(ell-1) (lambda_s1(ell) = 0).

    It coincides with the per-encoder normalized rate-distortion function of
    the centralized remote source coding problem.  The input is not checked.
    """
    ell = model.ell
    lx2, lz2, ls2 = model.x.lambda2, model.z.lambda2, model.s.lambda2
    arg = ell * ls2 * d_ell - (ell - 1) * lx2 * lz2
    return (ell - 1) / (2 * ell) * math.log((ell - 1) * lx2**2 / arg)


def ceo_sum_rate(gamma_x: float, gamma_n: float, k: int, d: float) -> float:
    """Sum-rate in nats of the quadratic Gaussian CEO problem: k encoders see
    one scalar source of variance gamma_x through independent noises of
    variance gamma_n, and the decoder estimates it at distortion d (Oohama,
    IEEE Trans. IT, 1998).

    The input is not checked: d must lie in (1/(1/gamma_x + k/gamma_n), gamma_x].
    """
    share = gamma_n * (1.0 / d - 1.0 / gamma_x) / k
    return 0.5 * math.log(gamma_x / d) - k / 2 * math.log(1.0 - share)


def sigma_identity(gamma_u: np.ndarray, gamma_s: np.ndarray, d: np.ndarray) -> np.ndarray:
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


def delta_bound(d: np.ndarray, lambda_w: float, gamma_s: np.ndarray) -> np.ndarray:
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


def cov_with_se(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise second-moment matrix of rows of e with per-entry standard errors.

    Computed pairwise to avoid materializing the n x j x j outer products.
    """
    n, j = e.shape
    mean = np.empty((j, j))
    se = np.empty((j, j))
    for a in range(j):
        for b in range(a, j):
            p = e[:, a] * e[:, b]
            mean[a, b] = mean[b, a] = p.mean()
            se[a, b] = se[b, a] = p.std(ddof=1) / np.sqrt(n)
    return mean, se


def matching_conditions(model, k: int, lam: float) -> dict:
    """mu, nu, nu_kj and the four matching conditions at noise variance lam.

    Each condition is written out as its own polynomial in the level-k
    eigenvalues, term by term: cond1 in t = mu and cond2 in t = nu as
    A t(t - 1) + C, and cond3 and cond4 once per j.  cond1 applies for
    rho_s >= 0 and cond2..cond4 for rho_s <= 0; a condition that does not
    apply is None, as is a ratio whose denominator eigenvalue is 0.  At
    k = 1, cond2 and cond4 sign a multiplier with the factor k - 1, so they
    are True whatever their polynomials.
    """
    lx1, lx2 = model.x.lambda1(k), model.x.lambda2
    ls1, ls2 = model.s.lambda1(k), model.s.lambda2
    js = range(k, model.ell + 1)

    def shrink(ls):  # MMSE shrinkage ls - ls^2/(ls + lam)
        return ls * lam / (ls + lam)

    def cond3(nu, v):
        return (v + (k - 1)) * lx1**2 * ls2**2 * nu**2 + (k - 1) * (v - nu) * lx2**2 * ls1**2

    def cond4(nu, v):
        return (v - 1.0) * lx1**2 * ls2**2 * nu**2 + ((k - 1) * v + nu) * lx2**2 * ls1**2

    out = dict(mu=None, nu=None, nu_kj=tuple(None for _ in js), cond1=None, cond2=None)
    if ls1 > 0:
        out["mu"] = shrink(ls2) / shrink(ls1)
    if ls2 > 0:
        out["nu"] = shrink(ls1) / shrink(ls2)
        ls1j = [model.s.lambda1(j) for j in js]
        out["nu_kj"] = tuple(shrink(v) / shrink(ls2) if v > 0 else 0.0 for v in ls1j)
    if model.s.rho >= 0:
        mu = out["mu"]
        out["cond1"] = (k - 1) * lx2**2 * ls1**2 * mu * (mu - 1.0) + k * lx1**2 * ls2**2 >= 0
    if model.s.rho <= 0:
        nu = out["nu"]
        out["cond2"] = k == 1 or lx1**2 * ls2**2 * nu * (nu - 1.0) + k * lx2**2 * ls1**2 >= 0
        out["cond3"] = tuple(cond3(nu, v) >= 0 for v in out["nu_kj"])
        out["cond4"] = tuple(k == 1 or cond4(nu, v) >= 0 for v in out["nu_kj"])
    else:
        out["cond3"] = out["cond4"] = tuple(None for _ in js)
    return out

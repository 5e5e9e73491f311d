"""Dense-matrix oracles: independent references that the library never calls.

The library works with the two closed-form eigenvalues of each symmetric
family; these functions materialize the matrices instead, so that tests can
check the closed forms against plain linear algebra.
"""
from __future__ import annotations

import numpy as np

from ceord import DomainError


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

"""Symmetric covariance families and their eigenstructure.

A family is parameterized by (gamma, rho, ell): constant diagonal gamma,
constant off-diagonal rho*gamma.  Every leading j x j principal submatrix
has two distinct eigenvalues,

    lambda1(j) = (1 + (j-1)*rho) * gamma        (multiplicity 1)
    lambda2    = (1 - rho) * gamma              (multiplicity j-1)

shared across all families through a common orthogonal basis whose first
column is the normalized all-ones vector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Slack for eigenvalue nonnegativity, relative to the family's gamma, so that
# boundary correlations (rho = 1, rho = -1/(ell-1)) are admitted despite
# rounding at every scale of the model.
PSD_SLACK = 1e-12

# The variance range on which rates are computed to full precision: the
# solver multiplies up to four eigenvalues, which must neither underflow
# nor overflow.  gamma_x lies in [GAMMA_MIN, GAMMA_MAX]; gamma_z may be 0
# or tiny, but not above GAMMA_MAX.
GAMMA_MIN = 1e-60
GAMMA_MAX = 1e60


class ModelError(ValueError):
    """Invalid model parameters (fails positive semidefiniteness etc.)."""


class DomainError(ValueError):
    """A quantity was requested outside its valid open interval."""


class InconsistencyError(RuntimeError):
    """Two routes to the same quantity disagree (an internal fault, not bad input)."""


@dataclass(frozen=True)
class SymmetricSpec:
    """One symmetric covariance family: variance, correlation, dimension."""

    gamma: float
    rho: float
    ell: int

    def lambda1(self, j: int) -> float:
        return (1.0 + (j - 1) * self.rho) * self.gamma

    @property
    def lambda2(self) -> float:
        return (1.0 - self.rho) * self.gamma


@dataclass(frozen=True)
class SpectralView:
    """Eigenvalues of the leading j x j submatrix of a family."""

    j: int
    lambda1: float
    lambda2: float


@dataclass(frozen=True)
class SourceModel:
    """Signal spec x, noise spec z, and the derived observation spec s = x + z."""

    x: SymmetricSpec
    z: SymmetricSpec
    s: SymmetricSpec

    @property
    def ell(self) -> int:
        return self.x.ell


def _check_psd(spec: SymmetricSpec, name: str) -> None:
    l1 = spec.lambda1(spec.ell)
    l2 = spec.lambda2
    if l1 < -PSD_SLACK * spec.gamma:
        raise ModelError(
            f"{name}: leading eigenvalue (1+(ell-1)*rho)*gamma = {l1:.6g} < 0"
        )
    if l2 < -PSD_SLACK * spec.gamma:
        raise ModelError(f"{name}: repeated eigenvalue (1-rho)*gamma = {l2:.6g} < 0")


def validate(x: SymmetricSpec, z: SymmetricSpec) -> SourceModel:
    """Check both specs and derive the observation spec entrywise.

    Rejects non-finite gamma or rho, gamma_x <= 0 (the target must be
    random), gamma_x < GAMMA_MIN or a variance above GAMMA_MAX (outside the
    range the solver is exact on) and any family whose closed-form
    eigenvalues go negative.
    """
    if not all(map(math.isfinite, (x.gamma, x.rho, z.gamma, z.rho))):
        raise ModelError(f"gamma and rho must be finite, got x={x}, z={z}")
    if x.ell != z.ell:
        raise ModelError(f"dimension mismatch: x.ell={x.ell}, z.ell={z.ell}")
    if x.ell < 2:
        raise ModelError(f"ell must be >= 2, got {x.ell}")
    if not x.gamma > 0:
        raise ModelError(f"gamma_x must be > 0, got {x.gamma}")
    if z.gamma < 0:
        raise ModelError(f"gamma_z must be >= 0, got {z.gamma}")
    if not (GAMMA_MIN <= x.gamma <= GAMMA_MAX and z.gamma <= GAMMA_MAX):
        raise ModelError(
            f"need {GAMMA_MIN:g} <= gamma_x <= {GAMMA_MAX:g} and gamma_z <= {GAMMA_MAX:g},"
            f" got gamma_x={x.gamma}, gamma_z={z.gamma}"
        )
    _check_psd(x, "signal spec")
    _check_psd(z, "noise spec")
    gamma_s = x.gamma + z.gamma
    rho_s = (x.rho * x.gamma + z.rho * z.gamma) / gamma_s
    s = SymmetricSpec(gamma_s, rho_s, x.ell)
    _check_psd(s, "observation spec")
    return SourceModel(x=x, z=z, s=s)


def eigenvalues(spec: SymmetricSpec, j: int) -> SpectralView:
    """Closed-form eigenvalues of the leading j x j submatrix."""
    if not 1 <= j <= spec.ell:
        raise DomainError(f"j={j} out of range [1, {spec.ell}]")
    return SpectralView(j=j, lambda1=spec.lambda1(j), lambda2=spec.lambda2)


def basis(j: int) -> np.ndarray:
    """Deterministic orthogonal j x j matrix with first column 1/sqrt(j).

    Householder reflection mapping e_1 to the normalized all-ones vector,
    so the same basis simultaneously diagonalizes every symmetric family.
    """
    if j < 1:
        raise DomainError(f"j={j} must be >= 1")
    u = np.full(j, 1.0 / np.sqrt(j))
    v = u.copy()
    v[0] -= 1.0
    nrm2 = v @ v
    if nrm2 < 1e-30:
        return np.eye(j)
    return np.eye(j) - 2.0 * np.outer(v, v) / nrm2


def dense(spec: SymmetricSpec, j: int) -> np.ndarray:
    """Materialize the j x j covariance matrix (for oracle computations)."""
    m = np.full((j, j), spec.rho * spec.gamma)
    np.fill_diagonal(m, spec.gamma)
    return m


def d_min(model: SourceModel, j: int) -> float:
    """MMSE floor: distortion of estimating j targets from all j observations.

    Degenerate eigenvalues are handled by explicit zero branches (a vanishing
    observation eigenvalue forces the matching signal and noise eigenvalues
    to vanish as well, so the contribution is exactly zero).
    """
    if j < 1:
        raise DomainError(f"j={j} must be >= 1")
    ls1 = model.s.lambda1(j)
    ls2 = model.s.lambda2
    slack = PSD_SLACK * model.s.gamma
    d1 = model.x.lambda1(j) * model.z.lambda1(j) / ls1 if ls1 > slack else 0.0
    d2 = model.x.lambda2 * model.z.lambda2 / ls2 if ls2 > slack else 0.0
    return (d1 + (j - 1) * d2) / j

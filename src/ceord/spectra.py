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
from typing import TYPE_CHECKING, NamedTuple

# numpy is imported inside basis and dense, its only users here, so that
# importing ceord and running the closed-form frontier loads no numpy.
if TYPE_CHECKING:
    import numpy as np

# Slack for eigenvalue nonnegativity, relative to the family's gamma, so that
# boundary correlations (rho = 1, rho = -1/(ell-1)) are admitted despite
# rounding at every scale of the model.
PSD_SLACK = 1e-12

# d_k within this fraction of an end of (d_min, gamma_x) is rejected, not
# clamped: lambda_q diverges at one end and vanishes at the other.  At
# d_min = 0 (no noise) the slack is ENDPOINT_SLACK**2 * gamma_x, far above
# underflow.
ENDPOINT_SLACK = 1e-12

# The variance range on which rates are computed to full precision: the
# solver multiplies up to four eigenvalues, which must neither underflow
# nor overflow.  gamma_x lies in [GAMMA_MIN, GAMMA_MAX]; gamma_z may be 0
# or tiny, but not above GAMMA_MAX.
GAMMA_MIN = 1e-60
GAMMA_MAX = 1e60

# The largest dimension for which ell - 1, and so every eigenvalue formula,
# is exact in floating point.
ELL_MAX = 2**53


class ModelError(ValueError):
    """Invalid model parameters (fails positive semidefiniteness etc.)."""


class DomainError(ValueError):
    """A quantity was requested outside its valid open interval."""


class InconsistencyError(RuntimeError):
    """Two routes to the same quantity disagree (an internal fault, not bad input)."""


class SymmetricSpec(NamedTuple):
    """One symmetric covariance family: variance, correlation, dimension."""

    gamma: float
    rho: float
    ell: int

    def lambda1(self, j: int) -> float:
        return (1.0 + (j - 1) * self.rho) * self.gamma

    @property
    def lambda2(self) -> float:
        return (1.0 - self.rho) * self.gamma


class SourceModel(NamedTuple):
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

    Rejects non-finite gamma or rho, ell outside [2, ELL_MAX], gamma_x <= 0
    (the target must be random), gamma_x < GAMMA_MIN or a variance above
    GAMMA_MAX (outside the range the solver is exact on) and any family
    whose closed-form eigenvalues go negative.
    """
    if not all(map(math.isfinite, (x.gamma, x.rho, z.gamma, z.rho))):
        raise ModelError(f"gamma and rho must be finite, got x={x}, z={z}")
    if x.ell != z.ell:
        raise ModelError(f"dimension mismatch: x.ell={x.ell}, z.ell={z.ell}")
    if x.ell < 2:
        raise ModelError(f"ell must be >= 2, got {x.ell}")
    if x.ell > ELL_MAX:
        raise ModelError(f"ell must be <= 2**53, got {x.ell}")
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


def basis(j: int) -> np.ndarray:
    """Deterministic orthogonal j x j matrix with first column 1/sqrt(j).

    Householder reflection mapping e_1 to the normalized all-ones vector,
    so the same basis simultaneously diagonalizes every symmetric family.
    """
    import numpy as np

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
    import numpy as np

    m = np.full((j, j), spec.rho * spec.gamma)
    np.fill_diagonal(m, spec.gamma)
    return m


class Level(NamedTuple):
    """One level's spectrum on plain floats: the leading eigenvalues at k,
    the repeated ones, and (gamma, rho) of each family for the per-j loops."""

    k: int
    ell: int
    lx1: float
    lz1: float
    ls1: float
    lx2: float
    lz2: float
    ls2: float
    gx: float
    rx: float
    gz: float
    rz: float
    gs: float
    rs: float


def level(model: SourceModel, k: int, name: str = "k") -> Level:
    """The level rule, 1 <= k <= ell, then the level-k spectrum.

    name labels k in the message ("j" for a sub-dimension).  Each eigenvalue
    is written with the float operations of SymmetricSpec.lambda1 and
    lambda2, so every form on the result gives the bytes the methods would.
    """
    if not 1 <= k <= model.ell:
        raise DomainError(f"{name}={k} out of range [1, {model.ell}]")
    x, z, s = model.x, model.z, model.s
    i = k - 1
    return Level(
        k, model.ell,
        (1.0 + i * x.rho) * x.gamma, (1.0 + i * z.rho) * z.gamma, (1.0 + i * s.rho) * s.gamma,
        (1.0 - x.rho) * x.gamma, (1.0 - z.rho) * z.gamma, (1.0 - s.rho) * s.gamma,
        x.gamma, x.rho, z.gamma, z.rho, s.gamma, s.rho,
    )


def check_pair(k: int, j: int, ell: int) -> None:
    """The (k, j) rule of the converse and of a measured d_j: 1 <= k <= j <= ell."""
    if not 1 <= k <= j <= ell:
        raise DomainError(f"need 1 <= k <= j <= ell, got k={k}, j={j}")


def _floor(lv: Level) -> float:
    """d_min at level lv.k; a vanishing observation eigenvalue forces the
    matching signal and noise eigenvalues to vanish, so its term is 0."""
    slack = PSD_SLACK * lv.gs
    d1 = lv.lx1 * lv.lz1 / lv.ls1 if lv.ls1 > slack else 0.0
    d2 = lv.lx2 * lv.lz2 / lv.ls2 if lv.ls2 > slack else 0.0
    return (d1 + (lv.k - 1) * d2) / lv.k


def d_min(model: SourceModel, j: int) -> float:
    """MMSE floor: distortion of estimating j targets from all j observations."""
    return _floor(level(model, j, "j"))


def check_lambda_q(lam: float) -> None:
    """The test-channel rule: the noise variance lambda_q is positive and finite."""
    if not (lam > 0 and math.isfinite(lam)):
        raise DomainError(f"lambda_q must be positive and finite, got {lam}")


def check_dk(lv: Level, d_k: float) -> float:
    """The d_k rule at level lv: d_min^(k) < d_k < gamma_x; returns d_min^(k)."""
    if not math.isfinite(d_k):
        raise DomainError(f"d_k must be finite, got {d_k}")
    lo = _floor(lv)
    hi = lv.gx
    if d_k <= lo + ENDPOINT_SLACK * max(lo, ENDPOINT_SLACK * hi):
        raise DomainError(f"d_k={d_k:.12g} must exceed d_min^({lv.k})={lo:.12g}")
    if d_k >= hi * (1.0 - ENDPOINT_SLACK):
        raise DomainError(f"d_k={d_k:.12g} must be below gamma_x={hi:.12g}")
    return lo

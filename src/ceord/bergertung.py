"""Achievability side: Gaussian test channels and the symmetric rate point.

Each encoder quantizes through V_i = S_i + Q_i with common noise variance
lambda_q.  The induced rate region over a size-k subset is a contra-
polymatroid; by symmetry only the subset cardinality matters, and every
principal block of Gamma_S + lambda_q I is again a two-eigenvalue family, so
the symmetric rate point is checked by one closed form per cardinality, O(k).
"""
from __future__ import annotations

import math
from typing import NamedTuple

from . import rdcore
from .spectra import DomainError, InconsistencyError, Level, SourceModel, check_lambda_q, level


class RegionCheck(NamedTuple):
    rate: float
    # (cardinality, required sum-rate, satisfied) per subset size 1..k
    constraints: tuple[tuple[int, float, bool], ...]

    @property
    def ok(self) -> bool:
        return all(sat for _, _, sat in self.constraints)


def subset_mutual_info(model: SourceModel, lam: float, b: int, k: int) -> float:
    """I((S_i)_B; (V_i)_B | (V_i)_{A\\B}) for |B| = b inside |A| = k, at lambda_q = lam.

    h(V_B | V_rest) - h(V_B | S_B, V_rest) is half the log-determinant of
    the j = k block of Gamma_S + lam I, det = (ls1(j) + lam)(ls2 + lam)^(j-1),
    less that of the j = k-b block and of the channel noise lam^b:
    1/2 [log1p(ls1(k)/lam) - log1p(ls1(k-b)/lam) + b log1p(ls2/lam)], where
    ls1(0) = ls2 covers b = k: row b of the region check, _rows.
    """
    if not 1 <= b <= k <= model.ell:
        raise DomainError(f"need 1 <= b <= k <= ell, got b={b}, k={k}")
    check_lambda_q(lam)
    return _rows(level(model, k), lam, 0.0)[b - 1][1]


def check_symmetric_rate(model: SourceModel, k: int, d_k: float) -> RegionCheck:
    """Verify that the symmetric rate point lies in the subset rate region.

    Satisfaction allows slack 1e-9 relative to the required sum-rate; the
    full-set constraint is tight by construction.
    """
    lv = level(model, k)
    return check_rate_at_lambda(lv, rdcore.solve_lambda_q(lv, d_k))


def check_rate_at_lambda(lv: Level, lam: float) -> RegionCheck:
    """check_symmetric_rate for a given test-channel noise variance."""
    rate = rdcore.rate_at_lambda(lv, lam)
    return RegionCheck(rate=rate, constraints=_rows(lv, lam, rate))


def _rows(lv: Level, lam: float, rate: float) -> tuple[tuple[int, float, bool], ...]:
    """The region rows at rate: for each b = 1..k, (b, the required sum-rate
    subset_mutual_info, whether b * rate meets it), in one loop.

    The full-set and repeated-mode terms do not depend on b, so they are
    computed once, and ls1(k-b) is written out with the float operations of
    SymmetricSpec.lambda1.
    """
    k, rho, gamma = lv.k, lv.rs, lv.gs
    top = math.log1p(lv.ls1 / lam)
    rep = math.log1p(lv.ls2 / lam)
    rows = []
    for b in range(1, k + 1):
        required = 0.5 * (top - math.log1p((1.0 + (k - b - 1) * rho) * gamma / lam) + b * rep)
        rows.append((b, required, required - b * rate <= 1e-9 * max(1.0, required)))
    return tuple(rows)


def achievable_point(
    model: SourceModel, k: int, d_k: float
) -> tuple[float, float, tuple[float, ...]]:
    """frontier_step at d_k on level k: (lambda_q, rate, profile d_j, j = k..ell)."""
    return frontier_step(level(model, k), d_k)


def frontier_step(lv: Level, d_k: float) -> tuple[float, float, tuple[float, ...]]:
    """(lambda_q, rate, profile) at d_k on the level lv = spectra.level(model, k).

    One solve and the full region check, which raises InconsistencyError if
    the rate point falls outside the region.
    """
    lam = rdcore.solve_lambda_q(lv, d_k)
    rate = rdcore.rate_at_lambda(lv, lam)
    if not all(ok for _, _, ok in _rows(lv, lam, rate)):
        raise InconsistencyError(f"rate point outside the rate region at d_k={d_k!r}")
    return lam, rate, rdcore.profile_at_lambda(lv, lam)

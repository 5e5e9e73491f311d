"""Monte Carlo validation of the closed forms.

The draw for a given (seed, n) is an n x cols array of standard normals in
chunks of CHUNK rows, one SFC64 stream per chunk, keyed by
SeedSequence([seed, chunk index]) and read from its start: no counter or
jump is used.  The distortion profile reads Z and the test-channel noise Q
only as Z + Q, so its 2*ell column halves drive X and Z + Q; the
decomposition check reads level j alone and its 3*j column thirds drive U,
W and Q.
Each command makes this draw exactly once, whatever the number of rows it
reports.  Each chunk's stream is drawn in consecutive blocks of at most
BLOCK_FLOATS normals (one row when a row is longer); consecutive draws from
one generator are the numbers of a single draw, so the blocks never change
the sample.  Each block is reduced to the sums (sum p, sum p^2) of every
reported statistic p as soon as it is drawn, and the sums are added in draw
order.  The output depends only on (seed, n), and memory does not grow with
n: one block is held at a time, beside the estimators' coefficient rows.
Those are cols floats per row of every reported sub-dimension j, so the
profile j = k..ell holds 2 * ell * (k + ... + ell) of them: O(ell^3) at
k = 1, or 8 MB at ell = 100, 217 MB at ell = 300 and 8 GB at ell = 1000.
They are cut from a cols x cols identity, which is refused with DomainError
where its bytes exceed the platform's address space.

Every covariance, estimator and error covariance here has one eigenvalue on
the all-ones vector and one on its complement, so the estimators are built
in closed form, a2*v + (a1 - a2)*mean(v): no dense covariance, no solve.
"""
from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Optional

from .spectra import DomainError, Level, SourceModel, basis, check_lambda_q, check_pair, level

# numpy is imported inside each function that uses it, so that importing
# ceord loads it only once a Monte Carlo command runs.
if TYPE_CHECKING:
    import numpy as np

    Sums = tuple[np.ndarray, np.ndarray]  # (sum p, sum p^2), entrywise

CHUNK = 1 << 16  # rows per SFC64 stream
BLOCK_FLOATS = 1 << 16  # normals per block drawn from a stream


class SampleBatch(NamedTuple):
    x: np.ndarray  # n x ell
    z: np.ndarray
    s: np.ndarray


class EmpiricalRD(NamedTuple):
    distortion: float
    stderr: float


class DecompositionReport(NamedTuple):
    lambda_w: float
    # worst |empirical - predicted| / stderr over entries, per check
    sigma_max_sigmas: float
    delta_offdiag_max_sigmas: float
    sigma_ok: bool
    delta_diag_ok: bool


def _chunk_normals(seed: int, idx: int, m: int, cols: int) -> Iterator[np.ndarray]:
    """Chunk idx (m x cols) of the draw, in consecutive blocks of its one stream.

    Each block is a new array of at most max(BLOCK_FLOATS, cols) normals;
    _draw keeps them all, so none may reuse another's buffer.
    """
    import numpy as np

    rng = np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(entropy=[int(seed), int(idx)]))
    )
    rows = max(1, BLOCK_FLOATS // cols)
    for start in range(0, m, rows):
        yield rng.standard_normal((min(rows, m - start), cols))


def _chunks(n: int, seed: int, cols: int) -> Iterator[np.ndarray]:
    """The rows of the (seed, n) draw, one block at a time, chunk after chunk."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    for idx, start in enumerate(range(0, n, CHUNK)):
        yield from _chunk_normals(seed, idx, min(CHUNK, n - start), cols)


def _draw(n: int, seed: int, cols: int) -> np.ndarray:
    """n x cols standard normals, deterministic per (seed, n) and chunking-safe."""
    import numpy as np

    return np.concatenate(list(_chunks(n, seed, cols)), axis=0)


def _stream(
    n: int, seed: int, cols: int, sums: Callable[[np.ndarray], Sums]
) -> tuple[np.ndarray, np.ndarray]:
    """Means, with standard errors, of the statistics that sums reads off the draw.

    sums maps one block (m x cols) of the draw to (sum p, sum p^2) of each
    statistic p over its m samples.  Each p is a squared zero-mean Gaussian
    error averaged over j components, or a product of two zero-mean
    Gaussians, so Var(p) >= (2/j) E[p]^2 and sum p^2 - n mean^2 loses at
    most log2(1 + j/2) bits; the clamp keeps rounding from taking it below 0.
    """
    import numpy as np

    if n < 2:
        raise DomainError(f"n must be >= 2 for a standard error, got {n}")
    s1 = s2 = 0.0
    for g in _chunks(n, seed, cols):
        a, b = sums(g)
        s1, s2 = s1 + a, s2 + b
    mean = s1 / n
    return mean, np.sqrt(np.maximum(s2 - n * mean**2, 0.0) / (n - 1) / n)


def _unit(cols: int) -> np.ndarray:
    """The cols x cols identity the coefficient rows are cut from, the largest
    array a command builds; DomainError where its bytes exceed what this
    platform can address, so that numpy is never asked for it."""
    import numpy as np

    if 8 * cols * cols > sys.maxsize:
        raise DomainError(f"{cols} x {cols} floats exceed this platform's address space")
    return np.eye(cols)


def _factor(l1: float, l2: float, j: int) -> np.ndarray:
    """Spectral square root of the j x j covariance with eigenvalues l1, l2."""
    import numpy as np

    lams = np.full(j, max(l2, 0.0))
    lams[0] = max(l1, 0.0)
    return basis(j) * np.sqrt(lams)


def sample(model: SourceModel, n: int, seed: int) -> SampleBatch:
    """Draw n i.i.d. realizations of (X, Z, S = X + Z)."""
    ell = model.ell
    lv = level(model, ell)
    g = _draw(n, seed, 2 * ell)
    x = g[:, :ell] @ _factor(lv.lx1, lv.lx2, ell).T
    z = g[:, ell:] @ _factor(lv.lz1, lv.lz2, ell).T
    return SampleBatch(x=x, z=z, s=x + z)


def empirical_profile(
    model: SourceModel, k: int, lambda_q: float, n: int, seed: int
) -> list[EmpiricalRD]:
    """Measured MMSE distortion for every j = k..ell from one shared draw.

    Reconstruction uses the exact conditional mean given the j noisy channel
    outputs V = X + (Z + Q), Z + Q drawn whole with covariance Gamma_Z +
    lambda_q I; the estimate averages the per-sample squared error across
    the j components, with its standard error.
    """
    import numpy as np

    level(model, k)  # the level rule on k
    check_lambda_q(lambda_q)
    ell = model.ell
    js = range(k, ell + 1)
    top = level(model, ell)
    # X, V and the errors are linear in one row of the draw, so they are
    # built once as coefficient rows over its 2*ell columns
    unit = _unit(2 * ell)
    x = _factor(top.lx1, top.lx2, ell) @ unit[:ell]
    v = x + _factor(top.lz1 + lambda_q, top.lz2 + lambda_q, ell) @ unit[ell:]
    a2 = top.lx2 / (top.ls2 + lambda_q)
    errors = []
    for j in js:
        # the conditional mean of X is (Gamma_S + lq I)^{-1} Gamma_X v, per mode
        lv = level(model, j, "j")
        a1 = lv.lx1 / (lv.ls1 + lambda_q)
        errors.append(x[:j] - a2 * v[:j] - (a1 - a2) * v[:j].mean(axis=0))
    scale = np.array(js, dtype=float)[:, None]

    def sums(g: np.ndarray) -> Sums:
        # row j - k of p is the squared error summed over the j components,
        # then scaled to p_j; every square is taken in place, so a block
        # allocates p and one t per j
        p = np.empty((len(errors), len(g)))
        for row, e in zip(p, errors):
            t = e @ g.T
            np.square(t, out=t)
            t.sum(axis=0, out=row)
        p /= scale
        s1 = p.sum(axis=1)
        np.square(p, out=p)
        return s1, p.sum(axis=1)

    mean, se = _stream(n, seed, 2 * ell, sums)
    return [EmpiricalRD(distortion=float(d), stderr=float(e)) for d, e in zip(mean, se)]


def empirical_distortion(
    model: SourceModel, k: int, lambda_q: float, j: int, n: int, seed: int
) -> EmpiricalRD:
    """Measured MMSE distortion at sub-dimension j; the j row of empirical_profile."""
    check_pair(k, j, model.ell)
    return empirical_profile(model, k, lambda_q, n, seed)[j - k]


def _decomposition_moments(
    lv: Level, lambda_w: float, lambda_q: float, n: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Second-moment matrices, with standard errors, of the two residuals at j = lv.k.

    Returns (E[eu eu^T], its SE, E[es es^T], its SE) where eu is the error of
    the U-estimate induced by the S-estimate and es the residual of S given
    (U, decoder output); j x j each.  They read level j alone, from an
    n x 3j draw.
    """
    import numpy as np

    check_lambda_q(lambda_q)
    j, ls1, ls2 = lv.k, lv.ls1, lv.ls2
    # coefficient rows as in empirical_profile, with Gamma_U = Gamma_S - lambda_w I
    unit = _unit(3 * j)
    u = _factor(ls1 - lambda_w, ls2 - lambda_w, j) @ unit[:j]
    s = u + np.sqrt(lambda_w) * unit[j : 2 * j]
    v = s + np.sqrt(lambda_q) * unit[2 * j :]
    # the S-estimate, then the U-estimate from it: (Gamma_S + lq I)^{-1} Gamma_U,
    # per mode (s - lw)/(s + lq)
    b1 = (ls1 - lambda_w) / (ls1 + lambda_q)
    b2 = (ls2 - lambda_w) / (ls2 + lambda_q)
    eu = u - b2 * v - (b1 - b2) * v.mean(axis=0)
    es = s - (u + lambda_w / (lambda_w + lambda_q) * (v - u))
    residuals = np.vstack([eu, es])

    def sums(g: np.ndarray) -> Sums:
        # one whole 2j x 2j Gram per moment (numpy runs e @ e.T as one syrk);
        # only its eu and es diagonal blocks are read
        e = residuals @ g.T
        gram = e @ e.T
        np.square(e, out=e)
        return gram, e @ e.T

    mean, se = _stream(n, seed, 3 * j, sums)
    return mean[:j, :j], se[:j, :j], mean[j:, j:], se[j:, j:]


def decomposition_check(
    model: SourceModel,
    j: int,
    lambda_w: Optional[float],
    lambda_q: float,
    n: int,
    seed: int,
) -> DecompositionReport:
    """Empirically verify the fictitious signal-noise decomposition S = U + W.

    lambda_w must lie in (0, min(lambda_s1(j), lambda_s2)); None takes half that
    bound.  Checks (a) that the error covariance of the derived U-estimate
    matches its closed-form image of the S-estimation error covariance,
    entrywise within 5 standard errors, and (b) that the residual covariance of
    S given (U, decoder output) is diagonal, off-diagonals within 5 SE of 0.
    That residual is es_i = (1 - c) W_i - c Q_i, c = lambda_w/(lambda_w +
    lambda_q): it reads only coordinate i of the independent W and Q, so its
    covariance is diagonal by construction and (b) can fail only by chance.
    """
    import numpy as np

    lv = level(model, j, "j")
    ls1, ls2 = lv.ls1, lv.ls2
    bound = min(ls1, ls2)
    if not bound > 0:
        raise DomainError(f"no lambda_w is admissible at j={j}: min(lambda_s1(j), lambda_s2) = 0")
    lambda_w = 0.5 * bound if lambda_w is None else lambda_w
    if not 0 < lambda_w < bound:
        raise DomainError(
            f"lambda_w={lambda_w:.6g} must lie in (0, {bound:.6g}) for j={j}"
        )
    sigma_emp, sigma_se, delta_emp, delta_se = _decomposition_moments(
        lv, lambda_w, lambda_q, n, seed
    )
    off = ~np.eye(j, dtype=bool)
    if not (sigma_se.all() and delta_se[off].all()):
        raise DomainError(f"lambda_q={lambda_q:.6g} is too small: a z-score's standard error is 0")

    # (a) error covariance of the induced U-estimate vs its closed-form image
    # of the S-estimation error: per mode (s - lw)(lw + lq)/(s + lq), the
    # quotient first so that a large lambda_q cannot overflow the product
    p1 = (ls1 - lambda_w) * ((lambda_w + lambda_q) / (ls1 + lambda_q))
    p2 = (ls2 - lambda_w) * ((lambda_w + lambda_q) / (ls2 + lambda_q))
    sigma_pred = p2 * np.eye(j) + (p1 - p2) / j
    sigma_max = float((np.abs(sigma_emp - sigma_pred) / sigma_se).max())

    # (b) residual of S given (U, decoder output) has diagonal covariance;
    # at j = 1 there is no off-diagonal entry to test
    delta_max = float((np.abs(delta_emp[off]) / delta_se[off]).max(initial=0.0))

    return DecompositionReport(
        lambda_w=lambda_w,
        sigma_max_sigmas=sigma_max,
        delta_offdiag_max_sigmas=delta_max,
        sigma_ok=sigma_max <= 5.0,
        delta_diag_ok=delta_max <= 5.0,
    )

"""Shared fixtures and random-instance generators for the test suite."""
from __future__ import annotations

import numpy as np

from ceord import SymmetricSpec, d_min, validate
from ceord.rdcore import distortion_at_lambda
from ceord.spectra import level


def make_model(gx, rx, gz, rz, ell):
    return validate(SymmetricSpec(gx, rx, ell), SymmetricSpec(gz, rz, ell))


def m0():
    """The worked fixture: unit variances, no correlation, ell = 3."""
    return make_model(1.0, 0.0, 1.0, 0.0, 3)


def random_model(rng: np.random.Generator, ell=None, rho_s_sign=None):
    """A random valid model; rho_s_sign in {None, '+', '-'} constrains rho_s."""
    ell = int(ell if ell is not None else rng.integers(2, 9))
    lo = -1.0 / (ell - 1)
    while True:
        gx = float(rng.uniform(0.3, 3.0))
        gz = float(rng.uniform(0.05, 3.0))
        if rho_s_sign == "+":
            rx = float(rng.uniform(0.0, 0.95))
            rz = float(rng.uniform(0.0, 0.95))
        elif rho_s_sign == "-":
            rx = float(rng.uniform(0.95 * lo, 0.0))
            rz = float(rng.uniform(0.95 * lo, 0.0))
        else:
            rx = float(rng.uniform(0.95 * lo, 0.95))
            rz = float(rng.uniform(0.95 * lo, 0.95))
        model = make_model(gx, rx, gz, rz, ell)
        if model.s.lambda1(ell) > 1e-6 and model.s.lambda2 > 1e-6:
            return model


def random_dk(rng: np.random.Generator, model, k, lo_frac=0.05, hi_frac=0.95):
    """A target distortion strictly inside the valid open interval."""
    lo = d_min(model, k)
    t = float(rng.uniform(lo_frac, hi_frac))
    return lo + t * (model.x.gamma - lo)


def trace_profile_oracle(model, k, lam):
    """d_j via dense matrices: tr(Gx - Gx (Gs + lam I)^{-1} Gx) / j."""
    from ceord import dense

    out = []
    for j in range(k, model.ell + 1):
        gx = dense(model.x, j)
        gs = dense(model.s, j) + lam * np.eye(j)
        out.append(float(np.trace(gx - gx @ np.linalg.solve(gs, gx))) / j)
    return out


def bisect_lambda_oracle(model, k, d_k):
    """lambda_q by bisection on the increasing map lambda -> d_k(lambda)."""
    lo, hi = 0.0, 1.0
    while distortion_at_lambda(level(model, k), hi) < d_k:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if distortion_at_lambda(level(model, k), mid) < d_k:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


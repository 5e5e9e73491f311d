"""Benchmark-side output validation.

Every command's output is checked against oracles written here, independent
of ``ceord``: closed-form two-eigenvalue formulas, a bisection solver for
lambda_q and a dense-trace distortion oracle.  Tolerances follow the
acceptance gate (1e-12 resubstitution, 1e-10 dense trace), loosened where the
output format or the dimension costs digits.  ``check`` returns None when the
output is valid, else a one-line reason.
"""
from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from workloads import observation

LN2 = math.log(2.0)
REGIMES = {"always", "near-dmin", "both-ends", "degenerate-x"}
EXIT_STATISTICAL = 4
DENSE_MAX_ALL = 16  # profiles up to this length are checked densely at every j


class Invalid(Exception):
    pass


def _close(a: float, b: float, rel: float, what: str) -> None:
    if not (isinstance(a, (int, float)) and math.isfinite(a)):
        raise Invalid(f"{what}: non-finite value {a!r}")
    if abs(a - b) > rel * max(1.0, abs(b)):
        raise Invalid(f"{what}: {a!r} != {b!r} (rel tol {rel:g})")


class Model:
    """Eigenvalues of the signal, noise and observation families."""

    def __init__(self, params: tuple):
        self.gx, self.rx, self.gz, self.rz, self.ell = params
        self.gs, self.rs = observation(self.gx, self.rx, self.gz, self.rz)

    def l1(self, which: str, j: int) -> float:
        g, r = self._gr(which)
        return (1.0 + (j - 1) * r) * g

    def l2(self, which: str) -> float:
        g, r = self._gr(which)
        return (1.0 - r) * g

    def _gr(self, which):
        return {"x": (self.gx, self.rx), "z": (self.gz, self.rz), "s": (self.gs, self.rs)}[which]

    def dense(self, which: str, j: int) -> np.ndarray:
        g, r = self._gr(which)
        m = np.full((j, j), r * g)
        np.fill_diagonal(m, g)
        return m

    def d_at(self, j: int, lam: float) -> float:
        """Closed-form d_j(lambda): per-mode MMSE of X given S + Q."""
        tot = 0.0
        for mult, lx, lz, ls in (
            (1, self.l1("x", j), self.l1("z", j), self.l1("s", j)),
            (j - 1, self.l2("x"), self.l2("z"), self.l2("s")),
        ):
            if lx > 0:
                tot += mult * lx * (lz + lam) / (ls + lam)
        return tot / j

    def d_dense(self, j: int, lam: float) -> float:
        """tr(Gx - Gx (Gs + lam I)^-1 Gx) / j with dense j x j matrices."""
        gx = self.dense("x", j)
        gs = self.dense("s", j) + lam * np.eye(j)
        return float(np.trace(gx - gx @ np.linalg.solve(gs, gx))) / j

    def solve(self, k: int, d_k: float) -> float:
        """lambda_q by bisection on the monotone map lambda -> d_k(lambda)."""
        lo, hi = 0.0, 1.0
        while self.d_at(k, hi) < d_k:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.d_at(k, mid) < d_k:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-15 * hi:
                break
        return 0.5 * (lo + hi)

    def rate(self, k: int, lam: float) -> float:
        return (
            math.log(self.l1("s", k) + lam)
            + (k - 1) * math.log(self.l2("s") + lam)
            - k * math.log(lam)
        ) / (2 * k)

    def shrink_ratios(self, k: int, lam: float) -> tuple[float, float]:
        def shrink(ls):
            return ls * lam / (ls + lam)

        mu = shrink(self.l2("s")) / shrink(self.l1("s", k))
        return mu, 1.0 / mu


def _check_lambda(m: Model, k: int, d_k: float, lam: float, rel: float) -> None:
    _close(m.d_at(k, lam), d_k, rel, "lambda_q resubstitution (closed form)")
    _close(m.d_dense(k, lam), d_k, max(rel, 1e-9), "lambda_q resubstitution (dense)")


def _check_profile(m: Model, k: int, lam: float, profile: list, rel: float) -> None:
    js = list(range(k, m.ell + 1))
    if len(profile) != len(js):
        raise Invalid(f"profile has {len(profile)} entries, expected {len(js)}")
    dense_js = set(js) if len(js) <= DENSE_MAX_ALL else {js[0], js[len(js) // 2], js[-1]}
    for j, d in zip(js, profile):
        _close(d, m.d_at(j, lam), max(rel, 1e-11), f"d_{j} (closed form)")
        if j in dense_js:
            _close(d, m.d_dense(j, lam), max(rel, 1e-9), f"d_{j} (dense trace)")


def _rate_out(spec, nats: float) -> float:
    return nats / LN2 if spec.get("bits") else nats


def _csv(text: str, header: list[str], rows: int) -> list[dict]:
    if not text.endswith("\r\n"):
        raise Invalid("CSV output does not end with CRLF")
    reader = list(csv.reader(io.StringIO(text)))
    if not reader or reader[0] != header:
        raise Invalid(f"CSV header {reader[:1]} != {header}")
    if len(reader) - 1 != rows:
        raise Invalid(f"CSV has {len(reader) - 1} rows, expected {rows}")

    def cell(v):
        if v == "":
            return None
        return float(v)

    return [dict(zip(header, map(cell, r))) for r in reader[1:]]


def _json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise Invalid(f"output is not JSON: {e}") from None
    if doc.get("schema_version") != 1:
        raise Invalid("schema_version != 1")
    return doc


def _point_like(spec, m: Model, doc: dict, rel: float) -> float:
    k, d_k = spec["k"], spec["dk"]
    lam = doc["lambda_q"]
    _check_lambda(m, k, d_k, lam, rel)
    return lam


def _conditions(spec, m: Model, cond: dict, lam: float) -> None:
    k = spec["k"]
    mu, nu = m.shrink_ratios(k, lam)
    _close(cond["mu"], mu, 1e-9, "mu")
    _close(cond["nu"], nu, 1e-9, "nu")
    if len(cond["nu_kj"]) != m.ell - k + 1:
        raise Invalid("nu_kj length")
    if cond["regime"] not in REGIMES:
        raise Invalid(f"unknown regime {cond['regime']!r}")
    if (cond["cond1"] is None) != (m.rs < 0):
        raise Invalid("cond1 presence does not match the sign of rho_s")
    if (cond["cond2"] is None) != (m.rs > 0):
        raise Invalid("cond2 presence does not match the sign of rho_s")


def _check_point(spec, m, rc, text):
    doc = _json(text)
    lam = _point_like(spec, m, doc, 1e-12)
    _close(doc["rate"], _rate_out(spec, m.rate(spec["k"], lam)), 1e-12, "rate")
    _check_profile(m, spec["k"], lam, [doc["profile"][str(j)] for j in range(spec["k"], m.ell + 1)], 1e-12)
    _conditions(spec, m, doc["conditions"], lam)


def _check_region(spec, m, rc, text):
    k = spec["k"]
    header, rows = ["j", "d_j"], m.ell - k + 1
    if spec["fmt"] == "csv":
        data = _csv(text, header, rows)
        lam = m.solve(k, spec["dk"])
        rel = 1e-10
    else:
        doc = _json(text)
        data = doc["rows"]
        lam = _point_like(spec, m, doc, 1e-12)
        rel = 1e-12
    if [r["j"] for r in data] != list(range(k, m.ell + 1)):
        raise Invalid("region rows are not j = k..ell")
    _check_profile(m, k, lam, [r["d_j"] for r in data], rel)


def _check_conditions(spec, m, rc, text):
    doc = _json(text)
    _conditions(spec, m, doc["conditions"], m.solve(spec["k"], spec["dk"]))


def _check_verify(spec, m, rc, text):
    doc = _json(text)
    k = spec["k"]
    lam = m.solve(k, spec["dk"])
    _close(doc["rate_bar"], _rate_out(spec, m.rate(k, lam)), 1e-11, "rate_bar")
    nonneg = min(doc["multipliers"].values()) >= 0
    expected = "valid" if nonneg else "conditions-fail"
    if doc["status"] != expected:
        raise Invalid(f"verify status {doc['status']!r}, expected {expected!r}")
    if nonneg and abs(doc["numeric_gap"]) > 1e-6:
        raise Invalid(f"numeric gap {doc['numeric_gap']:.3g} > 1e-6")


def _check_bt(spec, m, rc, text):
    k = spec["k"]
    header = ["subset_size", "required_sum_rate", "provided_sum_rate", "satisfied"]
    if spec["fmt"] == "csv":
        data = _csv(text, header, k)
        rate = None
        ok = all(r["satisfied"] == 1.0 for r in data)
        rel = 1e-10
    else:
        doc = _json(text)
        data = doc["rows"]
        rate = doc["rate"]
        ok = doc["all_satisfied"] and all(r["satisfied"] for r in data)
        rel = 1e-12
    if not ok:
        raise Invalid("symmetric rate point reported outside the region")
    if [r["subset_size"] for r in data] != list(range(1, k + 1)):
        raise Invalid("bt-check rows are not b = 1..k")
    want = _rate_out(spec, m.rate(k, m.solve(k, spec["dk"])))
    if rate is not None:
        _close(rate, want, 1e-11, "rate")
    full = data[-1]
    _close(full["provided_sum_rate"], k * want, max(rel, 1e-11), "full-set provided rate")
    _close(full["required_sum_rate"], full["provided_sum_rate"], 1e-9, "full-set row tightness")


def _check_sweep(spec, m, rc, text):
    k, steps = spec["k"], spec["steps"]
    header = ["d_k", "lambda_q", "rate"] + [f"d_{j}" for j in range(k, m.ell + 1)] + ["cond1", "cond2"]
    if spec["fmt"] == "csv":
        data = _csv(text, header, steps)
        rel = 1e-10
    else:
        data = _json(text)["rows"]
        rel = 1e-12
        if len(data) != steps:
            raise Invalid(f"sweep has {len(data)} rows, expected {steps}")
    prev = -math.inf
    for i, row in enumerate(data):
        d = spec["dk_min"] + (spec["dk_max"] - spec["dk_min"]) * i / (steps - 1) if steps > 1 else spec["dk_min"]
        _close(row["d_k"], d, rel, "sweep d_k grid")
        lam = row["lambda_q"]
        if not lam > prev:
            raise Invalid("lambda_q not increasing along the sweep")
        prev = lam
        _close(m.d_at(k, lam), row["d_k"], max(rel, 1e-12), "sweep lambda_q resubstitution")
        _close(row["rate"], _rate_out(spec, m.rate(k, lam)), max(rel, 1e-12), "sweep rate")
        if i in (0, steps - 1):
            _check_lambda(m, k, row["d_k"], lam, max(rel, 1e-12))
            _check_profile(m, k, lam, [row[f"d_{j}"] for j in range(k, m.ell + 1)], rel)


def _check_simulate(spec, m, rc, text):
    k = spec["k"]
    header = ["j", "analytic", "empirical", "stderr", "sigmas", "pass"]
    if spec["fmt"] == "csv":
        data = _csv(text, header, m.ell - k + 1)
        rel = 1e-10
        all_pass = all(r["pass"] == 1.0 for r in data)
    else:
        doc = _json(text)
        data = doc["rows"]
        rel = 1e-12
        all_pass = doc["all_pass"]
        _check_lambda(m, k, spec["dk"], doc["lambda_q"], 1e-12)
        if doc["n"] != spec["n"] or doc["seed"] != spec["seed"]:
            raise Invalid("simulate echoed the wrong n or seed")
    lam = m.solve(k, spec["dk"])
    _check_profile(m, k, lam, [r["analytic"] for r in data], max(rel, 1e-11))
    for r in data:
        sig = abs(r["empirical"] - r["analytic"]) / r["stderr"]
        _close(r["sigmas"], sig, 1e-6, "simulate sigmas")
        if bool(r["pass"]) != (r["sigmas"] <= 3.0):
            raise Invalid("simulate pass flag disagrees with its sigmas")
        if not 0 < r["stderr"] < 0.1 * r["analytic"]:
            raise Invalid("simulate standard error out of range")
    if (rc == 0) != bool(all_pass):
        raise Invalid(f"simulate exit {rc} disagrees with all_pass={all_pass}")


def _check_decomp(spec, m, rc, text):
    doc = _json(text)
    if doc["j"] != spec["j"] or doc["n"] != spec["n"]:
        raise Invalid("decomp-check echoed the wrong j or n")
    _close(doc["lambda_q"], spec["lambda_q"], 0.0, "decomp-check lambda_q")
    _close(doc["lambda_w"], spec["lambda_w"], 0.0, "decomp-check lambda_w")
    for key in ("sigma_max_sigmas", "delta_offdiag_max_sigmas"):
        if not (math.isfinite(doc[key]) and doc[key] >= 0):
            raise Invalid(f"decomp-check {key} = {doc[key]!r}")
    if doc["sigma_ok"] != (doc["sigma_max_sigmas"] <= 5.0):
        raise Invalid("sigma_ok disagrees with sigma_max_sigmas")
    if doc["delta_diag_ok"] != (doc["delta_offdiag_max_sigmas"] <= 5.0):
        raise Invalid("delta_diag_ok disagrees with delta_offdiag_max_sigmas")
    ok = doc["sigma_ok"] and doc["delta_diag_ok"]
    if doc["all_pass"] != ok or (rc == 0) != ok:
        raise Invalid(f"decomp-check exit {rc} disagrees with all_pass={doc['all_pass']}")


_CHECKS = {
    "point": _check_point,
    "region": _check_region,
    "conditions": _check_conditions,
    "verify": _check_verify,
    "bt-check": _check_bt,
    "sweep": _check_sweep,
    "simulate": _check_simulate,
    "decomp-check": _check_decomp,
}
GATED = ("simulate", "decomp-check")


def check(spec, rc: int, stdout: str) -> str | None:
    """None if the command's exit code and output are valid, else why not.

    Exit 4 from a Monte Carlo command is a statistical outcome, not a
    failure, as long as the output agrees with it.
    """
    allowed = (0, EXIT_STATISTICAL) if spec["cmd"] in GATED else (0,)
    if rc not in allowed:
        return f"{spec['cmd']}: exit code {rc}"
    try:
        _CHECKS[spec["cmd"]](spec, Model(spec["model"]), rc, stdout)
    except Invalid as e:
        return f"{spec['cmd']}: {e}"
    except (KeyError, TypeError, ValueError, IndexError) as e:
        return f"{spec['cmd']}: malformed output ({type(e).__name__}: {e})"
    return None

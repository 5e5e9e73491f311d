"""Acceptance gate: ten numbered criteria, one printed pass/fail line each.

Each test draws its own fixed-seed instances, checks the stated tolerance,
prints "[criterion N] PASS|FAIL ..." on the real stdout (bypassing capture),
and asserts both the numerical bound and the runtime budget.  Beside
criterion 5, an unnumbered property runs its draws at seeds 100-129 and
checks every (k, j).
"""
import math
import time

import numpy as np
import pytest

from ceord import (
    check_conditions,
    check_symmetric_rate,
    d_min,
    decomposition_check,
    dj_lower_bound,
    empirical_profile,
    solve_lambda_q,
    solve_numeric,
    verify_kkt,
)
from ceord.rdcore import distortion_at_lambda, profile_at_lambda, rate_at_lambda
from ceord.spectra import level

from helpers import m0, make_model, random_dk, random_model, trace_profile_oracle
from oracles import degenerate_rate_s1zero, degenerate_rate_s2zero


def report(capfd, num, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num}] {status}: {detail} ({elapsed:.2f}s / budget {budget}s)"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line
    assert elapsed < budget, line


def test_criterion_1_root_solver_fidelity(capfd):
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        m = random_model(rng)
        k = int(rng.integers(1, m.ell + 1))
        d = random_dk(rng, m, k)
        lam = solve_lambda_q(level(m, k), d)
        err = abs(distortion_at_lambda(level(m, k), lam) - d) / d
        worst = max(worst, err)
    report(capfd, 1, worst <= 1e-12, f"resubstitution rel err {worst:.2e} <= 1e-12 on 1000 draws", time.time() - t0, 5)


def test_criterion_2_trace_oracle_equivalence(capfd):
    t0 = time.time()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        m = random_model(rng, ell=int(rng.integers(2, 9)))
        k = int(rng.integers(1, m.ell + 1))
        d = random_dk(rng, m, k)
        lam = solve_lambda_q(level(m, k), d)
        got = profile_at_lambda(level(m, k), lam)
        want = trace_profile_oracle(m, k, lam)
        worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
    report(capfd, 2, worst <= 1e-10, f"profile vs dense trace max dev {worst:.2e} <= 1e-10 on 1000 draws", time.time() - t0, 5)


def test_criterion_3_worked_fixture(capfd):
    t0 = time.time()
    m = m0()
    lam = solve_lambda_q(level(m, 2), 0.75)
    rate = rate_at_lambda(level(m, 2), lam)
    prof = profile_at_lambda(level(m, 2), lam)
    cert = verify_kkt(m, 2, 2, 0.75)
    mult = cert.multipliers
    errs = [
        abs(lam - 2.0),
        abs(rate - 0.25 * math.log(4)),
        abs(prof[0] - 0.75),
        abs(prof[1] - 0.75),
        abs(mult.a1),
        abs(mult.a2),
        abs(mult.b1 - 0.25),
        abs(mult.b2 - 0.25),
        abs(mult.c - 1.0),
        abs(cert.residuals["stationarity_d1"]),
        abs(cert.residuals["stationarity_d2"]),
        abs(cert.residuals["stationarity_delta"]),
    ]
    worst = max(errs)
    report(capfd, 3, worst <= 1e-12 and cert.valid, f"worked fixture max dev {worst:.2e} <= 1e-12", time.time() - t0, 1)


def test_criterion_4_kkt_oracle_agreement(capfd):
    t0 = time.time()
    rng = np.random.default_rng(104)
    checked = 0
    worst_obj = 0.0
    worst_delta = 0.0
    while checked < 200:
        m = random_model(rng, ell=int(rng.integers(2, 6)))
        k = int(rng.integers(1, m.ell + 1))
        d = random_dk(rng, m, k, lo_frac=0.1, hi_frac=0.9)
        j = int(rng.integers(k, m.ell + 1))
        cert = verify_kkt(m, k, j, d)
        mult = cert.multipliers
        if min(mult.b1, mult.b2) < 1e-8:
            continue
        pt, f = solve_numeric(level(m, k), j, d)
        cand = cert.point
        rate = rate_at_lambda(level(m, k), solve_lambda_q(level(m, k), d))
        worst_obj = max(worst_obj, abs(f - rate))
        worst_delta = max(worst_delta, abs(pt.delta - cand.delta))
        checked += 1
    ok = worst_obj <= 1e-6 and worst_delta <= 1e-5
    report(capfd, 4, ok, f"numeric vs certificate: obj dev {worst_obj:.2e} <= 1e-6, delta dev {worst_delta:.2e} <= 1e-5, 200 instances", time.time() - t0, 60)


def test_criterion_5_multiplier_sign_equivalence(capfd):
    t0 = time.time()
    rng = np.random.default_rng(105)
    disagreements = 0
    for i in range(500):
        sign = "+" if i % 2 == 0 else "-"
        m = random_model(rng, rho_s_sign=sign)
        k = int(rng.integers(1, m.ell + 1))
        d = random_dk(rng, m, k)
        rc = check_conditions(m, k, d)
        if sign == "+":
            mult = verify_kkt(m, k, k, d).multipliers
            if (mult.b1 >= -1e-12) != rc.cond1:
                disagreements += 1
        else:
            for j in range(k, m.ell + 1):
                mult = verify_kkt(m, k, j, d).multipliers
                if (mult.b1 >= -1e-12) != rc.cond3[j - k]:
                    disagreements += 1
                if (mult.b2 >= -1e-12) != rc.cond4[j - k]:
                    disagreements += 1
    report(capfd, 5, disagreements == 0, f"{disagreements} sign disagreements over 500 instances", time.time() - t0, 10)


def _sign_disagreements(seed):
    """Criterion 5's draws at seed, checked at every (k, j), k = 1 included.

    For rho_s > 0, cond1 signs b1 and b2 is nonnegative at every j; for
    rho_s < 0, cond3(j) signs b1, cond4(j) signs b2 and, at j = k, so does
    cond2.  Returns the (instance, k, j, name) of each disagreement.
    """
    rng = np.random.default_rng(seed)
    found = []
    for i in range(500):
        sign = "+" if i % 2 == 0 else "-"
        m = random_model(rng, rho_s_sign=sign)
        k = int(rng.integers(1, m.ell + 1))
        d = random_dk(rng, m, k)
        rc = check_conditions(m, k, d)
        for j in range(k, m.ell + 1):
            mult = verify_kkt(m, k, j, d).multipliers
            b1, b2 = mult.b1 >= -1e-12, mult.b2 >= -1e-12
            if sign == "+":
                pairs = [("cond1", rc.cond1, b1), ("b2", True, b2)]
            else:
                pairs = [("cond3", rc.cond3[j - k], b1), ("cond4", rc.cond4[j - k], b2)]
                if j == k:
                    pairs.append(("cond2", rc.cond2, b2))
            found += [(i, k, j, name) for name, cond, ok in pairs if cond != ok]
    return found


@pytest.mark.parametrize("seed", range(100, 130))
def test_conditions_match_multiplier_signs_at_every_pair(seed):
    assert _sign_disagreements(seed) == []


# Each of these seeds draws a k = 1, rho_s < 0 instance whose cond4
# polynomial is negative while b2 = (k-1)(...) is 0.  They disagreed until
# cond2 and cond4 held at k = 1; the other 25 seeds of 100-129 never drew one.
K1_SEEDS = (103, 106, 109, 115, 124)


@pytest.mark.parametrize("seed", K1_SEEDS)
def test_pinned_seeds_reach_a_negative_cond4_polynomial_at_k1(seed):
    rng = np.random.default_rng(seed)
    reached = 0
    for i in range(500):
        m = random_model(rng, rho_s_sign="+" if i % 2 == 0 else "-")
        k = int(rng.integers(1, m.ell + 1))
        d = random_dk(rng, m, k)
        if k == 1 and i % 2 == 1:
            lv = level(m, 1)
            p1, p2 = lv.lx1**2 * lv.ls2**2, lv.lx2**2 * lv.ls1**2
            rc = check_conditions(m, 1, d)
            reached += any((v - 1.0) * p1 * rc.nu**2 + rc.nu * p2 < 0 for v in rc.nu_kj)
            assert rc.cond2 is True and all(rc.cond4)
    assert reached >= 1


def test_criterion_6_lower_bound_closure(capfd):
    t0 = time.time()
    rng = np.random.default_rng(106)
    worst = 0.0
    for i in range(200):
        sign = "+" if i % 2 == 0 else "-"
        m = random_model(rng, rho_s_sign=sign)
        k = int(rng.integers(1, m.ell + 1))
        d = random_dk(rng, m, k)
        prof = profile_at_lambda(level(m, k), solve_lambda_q(level(m, k), d))
        for j in range(k, m.ell + 1):
            p = verify_kkt(m, k, j, d).point
            got = dj_lower_bound(m, k, j, p.delta)
            worst = max(worst, abs(got - prof[j - k]))
    report(capfd, 6, worst <= 1e-10, f"closure max dev {worst:.2e} <= 1e-10, both orderings, 200 instances", time.time() - t0, 10)


def test_criterion_7_degenerate_continuity(capfd):
    t0 = time.time()
    eps = 1e-8
    worst = 0.0
    # repeated eigenvalue at zero (rho_s = 1)
    exact = make_model(1, 1.0, 1, 1.0, 3)
    near = make_model(1, 1 - eps, 1, 1 - eps, 3)
    lo = d_min(exact, 2)
    for d in np.linspace(lo + 0.02, 1 - 0.02, 20):
        rate, d3 = degenerate_rate_s2zero(exact, 2, 3, d)
        lv = level(near, 2)
        lam = solve_lambda_q(lv, d)
        worst = max(worst, abs(rate - rate_at_lambda(lv, lam)))
        worst = max(worst, abs(d3 - profile_at_lambda(lv, lam)[1]))
    # leading eigenvalue at zero (rho_s = -1/(ell-1))
    exact = make_model(1, -0.5, 1, -0.5, 3)
    near = make_model(1, -0.5 + eps, 1, -0.5 + eps, 3)
    lo = d_min(exact, 3)
    for d in np.linspace(lo + 0.02, 1 - 0.02, 20):
        lv = level(near, 3)
        rate = rate_at_lambda(lv, solve_lambda_q(lv, d))
        worst = max(worst, abs(degenerate_rate_s1zero(exact, d) - rate))
    report(capfd, 7, worst <= 1e-5, f"degenerate vs general at offset 1e-8: max dev {worst:.2e} <= 1e-5", time.time() - t0, 5)


def test_criterion_8_rate_region(capfd):
    t0 = time.time()
    rng = np.random.default_rng(108)
    worst_tight = 0.0
    all_ok = True
    for _ in range(200):
        m = random_model(rng, ell=int(rng.integers(2, 6)))
        k = int(rng.integers(1, min(5, m.ell) + 1))
        d = random_dk(rng, m, k)
        rc = check_symmetric_rate(m, k, d)
        all_ok = all_ok and rc.ok
        _, required, _ = rc.constraints[-1]
        worst_tight = max(worst_tight, abs(k * rc.rate - required))
    ok = all_ok and worst_tight <= 1e-10
    report(capfd, 8, ok, f"all subset constraints hold; full-set tightness dev {worst_tight:.2e} <= 1e-10, 200 instances", time.time() - t0, 10)


def test_criterion_9_monte_carlo(capfd):
    t0 = time.time()
    n = 1_000_000
    suite = [
        (make_model(1, 0.0, 1, 0.0, 3), 2),
        (make_model(1, 0.5, 1, 0.0, 3), 2),
        (make_model(1, 0.4, 2, -0.1, 4), 2),
        (make_model(1, -0.3, 1, -0.1, 3), 2),
        (make_model(2, 0.8, 0.5, 0.3, 3), 1),
        (make_model(0.5, 0.2, 3, 0.6, 2), 2),
        (make_model(1, 0.9, 1, 0.9, 4), 3),
        (make_model(1, -0.2, 0.2, -0.15, 5), 4),
        (make_model(3, 0.1, 0.1, 0.0, 3), 3),
        (make_model(1, 0.6, 1, -0.2, 3), 2),
    ]
    assert len(suite) == 10
    worst_sigmas = 0.0
    for idx, (m, k) in enumerate(suite):
        d = 0.5 * (d_min(m, k) + m.x.gamma)
        lam = solve_lambda_q(level(m, k), d)
        prof = profile_at_lambda(level(m, k), lam)
        emps = empirical_profile(m, k, lam, n, seed=900 + idx)
        for emp, analytic in zip(emps, prof, strict=True):
            worst_sigmas = max(worst_sigmas, abs(emp.distortion - analytic) / emp.stderr)
    decomp_ok = True
    worst_decomp = 0.0
    for idx, (m, k) in enumerate([(suite[1][0], 2), (suite[3][0], 2), (suite[2][0], 2)]):
        d = 0.5 * (d_min(m, k) + m.x.gamma)
        lam = solve_lambda_q(level(m, k), d)
        j = m.ell
        lw = 0.5 * min(m.s.lambda1(j), m.s.lambda2)
        rep = decomposition_check(m, j, lw, lam, n, seed=950 + idx)
        decomp_ok = decomp_ok and rep.sigma_ok and rep.delta_diag_ok
        worst_decomp = max(worst_decomp, rep.sigma_max_sigmas, rep.delta_offdiag_max_sigmas)
    ok = worst_sigmas <= 3.0 and decomp_ok
    report(capfd, 9, ok, f"10-model suite: distortion worst {worst_sigmas:.2f} SE <= 3; decomposition worst {worst_decomp:.2f} SE <= 5", time.time() - t0, 120)


def test_criterion_10_matrix_concavity(capfd):
    t0 = time.time()
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(200):
        nn = int(rng.integers(2, 7))
        a1 = rng.standard_normal((nn, nn))
        a1 = a1 @ a1.T + 1e-3 * np.eye(nn)
        a2 = rng.standard_normal((nn, nn))
        a2 = a2 @ a2.T + 1e-3 * np.eye(nn)
        b = rng.standard_normal((nn, nn))
        b = b @ b.T + 1e-3 * np.eye(nn)

        def f(a):
            return np.linalg.inv(np.linalg.inv(a) + np.linalg.inv(b))

        gap = f(0.5 * (a1 + a2)) - 0.5 * (f(a1) + f(a2))
        worst = min(worst, float(np.linalg.eigvalsh(gap).min()))
    report(capfd, 10, worst >= -1e-10, f"concavity gap min eigenvalue {worst:.2e} >= -1e-10 on 200 PSD pairs", time.time() - t0, 5)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceord import (
    CASE_P,
    CASE_PHAT,
    DomainError,
    FeasiblePoint,
    candidate_minimizer,
    check_conditions,
    d_min,
    dense,
    distortion_profile,
    dj_lower_bound,
    kkt_multipliers,
    rate_bar,
    solve_lambda_q,
    solve_numeric,
    verify_kkt,
)
from ceord import converse
from ceord.converse import _delta_cap, _eta_at, _program, verify_at_lambda
from ceord.rdcore import rate_at_lambda
from ceord.spectra import level

from helpers import m0, make_model, random_dk, random_model
from oracles import case_oracle, delta_bound, sigma_identity


def both_ends_bad_d():
    """Distortion on the both-ends fixture where the P certificate fails."""
    m = make_model(1, 0.99, 100, 0.999, 2)
    lo = d_min(m, 2)
    return m, lo + 0.01 * (m.x.gamma - lo)


def eta(m, k, j, p):
    """The program's objective at the point p, on _program's data."""
    lw, ls1, ls2, *_ = _program(level(m, k), j)
    return _eta_at(k, lw, ls1, ls2, p.d1, p.d2, p.delta)


def distortion_lhs(m, k, d1, d2):
    """Left side of the coupled distortion constraint (compared to k*d_k),
    written out from the eigenvalues of the three families."""
    lx1, lz1, ls1 = m.x.lambda1(k), m.z.lambda1(k), m.s.lambda1(k)
    lx2, lz2, ls2 = m.x.lambda2, m.z.lambda2, m.s.lambda2
    t1 = lx1**2 / ls1**2 * d1 + lx1 * lz1 / ls1
    t2 = lx2**2 / ls2**2 * d2 + lx2 * lz2 / ls2
    return t1 + (k - 1) * t2


def certificate_case(m, j):
    """The case on a certificate at sub-dimension j; it does not depend on
    k <= j, lambda_q or d_k, so this takes k = 1, lambda_q = 1 and a mid d_1."""
    return verify_at_lambda(level(m, 1), j, 1.0, 0.5 * (d_min(m, 1) + m.x.gamma)).case


class TestCaseSelection:
    def test_signs(self):
        for case in (certificate_case, case_oracle):
            assert case(m0(), 2) == CASE_P
            assert case(make_model(1, 0.5, 1, 0.1, 3), 3) == CASE_P
            assert case(make_model(1, -0.3, 1, -0.1, 3), 3) == CASE_PHAT

    @pytest.mark.parametrize("j", [10, 0, -5])
    def test_rejects_j_out_of_range(self, j):
        # no j x j block of an ell = 3 family exists, so there is no case to name
        with pytest.raises(DomainError, match=rf"^need 1 <= k <= j <= ell, got k=1, j={j}$"):
            certificate_case(m0(), j)

    @pytest.mark.parametrize(
        "call",
        [
            lambda m, j: candidate_minimizer(m, 2, j, 0.75),
            lambda m, j: kkt_multipliers(m, 2, j, 0.75),
            lambda m, j: verify_kkt(m, 2, j, 0.75),
            lambda m, j: verify_at_lambda(level(m, 2), j, 1.0, 0.75),
            lambda m, j: solve_numeric(level(m, 2), j, 0.75),
            lambda m, j: dj_lower_bound(m, 2, j, 0.5),
            lambda m, j: _program(level(m, 2), j),
        ],
        ids=["candidate", "multipliers", "verify", "at-lambda", "numeric", "dj", "program"],
    )
    @pytest.mark.parametrize(
        "rho, j, message",
        [(1.0, 2, "case P needs"), (1.0, 3, "case P needs"), (-0.5, 3, "case P-hat needs")],
        ids=["rho_s-one-j2", "rho_s-one-j3", "rho_s-min-j-ell"],
    )
    def test_boundary_raises_naming_the_case(self, call, rho, j, message):
        # rho_s = 1 zeroes lambda_s2; rho_s = -1/(ell-1) zeroes lambda_s1(ell)
        m = make_model(1, rho, 1, rho, 3)
        with pytest.raises(DomainError, match=f"^{message} "):
            call(m, j)


class TestObjective:
    def test_m0_value(self):
        # d1 = d2 = delta = harmonic(2, 2) = 1 reaches eta = (1/2) ln 2
        p = FeasiblePoint(1.0, 1.0, 1.0)
        assert eta(m0(), 2, 2, p) == pytest.approx(0.5 * math.log(2), abs=1e-12)

    def test_matches_rate_bar_at_candidate(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            m = random_model(rng)
            k = int(rng.integers(1, m.ell + 1))
            d = random_dk(rng, m, k)
            j = int(rng.integers(k, m.ell + 1))
            val = verify_kkt(m, k, j, d).objective
            if case_oracle(m, j) == CASE_P:
                # program P evaluates at lw = lambda_s2, where delta = d2 and
                # the objective collapses to the achievable rate
                assert val == pytest.approx(rate_bar(m, k, d), rel=1e-10)

    def test_nonpositive_log_rejected(self):
        with pytest.raises(DomainError):
            eta(m0(), 2, 2, FeasiblePoint(1.0, 1.0, 0.0))

    @pytest.mark.parametrize(
        "point",
        [
            FeasiblePoint(math.nan, 0.5, 0.5),
            FeasiblePoint(0.5, 0.5, math.nan),
            FeasiblePoint(0.5, 0.5, math.inf),
        ],
        ids=["d1-nan", "delta-nan", "delta-inf"],
    )
    def test_nan_or_infinite_argument_rejected(self, point):
        # a NaN fails every comparison, so a check written "arg <= 0" let both
        # NaN cases through to a NaN objective, and an infinite delta reached
        # math.log(0) and raised a bare ValueError
        with pytest.raises(DomainError):
            eta(make_model(1, 0.2, 1, 0.1, 4), 2, 3, point)


class TestCandidate:
    def test_m0_point(self):
        p = candidate_minimizer(m0(), 2, 2, 0.75)
        assert (p.d1, p.d2, p.delta) == pytest.approx((1.0, 1.0, 1.0), rel=1e-12)

    def test_distortion_constraint_tight(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            m = random_model(rng)
            k = int(rng.integers(1, m.ell + 1))
            d = random_dk(rng, m, k)
            j = int(rng.integers(k, m.ell + 1))
            p = candidate_minimizer(m, k, j, d)
            lhs = distortion_lhs(m, k, p.d1, p.d2)
            assert lhs == pytest.approx(k * d, rel=1e-10)

    def test_ordering_within_box(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            m = random_model(rng)
            k = int(rng.integers(1, m.ell + 1))
            d = random_dk(rng, m, k)
            j = int(rng.integers(k, m.ell + 1))
            p = candidate_minimizer(m, k, j, d)
            assert 0 < p.d1 < m.s.lambda1(k)
            assert 0 < p.d2 < m.s.lambda2
            assert 0 < p.delta


class TestMultipliers:
    def test_m0_closed_values(self):
        mult = kkt_multipliers(m0(), 2, 2, 0.75)
        assert mult.a1 == 0.0 and mult.a2 == 0.0
        assert mult.c == pytest.approx(1.0, rel=1e-12)
        assert mult.b1 == pytest.approx(0.25, rel=1e-12)
        assert mult.b2 == pytest.approx(0.25, rel=1e-12)

    def test_sign_matches_condition_p(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            m = random_model(rng, rho_s_sign="+")
            k = int(rng.integers(1, m.ell + 1))
            d = random_dk(rng, m, k)
            rc = check_conditions(m, k, d)
            mult = kkt_multipliers(m, k, k, d)
            assert (mult.b1 >= -1e-12) == rc.cond1
            assert mult.b2 >= -1e-12 and mult.c > 0

    def test_sign_matches_condition_phat(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            m = random_model(rng, rho_s_sign="-")
            k = int(rng.integers(1, m.ell + 1))
            d = random_dk(rng, m, k)
            rc = check_conditions(m, k, d)
            for j in range(k, m.ell + 1):
                mult = kkt_multipliers(m, k, j, d)
                assert (mult.b1 >= -1e-12) == rc.cond3[j - k]
                assert (mult.b2 >= -1e-12) == rc.cond4[j - k]

    def test_negative_b1_on_both_ends_fixture(self):
        m, d = both_ends_bad_d()
        mult = kkt_multipliers(m, 2, 2, d)
        assert mult.b1 < 0 and not mult.nonnegative


class TestVerifyKKT:
    def test_m0_valid(self):
        cert = verify_kkt(m0(), 2, 2, 0.75)
        assert cert.valid and not cert.violations
        assert max(abs(v) for v in cert.residuals.values()) < 1e-12
        assert cert.objective == pytest.approx(0.5 * math.log(2), abs=1e-12)

    def test_random_valid_when_conditions_hold(self):
        rng = np.random.default_rng(35)
        checked = 0
        while checked < 60:
            m = random_model(rng)
            k = int(rng.integers(1, m.ell + 1))
            d = random_dk(rng, m, k, lo_frac=0.15, hi_frac=0.85)
            j = int(rng.integers(k, m.ell + 1))
            mult = kkt_multipliers(m, k, j, d)
            if min(mult.b1, mult.b2) < 1e-8:
                continue
            cert = verify_kkt(m, k, j, d)
            assert cert.valid, cert.violations
            checked += 1

    def test_invalid_reports_negative_multiplier(self):
        m, d = both_ends_bad_d()
        cert = verify_kkt(m, 2, 2, d)
        assert not cert.valid
        assert "negative_multiplier" in cert.violations

    @pytest.mark.parametrize("s", range(12))
    def test_moved_candidate_fails_at_every_scale(self, monkeypatch, s):
        # residuals are judged relative to their terms; a d1 moved by 1e-6
        # relative must still fail, whatever the scale of the model
        m = make_model(10.0**-s, 0.0, 10.0**-s, 0.0, 3)
        d = 0.75 * 10.0**-s
        assert verify_kkt(m, 2, 2, d).valid
        candidate = converse._candidate

        def moved(*args):
            p = candidate(*args)
            return FeasiblePoint(p.d1 * (1 + 1e-6), p.d2, p.delta)

        monkeypatch.setattr(converse, "_candidate", moved)
        cert = verify_kkt(m, 2, 2, d)
        assert not cert.valid
        assert {"stationarity_d1", "slack_distortion"} <= set(cert.violations)

    def test_perturbed_point_fails_stationarity(self):
        cert = verify_kkt(m0(), 2, 2, 0.75)
        # move d_k but keep the old candidate frozen by checking a fresh run
        cert2 = verify_kkt(m0(), 2, 2, 0.8)
        assert cert2.valid
        assert cert.point.d1 != cert2.point.d1


class TestVerifyAtLambda:
    """The certificate on a level and a lambda_q, of which verify_kkt is the
    d_k form."""

    @pytest.mark.parametrize("sign", ["+", "-"], ids=["rho_s-positive", "rho_s-negative"])
    def test_equals_verify_kkt_at_every_j(self, sign):
        rng = np.random.default_rng(48 if sign == "+" else 49)
        cases = set()
        for _ in range(40):
            m = random_model(rng, rho_s_sign=sign)
            k = int(rng.integers(1, m.ell + 1))
            d = random_dk(rng, m, k)
            lv = level(m, k)
            lam = solve_lambda_q(lv, d)
            for j in range(k, m.ell + 1):
                cert = verify_at_lambda(lv, j, lam, d)
                assert cert == verify_kkt(m, k, j, d)
                assert cert.case == case_oracle(m, j)
                cases.add(cert.case)
        assert cases == {CASE_P if sign == "+" else CASE_PHAT}

    @pytest.mark.parametrize(
        "lam, d, tol, message",
        [
            (0.0, 0.75, 1e-9, "lambda_q must be positive"),
            (math.nan, 0.75, 1e-9, "lambda_q must be positive"),
            (math.inf, 0.75, 1e-9, "lambda_q must be positive"),
            (2.0, math.nan, 1e-9, "d_k must be finite"),
            (2.0, 0.5, 1e-9, "must exceed d_min"),
            (2.0, 1.0, 1e-9, "must be below gamma_x"),
            (2.0, 0.75, math.nan, "tol must be positive"),
            (2.0, 0.75, 0.0, "tol must be positive"),
        ],
        ids=["lam0", "lam-nan", "lam-inf", "d-nan", "d-floor", "d-gamma-x", "tol-nan", "tol0"],
    )
    def test_rejects_outside_the_domain(self, lam, d, tol, message):
        # a NaN lambda_q, d_k or tol would otherwise leave every residual NaN,
        # which no tolerance flags
        with pytest.raises(DomainError, match=message):
            verify_at_lambda(level(m0(), 2), 3, lam, d, tol)


class TestSolveNumeric:
    def test_agrees_with_candidate_when_valid(self):
        rng = np.random.default_rng(36)
        checked = 0
        while checked < 30:
            m = random_model(rng)
            k = int(rng.integers(1, m.ell + 1))
            d = random_dk(rng, m, k, lo_frac=0.15, hi_frac=0.85)
            j = int(rng.integers(k, m.ell + 1))
            cert = verify_kkt(m, k, j, d)
            if not cert.valid:
                continue
            pt, f = solve_numeric(level(m, k), j, d)
            assert f == pytest.approx(cert.objective, abs=1e-6)
            assert pt.delta == pytest.approx(cert.point.delta, abs=1e-5)
            checked += 1

    def test_strict_gap_when_condition_fails(self):
        m, d = both_ends_bad_d()
        cert = verify_kkt(m, 2, 2, d)
        assert not cert.valid
        _, f = solve_numeric(level(m, 2), 2, d)
        assert cert.objective - f > 0.1

    def test_k1(self):
        m = make_model(1, 0.4, 1, 0.2, 3)
        for d in (0.55, 0.7, 0.85):
            cert = verify_kkt(m, 1, 1, d)
            assert cert.valid
            _, f = solve_numeric(level(m, 1), 1, d)
            assert f == pytest.approx(cert.objective, abs=1e-6)

    def test_numeric_never_above_candidate(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            m = random_model(rng)
            k = int(rng.integers(1, m.ell + 1))
            d = random_dk(rng, m, k, lo_frac=0.15, hi_frac=0.85)
            j = int(rng.integers(k, m.ell + 1))
            obj = verify_kkt(m, k, j, d).objective
            _, f = solve_numeric(level(m, k), j, d)
            assert f <= obj + 1e-8


def reference_reduced(m, k, j, d, case):
    """The oracle's reduced objective in d1, rebuilt from the program's pieces.

    For each d1, d2 takes the rest of the distortion budget and delta the
    smaller of its caps; infeasible d1 map to +inf.  Returns the function and
    the top of its box, hi.
    """
    lx1, ls1 = m.x.lambda1(k), m.s.lambda1(k)
    lx2, ls2 = m.x.lambda2, m.s.lambda2
    lw = ls2 if case == CASE_P else m.s.lambda1(j)
    a1 = lx1**2 / ls1**2
    a2 = (k - 1) * lx2**2 / ls2**2
    budget = k * d - distortion_lhs(m, k, 0.0, 0.0)

    def reduced(d1):
        d2 = min(ls2, (budget - a1 * d1) / a2) if a2 > 0 else ls2
        if d1 <= 0 or d1 > ls1 or a1 * d1 > budget or d2 <= 0:
            return math.inf
        cap2 = d2 if case == CASE_P else _delta_cap(d2, 1.0 / lw - 1.0 / ls2)
        delta = min(_delta_cap(d1, 1.0 / lw - 1.0 / ls1), cap2)
        return _eta_at(k, lw, ls1, ls2, d1, d2, delta) if delta > 0 else math.inf

    return reduced, (ls1 if a1 == 0 else min(ls1, budget / a1))


def reference_two_branch(m, k, j, d, case):
    """The former per-case formulas, P and P-hat written out separately.

    Returns b1, b2, the d2 stationarity residual and the second delta cap
    at the candidate, and the lower bound on d_j as a function of delta.
    """
    lx1, ls1 = m.x.lambda1(k), m.s.lambda1(k)
    lx2, ls2 = m.x.lambda2, m.s.lambda2
    p = candidate_minimizer(m, k, j, d)
    c = kkt_multipliers(m, k, j, d).c
    a1 = lx1**2 / ls1**2
    a2 = lx2**2 / ls2**2
    lw = ls2 if case == CASE_P else m.s.lambda1(j)
    if case == CASE_P:
        b1 = (p.d2 - p.d1 + 2 * k * c * a1 * p.d1**2) / (2 * k * p.d2**2)
        b2 = (k - 1) * c * a2
        terms = (-b2, c * (k - 1) * a2)
        cap2 = p.d2
    else:
        b1 = (p.delta - p.d1 + 2 * k * c * a1 * p.d1**2) / (2 * k * p.delta**2)
        b2 = (
            (k - 1) * (p.delta - p.d2) + 2 * k * (k - 1) * c * a2 * p.d2**2
        ) / (2 * k * p.delta**2)
        terms = (
            (k - 1) * (lw - ls2) / (2 * k * ((ls2 - lw) * p.d2 + ls2 * lw)),
            -b2 * (1.0 + p.d2 / lw - p.d2 / ls2) ** -2,
            c * (k - 1) * a2,
        )
        cap2 = 1.0 / (1.0 / p.d2 + 1.0 / lw - 1.0 / ls2)

    def dj(delta):
        lx1j, ls1j = m.x.lambda1(j), m.s.lambda1(j)
        if case == CASE_P:
            inv = 1.0 / delta + 1.0 / ls1j - 1.0 / ls2
            t1 = lx1j**2 / ls1j**2 / inv + lx1j - lx1j**2 / ls1j
            t2 = lx2**2 / ls2**2 * delta + lx2 - lx2**2 / ls2
        else:
            inv = 1.0 / delta + 1.0 / ls2 - 1.0 / ls1j
            t1 = lx1j**2 / ls1j**2 * delta + lx1j - lx1j**2 / ls1j
            t2 = lx2**2 / ls2**2 / inv + lx2 - lx2**2 / ls2
        return t1 / j + (j - 1) * t2 / j

    return dict(b1=b1, b2=b2, stat_d2=sum(terms), terms=terms, cap2=cap2, dj=dj)


class TestOneProgram:
    """The library's one program at lambda_W = min(lambda_s1(j), lambda_s2)
    against the former per-case formulas."""

    @pytest.mark.parametrize("sign, case", [("+", CASE_P), ("-", CASE_PHAT)], ids=["P", "P-hat"])
    def test_matches_two_branch_reference(self, sign, case):
        rng = np.random.default_rng(44 if case == CASE_P else 45)
        for _ in range(500):
            m = random_model(rng, rho_s_sign=sign)
            k = int(rng.integers(1, m.ell + 1))
            d = random_dk(rng, m, k, lo_frac=0.01, hi_frac=0.99)
            j = int(rng.integers(k, m.ell + 1))
            assert case_oracle(m, j) == case
            ref = reference_two_branch(m, k, j, d, case)
            cert = verify_kkt(m, k, j, d)
            lw = m.s.lambda2 if case == CASE_P else m.s.lambda1(j)
            assert lw == min(m.s.lambda1(j), m.s.lambda2)
            mult = cert.multipliers
            assert mult.b1 == pytest.approx(ref["b1"], rel=1e-13, abs=0)
            assert mult.b2 == pytest.approx(ref["b2"], rel=1e-13, abs=0)
            cap2 = _delta_cap(cert.point.d2, 1.0 / lw - 1.0 / m.s.lambda2)
            assert cap2 == pytest.approx(ref["cap2"], rel=1e-13, abs=0)
            scale = max(abs(t) for t in ref["terms"])
            assert abs(cert.residuals["stationarity_d2"] - ref["stat_d2"]) <= 1e-14 * scale
            for delta in (cert.point.delta, 0.5 * cert.point.delta):
                got = dj_lower_bound(m, k, j, delta)
                assert got == pytest.approx(ref["dj"](delta), rel=1e-13, abs=0)


def reference_solve_numeric(m, k, j, d, case):
    """The former oracle's optimum: a 257-point grid, then scipy's bounded
    Brent search on the bracket around the best grid point, then the bracket
    ends and hi."""
    minimize_scalar = pytest.importorskip("scipy.optimize").minimize_scalar
    reduced, hi = reference_reduced(m, k, j, d, case)
    grid = np.linspace(hi * 1e-9, hi * (1.0 - 1e-12), 257)
    best = int(np.argmin([reduced(t) for t in grid]))
    lo_b, hi_b = grid[max(0, best - 1)], grid[min(len(grid) - 1, best + 1)]
    res = minimize_scalar(
        reduced, bounds=(lo_b, hi_b), method="bounded",
        options={"xatol": 1e-13 * hi, "maxiter": 500},
    )
    return min([res.fun] + [reduced(t) for t in (lo_b, hi_b, hi)])


@st.composite
def oracle_instances(draw):
    """A random model with rho_s of either sign, and (k, j, d_k) inside it."""
    ell = draw(st.integers(2, 8), label="ell")
    # rho_s >= 0 gives program P at every j, rho_s < 0 program P-hat
    bound = 0.95 if draw(st.booleans(), label="rho_s >= 0") else -0.95 / (ell - 1)
    gx = draw(st.floats(0.3, 3.0), label="gamma_x")
    gz = draw(st.floats(0.05, 3.0), label="gamma_z")
    rx = bound * draw(st.floats(0.0, 1.0), label="rho_x / bound")
    rz = bound * draw(st.floats(0.0, 1.0), label="rho_z / bound")
    m = make_model(gx, rx, gz, rz, ell)
    k = draw(st.integers(1, ell), label="k")
    j = draw(st.integers(k, ell), label="j")
    lo = d_min(m, k)
    d = lo + draw(st.floats(0.05, 0.95), label="d_k fraction") * (m.x.gamma - lo)
    return m, k, j, d


class TestGoldenSectionOracle:
    def test_reduced_objective_is_convex(self):
        # the premise of the golden-section search: no negative second
        # difference of the reduced objective on a fine grid
        rng = np.random.default_rng(42)
        for i in range(100):
            m = random_model(rng, rho_s_sign="+-"[i % 2])
            k = int(rng.integers(1, m.ell + 1))
            d = random_dk(rng, m, k, lo_frac=0.01, hi_frac=0.99)
            j = int(rng.integers(k, m.ell + 1))
            reduced, hi = reference_reduced(m, k, j, d, case_oracle(m, j))
            f = np.array([reduced(t) for t in np.linspace(hi * 1e-9, hi * (1 - 1e-12), 401)])
            assert np.isfinite(f).all()
            assert (f[:-2] - 2 * f[1:-1] + f[2:]).min() >= 0.0

    def test_matches_reduced_objective(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            m = random_model(rng)
            k = int(rng.integers(1, m.ell + 1))
            d = random_dk(rng, m, k)
            j = int(rng.integers(k, m.ell + 1))
            case = case_oracle(m, j)
            pt, f = solve_numeric(level(m, k), j, d)
            reduced, _ = reference_reduced(m, k, j, d, case)
            assert f == reduced(pt.d1)

    def test_never_above_reference_on_criterion_4_instances(self):
        # the instances of acceptance criterion 4 (same generator and seed)
        rng = np.random.default_rng(104)
        checked = 0
        while checked < 200:
            m = random_model(rng, ell=int(rng.integers(2, 6)))
            k = int(rng.integers(1, m.ell + 1))
            d = random_dk(rng, m, k, lo_frac=0.1, hi_frac=0.9)
            j = int(rng.integers(k, m.ell + 1))
            case = case_oracle(m, j)
            mult = kkt_multipliers(m, k, j, d)
            if min(mult.b1, mult.b2) < 1e-8:
                continue
            _, f = solve_numeric(level(m, k), j, d)
            assert f <= reference_solve_numeric(m, k, j, d, case) + 1e-12
            checked += 1

    def test_top_of_box_probe_at_k1(self):
        # at k = 1 the minimum sits at hi = budget / a1, where a1 * hi may
        # round above the budget; the probe must still be feasible there
        rng = np.random.default_rng(11)
        for i in range(1000):
            m = random_model(rng, rho_s_sign="+-"[i % 2])
            d = random_dk(rng, m, 1, lo_frac=0.01, hi_frac=0.99)
            j = int(rng.integers(1, m.ell + 1))
            _, f = solve_numeric(level(m, 1), j, d)
            assert f <= verify_kkt(m, 1, j, d).objective + 1e-13

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(instance=oracle_instances())
    def test_agrees_with_certificate(self, instance):
        m, k, j, d = instance
        cert = verify_kkt(m, k, j, d)
        pt, f = solve_numeric(level(m, k), j, d)
        # the candidate is feasible; where the minimum sits at the top of the
        # box the search stops 1e-12 * hi short of it
        assert f <= cert.objective + 1e-11
        if min(cert.multipliers.b1, cert.multipliers.b2) >= 1e-8:
            lam = solve_lambda_q(level(m, k), d)
            assert abs(f - rate_at_lambda(level(m, k), lam)) <= 1e-6
            assert abs(pt.delta - cert.point.delta) <= 1e-5


class TestDjLowerBound:
    def test_closure_both_cases(self):
        rng = np.random.default_rng(38)
        for sign in ("+", "-"):
            for _ in range(50):
                m = random_model(rng, rho_s_sign=sign)
                k = int(rng.integers(1, m.ell + 1))
                d = random_dk(rng, m, k)
                prof = distortion_profile(m, k, d)
                for j in range(k, m.ell + 1):
                    p = candidate_minimizer(m, k, j, d)
                    got = dj_lower_bound(m, k, j, p.delta)
                    assert got == pytest.approx(prof[j - k], rel=1e-10)

    def test_monotone_in_delta(self):
        m = make_model(1, 0.5, 1, 0.1, 3)
        vals = [dj_lower_bound(m, 2, 3, t) for t in np.linspace(0.05, 0.6, 20)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_delta(self):
        with pytest.raises(DomainError):
            dj_lower_bound(m0(), 2, 3, 0.0)

    @pytest.mark.parametrize("delta", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_nan_or_infinite_delta(self, delta):
        # a NaN delta passed "delta <= 0" and the bound came out NaN
        with pytest.raises(DomainError, match="delta must be positive and finite"):
            dj_lower_bound(make_model(1, 0.2, 1, 0.1, 4), 2, 3, delta)

    # rho_x = 0.5, rho_z = 0 at ell = 3: lambda_W = lambda_s2 = 1.5 and
    # lambda_s1(3) = 3, so the first mode's cap (1/delta + 1/3 - 1/1.5)^-1
    # has no positive value from delta = 1/(1/1.5 - 1/3) = 3 on
    @pytest.mark.parametrize("delta", [2.9, math.nextafter(3.0, 0.0)], ids=["2.9", "below-3"])
    def test_finite_below_the_inner_inverse_threshold(self, delta):
        m = make_model(1, 0.5, 1, 0.0, 3)
        got = dj_lower_bound(m, 1, 3, delta)
        assert 0 < got < math.inf

    @pytest.mark.parametrize(
        "delta", [3.0, math.nextafter(3.0, 4.0), 10.0], ids=["3", "above-3", "10"]
    )
    def test_rejects_delta_at_or_above_the_inner_inverse_threshold(self, delta):
        m = make_model(1, 0.5, 1, 0.0, 3)
        assert _delta_cap(delta, 1.0 / m.s.lambda1(3) - 1.0 / m.s.lambda2) == math.inf
        with pytest.raises(DomainError, match="^nonpositive inner inverse in lower bound$"):
            dj_lower_bound(m, 1, 3, delta)


class TestSigmaIdentity:
    def test_gamma_u_equals_gamma_s(self):
        gs = dense(m0().s, 3)
        d = np.diag([0.2, 0.3, 0.4])
        assert sigma_identity(gs, gs, d) == pytest.approx(d, abs=1e-12)

    def test_zero_error(self):
        gs = dense(m0().s, 3)
        gu = gs - 0.5 * np.eye(3)
        want = gu - gu @ np.linalg.solve(gs, gu)
        got = sigma_identity(gu, gs, np.zeros((3, 3)))
        assert got == pytest.approx(want, abs=1e-12)

    def test_gaussian_channel_consistency(self):
        # with D the test-channel error covariance, the identity must equal
        # the direct error covariance of the shifted signal from the outputs
        rng = np.random.default_rng(39)
        for _ in range(30):
            m = random_model(rng, ell=4)
            lam = float(rng.uniform(0.1, 5.0))
            lw = 0.5 * min(m.s.lambda1(4), m.s.lambda2)
            gs = dense(m.s, 4)
            gu = gs - lw * np.eye(4)
            cov_v = gs + lam * np.eye(4)
            d = gs - gs @ np.linalg.solve(cov_v, gs)
            want = gu - gu @ np.linalg.solve(cov_v, gu)
            got = sigma_identity(gu, gs, d)
            assert got == pytest.approx(want, abs=1e-9)

    def test_rejects_singular_gamma_s(self):
        with pytest.raises(DomainError):
            sigma_identity(np.eye(2), np.zeros((2, 2)), np.eye(2))


class TestDeltaBound:
    def test_gaussian_channel_equality(self):
        # D from the test channel makes the bound exactly the conditional
        # covariance of the residual: harmonic(lambda_q, lambda_w) I
        rng = np.random.default_rng(40)
        for _ in range(20):
            m = random_model(rng, ell=3)
            lam = float(rng.uniform(0.1, 5.0))
            lw = 0.4 * min(m.s.lambda1(3), m.s.lambda2)
            gs = dense(m.s, 3)
            d = gs - gs @ np.linalg.solve(gs + lam * np.eye(3), gs)
            got = delta_bound(d, lw, gs)
            want = 1.0 / (1.0 / lam + 1.0 / lw) * np.eye(3)
            assert got == pytest.approx(want, abs=1e-9)

    def test_small_lambda_w_limit(self):
        gs = dense(m0().s, 2)
        d = 0.5 * np.eye(2)
        lw = 1e-8
        assert delta_bound(d, lw, gs) == pytest.approx(lw * np.eye(2), rel=1e-6)

    def test_rejects_indefinite_inner(self):
        gs = dense(m0().s, 2)
        with pytest.raises(DomainError):
            delta_bound(10.0 * np.eye(2), 100.0, gs)

    def test_rejects_nonpositive_lambda_w(self):
        with pytest.raises(DomainError):
            delta_bound(np.eye(2), 0.0, np.eye(2))


class TestMatrixConcavity:
    def _rand_pd(self, rng, n):
        a = rng.standard_normal((n, n))
        return a @ a.T + 0.1 * np.eye(n)

    def test_midpoint_concavity(self):
        # f(A) = (A^{-1} + B^{-1})^{-1} is matrix concave in A
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            a1 = self._rand_pd(rng, n)
            a2 = self._rand_pd(rng, n)
            b = self._rand_pd(rng, n)

            def f(a):
                return np.linalg.inv(np.linalg.inv(a) + np.linalg.inv(b))

            gap = f(0.5 * (a1 + a2)) - 0.5 * (f(a1) + f(a2))
            assert np.linalg.eigvalsh(gap).min() >= -1e-10

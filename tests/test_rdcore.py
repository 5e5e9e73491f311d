import math

import numpy as np
import pytest

from ceord import (
    DomainError,
    ModelError,
    check_conditions,
    classify_regime,
    d_min,
    degenerate_rate_s1zero,
    degenerate_rate_s2zero,
    dense,
    distortion_profile,
    mu_nu,
    rate_bar,
    solve_lambda_q,
)
from ceord.rdcore import (
    _shrink,
    conditions_at_lambda,
    distortion_at_lambda,
    profile_at_lambda,
    rate_at_lambda,
)
from ceord.spectra import level

from helpers import (
    bisect_lambda_oracle,
    m0,
    make_model,
    random_dk,
    random_model,
    trace_profile_oracle,
)
from oracles import matching_conditions


class TestSolveLambdaQ:
    def test_m0_closed_form(self):
        # at rho = 0 every mode is identical: (1 + lam)/(2 + lam) = d
        assert solve_lambda_q(level(m0(), 2), 0.75) == pytest.approx(2.0, rel=1e-12)

    def test_k1_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = random_model(rng)
            d = random_dk(rng, m, 1)
            gx, gz, gs = m.x.gamma, m.z.gamma, m.s.gamma
            want = (d * gs - gx * gz) / (gx - d)
            assert solve_lambda_q(level(m, 1), d) == pytest.approx(want, rel=1e-12)

    def test_boundary_rejected(self):
        m = m0()
        with pytest.raises(DomainError, match="d_min"):
            solve_lambda_q(level(m, 2), 0.5)
        with pytest.raises(DomainError, match="gamma_x"):
            solve_lambda_q(level(m, 2), 1.0)

    def test_resubstitution(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            m = random_model(rng)
            k = int(rng.integers(1, m.ell + 1))
            d = random_dk(rng, m, k)
            lam = solve_lambda_q(level(m, k), d)
            assert distortion_at_lambda(level(m, k), lam) == pytest.approx(d, rel=1e-12)

    def test_monotone_in_d(self):
        m = make_model(1, 0.5, 1, 0, 3)
        lo = d_min(m, 2)
        grid = np.linspace(lo + 0.01, 1 - 0.01, 50)
        lams = [solve_lambda_q(level(m, 2), d) for d in grid]
        assert all(a < b for a, b in zip(lams, lams[1:]))

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            m = random_model(rng, ell=int(rng.integers(2, 257)))
            k = int(rng.integers(1, m.ell + 1))
            d = random_dk(rng, m, k, lo_frac=1e-6, hi_frac=1 - 1e-6)
            want = bisect_lambda_oracle(m, k, d)
            assert solve_lambda_q(level(m, k), d) == pytest.approx(want, rel=1e-12)

    # Each case zeroes the constant term of the quadratic, so the wrong
    # root there is 0; resubstitution shows the positive one is returned.
    @pytest.mark.parametrize(
        "params, k",
        [
            ((1.0, 0.4, 2.0, -0.1, 4), 1),  # k = 1: no repeated mode
            ((1.0, 1.0, 1.0, 0.2, 4), 3),  # lambda_x2 = 0
            ((1.0, 1.0, 1.0, 1.0, 3), 2),  # lambda_s2 = 0 (rho_s = 1)
            ((1.0, -1 / 3, 1.0, 0.1, 4), 4),  # lambda_x1 = 0 at k = ell
            ((0.5, -1.0, 0.5, -1.0, 2), 2),  # lambda_s1 = lambda_x1 = 0
        ],
        ids=["k1", "x2zero", "s2zero", "x1zero", "s1zero"],
    )
    def test_degenerate_spectra_resubstitute(self, params, k):
        m = make_model(*params)
        lo = d_min(m, k)
        for t in (1e-6, 0.3, 0.7, 1 - 1e-6):
            d = lo + t * (m.x.gamma - lo)
            lam = solve_lambda_q(level(m, k), d)
            assert lam > 0
            assert distortion_at_lambda(level(m, k), lam) == pytest.approx(d, rel=1e-12)
            assert lam == pytest.approx(bisect_lambda_oracle(m, k, d), rel=1e-9)

    def test_noiseless_floor(self):
        # d_min = 0 and d_k below the resolution of gamma_x: c = k gamma_x
        # carries no trace of d_k, the distance to d_min must
        m = make_model(1e6, 0.5, 0.0, 0.0, 3)
        for d in (1e-11, 1e-9, 1e-6):
            lam = solve_lambda_q(level(m, 2), d)
            assert distortion_at_lambda(level(m, 2), lam) == pytest.approx(d, rel=1e-12)
            assert lam == pytest.approx(bisect_lambda_oracle(m, 2, d), rel=1e-12)

    @pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf])
    def test_non_finite_dk_rejected(self, d):
        with pytest.raises(DomainError, match="finite"):
            solve_lambda_q(level(m0(), 2), d)


class TestScaleInvariance:
    """Scaling every variance by s scales d_min and d_k by s and leaves
    the rate unchanged; the domain checks must not depend on s."""

    SCALES = [float(f"1e{e}") for e in range(-60, 61)]

    @staticmethod
    def scaled(m, s):
        return make_model(s * m.x.gamma, m.x.rho, s * m.z.gamma, m.z.rho, m.ell)

    def test_dmin_and_rate(self):
        # unit-variance models stay in the domain at every scale; a random
        # model is rejected where a scaled variance leaves [1e-60, 1e60]
        rng = np.random.default_rng(12)
        models = [m0(), make_model(1, 1, 1, 1, 3), make_model(1, -0.5, 1, -0.5, 3)]
        models += [random_model(rng) for _ in range(5)]
        for i, m in enumerate(models):
            k = 2
            d = random_dk(rng, m, k)
            for s in self.SCALES:
                gx, gz = s * m.x.gamma, s * m.z.gamma
                if i >= 3 and not (1e-60 <= gx <= 1e60 and gz <= 1e60):
                    with pytest.raises(ModelError, match="gamma_x <= 1e"):
                        self.scaled(m, s)
                    continue
                ms = self.scaled(m, s)
                for j in range(1, m.ell + 1):
                    assert d_min(ms, j) == pytest.approx(s * d_min(m, j), rel=1e-12, abs=0)
                assert rate_bar(ms, k, s * d) == pytest.approx(rate_bar(m, k, d), rel=1e-12)

    def test_negative_eigenvalue_rejected(self):
        # rho_x = -1 at ell = 3: lambda_x1 = -gamma_x
        for s in self.SCALES:
            with pytest.raises(ModelError, match="leading eigenvalue"):
                make_model(s, -1.0, s, 0.0, 3)

    @pytest.mark.parametrize("s", [1e-61, 1e-80, 1e-100, 1e-300, 1e61, 1e80, 1e100, 1e308])
    def test_variance_outside_the_domain_rejected(self, s):
        # beyond both ends products of four eigenvalues underflow or overflow
        with pytest.raises(ModelError, match="gamma_x <= 1e"):
            self.scaled(m0(), s)

    def test_domain_ends_admitted(self):
        make_model(1e-60, 0.0, 1e60, 0.0, 3)
        make_model(1e60, 0.0, 0.0, 0.0, 3)
        make_model(1.0, 0.0, 1e-300, 0.0, 3)
        with pytest.raises(ModelError, match="gamma_z <= 1e"):
            make_model(1.0, 0.0, 1e61, 0.0, 3)


class TestRateBar:
    def test_m0_worked_value(self):
        assert rate_bar(m0(), 2, 0.75) == pytest.approx(0.25 * math.log(4), abs=1e-12)

    def test_k1(self):
        assert rate_bar(m0(), 1, 0.75) == pytest.approx(0.5 * math.log(2), abs=1e-12)

    def test_logdet_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = random_model(rng)
            k = int(rng.integers(1, m.ell + 1))
            d = random_dk(rng, m, k)
            lam = solve_lambda_q(level(m, k), d)
            cov = dense(m.s, k) + lam * np.eye(k)
            want = (np.linalg.slogdet(cov)[1] - k * math.log(lam)) / (2 * k)
            assert rate_bar(m, k, d) == pytest.approx(want, abs=1e-10)

    def test_vanishes_at_high_distortion(self):
        m = m0()
        assert rate_bar(m, 2, 1 - 1e-9) < 1e-8

    def test_strictly_decreasing(self):
        m = make_model(1, 0.3, 2, -0.1, 4)
        lo = d_min(m, 3)
        grid = np.linspace(lo + 0.005, 1 - 0.005, 50)
        rates = [rate_bar(m, 3, d) for d in grid]
        assert all(a > b for a, b in zip(rates, rates[1:]))


class TestDistortionProfile:
    def test_m0_flat(self):
        assert distortion_profile(m0(), 2, 0.75) == pytest.approx((0.75, 0.75))

    def test_first_entry_is_dk(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            m = random_model(rng)
            k = int(rng.integers(1, m.ell + 1))
            d = random_dk(rng, m, k)
            assert distortion_profile(m, k, d)[0] == pytest.approx(d, abs=1e-10)

    def test_trace_oracle_correlated_fixture(self):
        m = make_model(1, 0.5, 1, 0, 3)
        lam = solve_lambda_q(level(m, 2), 0.6)
        want = trace_profile_oracle(m, 2, lam)
        assert distortion_profile(m, 2, 0.6) == pytest.approx(want, abs=1e-10)

    def test_bounds_and_monotone_in_d(self):
        m = make_model(1, 0.4, 1.5, 0.2, 4)
        lo = d_min(m, 2)
        grid = np.linspace(lo + 0.01, 1 - 0.01, 50)
        profiles = [distortion_profile(m, 2, d) for d in grid]
        for p, d in zip(profiles, grid):
            for j, v in zip(range(2, 5), p):
                assert d_min(m, j) < v < m.x.gamma
        for a, b in zip(profiles, profiles[1:]):
            assert all(x < y for x, y in zip(a, b))


class TestProfileAtLambda:
    """The one-loop profile is distortion_at_lambda at each j, to the bit."""

    @staticmethod
    def assert_matches(m, k, lam):
        want = tuple(distortion_at_lambda(level(m, j), lam) for j in range(k, m.ell + 1))
        assert profile_at_lambda(level(m, k), lam) == want

    def test_random_models(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            m = random_model(rng, ell=int(rng.integers(2, 70)))
            k = int(rng.integers(1, m.ell + 1))
            self.assert_matches(m, k, solve_lambda_q(level(m, k), random_dk(rng, m, k)))

    @pytest.mark.parametrize("ell", [2, 3, 7, 64])
    @pytest.mark.parametrize("lam", [1e-9, 0.3, 2.0, 1e9])
    def test_degenerate_signal_modes(self, ell, lam):
        # lambda_x1(ell) = 0 at rho_x = -1/(ell-1), lambda_x2 = 0 at rho_x = 1
        for rx in (-1.0 / (ell - 1), 1.0):
            m = make_model(1.3, rx, 0.7, 0.2, ell)
            assert min(m.x.lambda1(ell), m.x.lambda2) <= 1e-12 * m.x.gamma
            for k in range(1, ell + 1, max(1, ell // 5)):
                self.assert_matches(m, k, lam)


class TestMuNu:
    def test_m0_unity(self):
        mu, nu, nu_kj = mu_nu(m0(), 2, 0.75)
        assert mu == pytest.approx(1.0) and nu == pytest.approx(1.0)
        assert nu_kj == pytest.approx((1.0, 1.0))

    def test_s2zero_mu_vanishes(self):
        m = make_model(1, 1.0, 1, 1.0, 3)
        lam = 2.0
        ls1, ls2 = m.s.lambda1(3), m.s.lambda2
        assert ls2 == 0.0
        mu = (ls2 * lam / (ls2 + lam)) / (ls1 * lam / (ls1 + lam))
        assert mu == 0.0

    def test_schur_form_agreement(self):
        # mu against its verbatim Schur-complement form
        cases = [(make_model(1, 0.5, 1, 0, 3), 3, 0.6)]
        rng = np.random.default_rng(8)
        for _ in range(50):
            mm = random_model(rng)
            k = int(rng.integers(1, mm.ell + 1))
            cases.append((mm, k, random_dk(rng, mm, k)))
        for m, k, d in cases:
            lam = solve_lambda_q(level(m, k), d)
            ls1, ls2 = m.s.lambda1(k), m.s.lambda2
            mu_raw = (ls2 - ls2 * ls2 / (ls2 + lam)) / (ls1 - ls1 * ls1 / (ls1 + lam))
            mu = mu_nu(m, k, d)[0]
            assert abs(mu - mu_raw) <= 1e-12 * max(1.0, abs(mu))

    def test_reciprocity(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            m = random_model(rng)
            k = int(rng.integers(1, m.ell + 1))
            mu, nu, nu_kj = mu_nu(m, k, random_dk(rng, m, k))
            assert mu * nu == pytest.approx(1.0, rel=1e-12)
            assert nu_kj[0] == pytest.approx(nu, rel=1e-12)

    def test_mu_bounds_and_decreasing(self):
        m = make_model(1, 0.6, 1, 0.2, 3)
        assert m.s.rho > 0
        ratio = m.s.lambda2 / m.s.lambda1(3)
        lo = d_min(m, 3)
        grid = np.linspace(lo + 0.003, 1 - 0.003, 50)
        mus = [mu_nu(m, 3, d)[0] for d in grid]
        assert all(ratio < v < 1 for v in mus)
        assert all(a > b for a, b in zip(mus, mus[1:]))


class TestConditions:
    def test_m0(self):
        rep = check_conditions(m0(), 2, 0.75)
        assert rep.cond1 is True and rep.cond2 is True
        assert rep.regime == "always"

    def test_j_equals_k_relations(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            m = random_model(rng, rho_s_sign="-")
            k = int(rng.integers(1, m.ell + 1))
            rep = check_conditions(m, k, random_dk(rng, m, k))
            # first cond3 entry is vacuous, first cond4 entry mirrors cond2
            assert rep.cond3[0] is True
            assert rep.cond4[0] == rep.cond2

    def test_branch_applicability(self):
        m_pos = make_model(1, 0.6, 1, 0.2, 3)
        rep = check_conditions(m_pos, 2, random_dk(np.random.default_rng(0), m_pos, 2))
        assert rep.cond2 is None and all(v is None for v in rep.cond3)
        m_neg = make_model(1, -0.3, 1, -0.1, 3)
        rep = check_conditions(m_neg, 2, random_dk(np.random.default_rng(0), m_neg, 2))
        assert rep.cond1 is None and rep.cond2 is not None


class TestConditionOracle:
    # the boundary models: rho_s = 1, rho_s = -1/(ell-1), gamma_z = 0 at
    # both signs of rho_s, and the degenerate-x fixture
    BOUNDARY = [
        (1, 1.0, 1, 1.0, 3),
        (1, -0.5, 1, -0.5, 3),
        (1, 0.3, 0, 0.0, 3),
        (1, -0.2, 0, 0.0, 4),
        (1, -1.0, 2, 0.6, 2),
    ]

    @staticmethod
    def cases():
        for params in TestConditionOracle.BOUNDARY:
            m = make_model(*params)
            for k in range(1, m.ell + 1):
                lo = d_min(m, k)
                for t in (0.1, 0.5, 0.9):
                    yield m, k, lo + t * (m.x.gamma - lo)
        rng = np.random.default_rng(12)
        for sign in ("+", "-") * 40:
            m = random_model(rng, rho_s_sign=sign)
            k = int(rng.integers(1, m.ell + 1))
            for _ in range(3):
                yield m, k, random_dk(rng, m, k)

    def test_conditions_match_oracle(self):
        n_false = 0
        for m, k, d in self.cases():
            rep = check_conditions(m, k, d)
            want = matching_conditions(m, k, solve_lambda_q(level(m, k), d))
            for key in ("cond1", "cond2", "cond3", "cond4"):
                assert getattr(rep, key) == want[key], (m, k, d, key)
            for key in ("mu", "nu"):
                got = getattr(rep, key)
                assert (got is None) == (want[key] is None), (m, k, d, key)
                if got is not None:
                    assert got == pytest.approx(want[key], rel=1e-14)
            assert [v is None for v in rep.nu_kj] == [v is None for v in want["nu_kj"]]
            if want["nu"] is not None:
                assert rep.nu_kj == pytest.approx(want["nu_kj"], rel=1e-14)
            n_false += [rep.cond2, *rep.cond3, *rep.cond4].count(False)
        assert n_false > 0  # the sample reaches failing conditions too

    def test_nu_kj_is_the_shrinkage_ratio(self):
        # the inlined loop against _shrink and SymmetricSpec.lambda1, to the bit
        for m, k, d in self.cases():
            lam = solve_lambda_q(level(m, k), d)
            ls2, js = m.s.lambda2, range(k, m.ell + 1)
            want = (None,) * len(js)
            if ls2 > 0:
                want = tuple(
                    _shrink(ls1, lam) / _shrink(ls2, lam) if (ls1 := m.s.lambda1(j)) > 0 else 0.0
                    for j in js
                )
            assert conditions_at_lambda(level(m, k), lam).nu_kj == want, (m, k, d)

    def test_mu_nu_is_the_ratio_part(self):
        for m, k, d in self.cases():
            rep = check_conditions(m, k, d)
            assert mu_nu(m, k, d) == (rep.mu, rep.nu, rep.nu_kj)


class TestRegimes:
    def test_m0_always(self):
        for k in (1, 2, 3):
            assert classify_regime(level(m0(), k)).regime == "always"

    @pytest.mark.parametrize("k", [0, 4])
    def test_rejects_k_out_of_range(self, k):
        with pytest.raises(DomainError, match="out of range"):
            classify_regime(level(m0(), k))

    def test_scenario_a_roots_below_ratio(self):
        m = make_model(1, -0.8, 4, 0.21, 2)
        rep = classify_regime(level(m, 2))
        assert m.s.rho >= 0 and rep.regime == "always"
        assert rep.roots is not None
        ratio = m.s.lambda2 / m.s.lambda1(2)
        assert rep.roots[1] <= ratio

    def test_both_ends_fixture(self):
        m = make_model(1, 0.99, 100, 0.999, 2)
        rep = classify_regime(level(m, 2))
        assert rep.regime == "both-ends"
        assert 0 < rep.roots[0] < rep.roots[1] < 1

    def test_degenerate_x(self):
        m = make_model(1, -1.0, 2, 0.6, 2)
        assert m.x.lambda1(2) == pytest.approx(0.0)
        rep = classify_regime(level(m, 2))
        assert rep.regime == "degenerate-x"
        assert rep.roots == pytest.approx((0.0, 1.0))

    def test_always_implies_condition_on_grid(self):
        rng = np.random.default_rng(11)
        found = 0
        while found < 10:
            m = random_model(rng)
            k = int(rng.integers(1, m.ell + 1))
            rep = classify_regime(level(m, k))
            if rep.regime != "always":
                continue
            found += 1
            lo = d_min(m, k)
            for d in np.linspace(lo, m.x.gamma, 52)[1:-1]:
                cr = check_conditions(m, k, d)
                if m.s.rho >= 0:
                    assert cr.cond1 is True
                else:
                    assert cr.cond2 is True


class TestDegenerate:
    def test_s2zero_j_equals_k_identity(self):
        m = make_model(1, 1.0, 1, 1.0, 3)
        for d in (0.6, 0.75, 0.9):
            rate, dj = degenerate_rate_s2zero(m, 2, 2, d)
            assert dj == pytest.approx(d, rel=1e-12)

    def test_s2zero_worked_value(self):
        m = make_model(1, 1.0, 1, 1.0, 3)
        rate, _ = degenerate_rate_s2zero(m, 2, 2, 0.75)
        assert rate == pytest.approx(0.25 * math.log(2), abs=1e-12)

    def test_s2zero_continuity(self):
        exact = make_model(1, 1.0, 1, 1.0, 3)
        near = make_model(1, 1 - 1e-8, 1, 1 - 1e-8, 3)
        lo = d_min(exact, 2)
        for d in np.linspace(lo + 0.02, 1 - 0.02, 20):
            rate, d3 = degenerate_rate_s2zero(exact, 2, 3, d)
            assert rate == pytest.approx(rate_bar(near, 2, d), abs=1e-5)
            assert d3 == pytest.approx(distortion_profile(near, 2, d)[1], abs=1e-5)

    def test_s1zero_worked_value(self):
        # gamma_x = gamma_z = 0.5 at full anticorrelation: lambda2 eigens (1, 1, 2)
        m = make_model(0.5, -1.0, 0.5, -1.0, 2)
        assert m.s.lambda1(2) == pytest.approx(0.0)
        assert degenerate_rate_s1zero(m, 0.375) == pytest.approx(
            0.25 * math.log(2), abs=1e-12
        )

    def test_s1zero_continuity(self):
        exact = make_model(1, -0.5, 1, -0.5, 3)
        near = make_model(1, -0.5 + 1e-8, 1, -0.5 + 1e-8, 3)
        lo = d_min(exact, 3)
        for d in np.linspace(lo + 0.02, 1 - 0.02, 20):
            assert degenerate_rate_s1zero(exact, d) == pytest.approx(
                rate_bar(near, 3, d), abs=1e-5
            )

    @pytest.mark.parametrize("j", [1, 4])
    def test_s2zero_rejects_j_out_of_range(self, j):
        with pytest.raises(DomainError, match="need 1 <= k <= j <= ell"):
            degenerate_rate_s2zero(make_model(1, 1.0, 1, 1.0, 3), 2, j, 0.75)

    @pytest.mark.parametrize(
        "k, d, message",
        [
            (2, 1.5, "must be below gamma_x"),
            (2, math.nan, "must be finite"),
            (2, math.inf, "must be finite"),
            (0, 0.75, r"k=0 out of range \[1, 3\]"),
        ],
        ids=["above-gamma-x", "nan", "inf", "k0"],
    )
    def test_s2zero_follows_the_d_k_rule(self, k, d, message):
        # a floor check alone gave a negative rate and d_3 > gamma_x above
        # gamma_x, NaN for NaN, and math's errors for inf and k = 0
        with pytest.raises(DomainError, match=message):
            degenerate_rate_s2zero(make_model(1, 1.0, 1, 1.0, 3), k, 3, d)

    def test_s2zero_floor_above_d_min_near_the_boundary(self):
        # lambda_s2 = 1e-12 is within PSD_SLACK of 0, and d_min^(2) lies below
        # the closed form's floor gamma_x gamma_z / gamma_s: a d_k between the
        # two passes the d_k rule and must not reach the logarithm
        m = make_model(1, 1.0, 1e-6, 1 - 1e-6, 3)
        floor = m.x.gamma * m.z.gamma / m.s.gamma
        assert d_min(m, 2) < floor
        with pytest.raises(DomainError, match="at or below the distortion floor"):
            degenerate_rate_s2zero(m, 2, 3, 0.5 * (d_min(m, 2) + floor))

    @pytest.mark.parametrize(
        "d, message",
        [(1.5, "must be below gamma_x"), (math.nan, "must be finite")],
        ids=["above-gamma-x", "nan"],
    )
    def test_s1zero_follows_the_d_k_rule_at_ell(self, d, message):
        # a floor check alone gave a negative rate above gamma_x and NaN for NaN
        with pytest.raises(DomainError, match=message):
            degenerate_rate_s1zero(make_model(1, -0.5, 1, -0.5, 3), d)

    def test_s2zero_requires_a_zero_repeated_eigenvalue(self):
        with pytest.raises(DomainError, match="repeated observation eigenvalue"):
            degenerate_rate_s2zero(m0(), 2, 2, 0.75)

    def test_s1zero_requires_a_zero_leading_eigenvalue(self):
        with pytest.raises(DomainError, match="leading observation eigenvalue"):
            degenerate_rate_s1zero(m0(), 0.75)

    def test_s1zero_nonpositive_log_rejected(self):
        m = make_model(0.5, -1.0, 0.5, -1.0, 2)
        with pytest.raises(DomainError):
            degenerate_rate_s1zero(m, 0.2)

    def test_s2zero_matches_general_solver_exactly(self):
        # the general closed-form solve also covers the rank-one spectrum
        m = make_model(1, 1.0, 1, 1.0, 3)
        for d in (0.55, 0.75, 0.95):
            rate, d3 = degenerate_rate_s2zero(m, 2, 3, d)
            assert rate == pytest.approx(rate_bar(m, 2, d), rel=1e-10)
            assert d3 == pytest.approx(distortion_profile(m, 2, d)[1], rel=1e-10)

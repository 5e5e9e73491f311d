import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ceord import (
    DomainError,
    RegionCheck,
    SymmetricSpec,
    achievable_point,
    check_symmetric_rate,
    d_min,
    dense,
    distortion_profile,
    rate_bar,
    solve_lambda_q,
    subset_mutual_info,
    validate,
)
from ceord.bergertung import check_rate_at_lambda
from ceord.rdcore import distortion_at_lambda, rate_at_lambda
from ceord.spectra import level

from helpers import m0, make_model, random_dk, random_model


class TestSubsetMutualInfo:
    def test_m0_single_encoder(self):
        # I(S_1; V_1 | V_2) with unit sources, lambda_q = 2
        m = m0()
        cov = dense(m.s, 2) + 2.0 * np.eye(2)
        cond = cov[0, 0] - cov[0, 1] ** 2 / cov[1, 1]
        want = 0.5 * math.log(cond / 2.0)
        assert subset_mutual_info(m, 2.0, 1, 2) == pytest.approx(want, abs=1e-12)

    def test_m0_full_set(self):
        m = m0()
        got = subset_mutual_info(m, 2.0, 2, 2)
        assert got == pytest.approx(0.5 * math.log(4), abs=1e-12)

    def test_entropy_difference_oracle(self):
        # independent route: h(V_B | V_rest) - h(V_B | S_B, V_rest)
        rng = np.random.default_rng(20)

        def check(m, k, bs, lam):
            cov = dense(m.s, k) + lam * np.eye(k)
            full = np.linalg.slogdet(cov)[1]
            for b in bs:
                rest = np.linalg.slogdet(cov[b:, b:])[1] if b < k else 0.0
                want = 0.5 * (full - rest) - 0.5 * b * math.log(lam)
                got = subset_mutual_info(m, lam, b, k)
                assert got == pytest.approx(want, abs=1e-9)

        for _ in range(100):
            m = random_model(rng, ell=5)
            k = int(rng.integers(1, 6))
            b = int(rng.integers(1, k + 1))
            check(m, k, [b], float(rng.uniform(0.05, 10.0)))
        # frontier-wide sizes, every subset size
        for ell in (64, 256):
            for _ in range(2):
                m = random_model(rng, ell=ell)
                for k in (1, ell // 4, ell // 2, ell):
                    check(m, k, range(1, k + 1), float(rng.uniform(0.05, 10.0)))

    def test_monotone_in_b(self):
        m = make_model(1, 0.4, 1, 0.1, 5)
        vals = [subset_mutual_info(m, 0.7, b, 5) for b in range(1, 6)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_diminishing_increments(self):
        # supermodularity of the contra-polymatroid rank function, seen
        # through cardinalities: increments I(b) - I(b-1) increase with b
        rng = np.random.default_rng(21)
        for _ in range(50):
            m = random_model(rng, ell=6)
            lam = float(rng.uniform(0.05, 5.0))
            vals = [subset_mutual_info(m, lam, b, 5) for b in range(1, 6)]
            incs = [b - a for a, b in zip(vals, vals[1:])]
            assert all(x <= y + 1e-12 for x, y in zip(incs, incs[1:]))

    def test_large_noise_limit(self):
        m = m0()
        assert subset_mutual_info(m, 1e9, 2, 2) < 1e-8

    def test_rejects_bad_cardinalities(self):
        with pytest.raises(DomainError):
            subset_mutual_info(m0(), 1.0, 3, 2)
        with pytest.raises(DomainError):
            subset_mutual_info(m0(), 1.0, 0, 2)
        with pytest.raises(DomainError):
            subset_mutual_info(m0(), 0.0, 1, 2)


class TestSymmetricRate:
    def test_full_set_tight(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            m = random_model(rng, ell=int(rng.integers(2, 6)))
            k = int(rng.integers(1, m.ell + 1))
            d = random_dk(rng, m, k)
            rc = check_symmetric_rate(m, k, d)
            b, required, ok = rc.constraints[-1]
            assert b == k and ok
            assert k * rc.rate == pytest.approx(required, abs=1e-10)

    def test_all_constraints_hold(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            m = random_model(rng, ell=5)
            k = int(rng.integers(1, 6))
            d = random_dk(rng, m, k)
            assert check_symmetric_rate(m, k, d).ok

    def test_rate_matches_rate_bar(self):
        m = make_model(1, 0.3, 2, 0.0, 4)
        rc = check_symmetric_rate(m, 3, 0.7)
        assert rc.rate == pytest.approx(rate_bar(m, 3, 0.7), rel=1e-12)


class TestRegionRows:
    """The one-loop region check is subset_mutual_info at each b, to the bit."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(24)
        for _ in range(300):
            m = random_model(rng, ell=int(rng.integers(2, 70)))
            k = int(rng.integers(1, m.ell + 1))
            yield m, k, solve_lambda_q(level(m, k), random_dk(rng, m, k))
        for ell in (2, 3, 7, 64):
            lo = -1.0 / (ell - 1)
            # rho_s = 1 (lambda_s2 = 0), rho_s = -1/(ell-1), gamma_z = 0
            for params in ((1.3, 1.0, 0.7, 1.0), (1.3, lo, 0.7, lo), (1.3, 0.4, 0.0, 0.0)):
                m = make_model(*params, ell)
                for k in range(1, ell + 1, max(1, ell // 5)):
                    for lam in (1e-9, 0.3, 2.0, 1e9):
                        yield m, k, lam

    def test_rows_equal_subset_mutual_info(self):
        for m, k, lam in self.cases():
            rc = check_rate_at_lambda(level(m, k), lam)
            assert rc.rate == rate_at_lambda(level(m, k), lam)
            assert [b for b, _, _ in rc.constraints] == list(range(1, k + 1))
            for b, required, ok in rc.constraints:
                assert required == subset_mutual_info(m, lam, b, k), (m, k, b)
                assert ok == (required - b * rc.rate <= 1e-9 * max(1.0, required))

    def test_rejects_bad_level_and_noise(self):
        m = m0()
        for k in (0, 4):
            with pytest.raises(DomainError, match="out of range"):
                check_rate_at_lambda(level(m, k), 1.0)
        with pytest.raises(DomainError, match="lambda_q"):
            check_rate_at_lambda(level(m, 2), 0.0)


class TestAchievablePoint:
    def test_m0(self):
        lam, rate, profile = achievable_point(m0(), 2, 0.75)
        assert lam == pytest.approx(2.0, rel=1e-12)
        assert rate == pytest.approx(0.25 * math.log(4), abs=1e-12)
        assert profile == pytest.approx((0.75, 0.75))

    def test_consistency_with_solver(self):
        m = make_model(2, 0.5, 0.5, -0.2, 3)
        lam, _, _ = achievable_point(m, 2, 1.2)
        assert lam == pytest.approx(solve_lambda_q(level(m, 2), 1.2), rel=1e-12)
        assert isinstance(check_symmetric_rate(m, 2, 1.2), RegionCheck)


@st.composite
def operating_points(draw):
    """A valid model with ell <= 256, correlations up to both PSD boundaries,
    a cooperation level k and a d_k strictly inside (d_min^(k), gamma_x)."""
    ell = draw(st.integers(2, 256))
    lo = -1.0 / (ell - 1)
    rho = st.one_of(st.sampled_from([lo, 0.0, 1.0]), st.floats(lo, 1.0))
    gx = draw(st.floats(0.1, 10.0))
    gz = draw(st.one_of(st.just(0.0), st.floats(0.01, 10.0)))
    m = validate(SymmetricSpec(gx, draw(rho), ell), SymmetricSpec(gz, draw(rho), ell))
    k = draw(st.integers(1, ell))
    t = draw(st.floats(1e-9, 1.0 - 1e-9))
    dm = d_min(m, k)
    d = dm + t * (gx - dm)
    assume(dm + 1e-9 < d < gx - 1e-9)
    return m, k, d


class TestClosedFormProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(operating_points())
    def test_lambda_resubstitution(self, point):
        m, k, d = point
        lam = solve_lambda_q(level(m, k), d)
        assert lam > 0
        assert abs(distortion_at_lambda(level(m, k), lam) - d) <= 1e-12 * d

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(operating_points())
    def test_region_check(self, point):
        m, k, d = point
        rc = check_symmetric_rate(m, k, d)
        assert rc.ok
        b, required, _ = rc.constraints[-1]
        assert b == k
        assert required == pytest.approx(k * rc.rate, rel=1e-12)
        vals = [0.0] + [req for _, req, _ in rc.constraints]
        incs = [y - x for x, y in zip(vals, vals[1:])]
        slack = 1e-12 * required
        assert all(x <= y + slack for x, y in zip(incs, incs[1:]))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(operating_points())
    def test_profile_non_increasing_in_j(self, point):
        m, k, d = point
        prof = distortion_profile(m, k, d)
        assert all(b <= a * (1 + 1e-12) for a, b in zip(prof, prof[1:]))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(operating_points(), st.floats(1e-3, 0.5))
    def test_rate_strictly_decreasing_in_dk(self, point, s):
        m, k, d = point
        # a larger distortion, at least 5e-10 below gamma_x
        assert rate_bar(m, k, d) > rate_bar(m, k, d + s * (m.x.gamma - d))

import math

import numpy as np
import pytest

from ceord import (
    DomainError,
    ModelError,
    SymmetricSpec,
    basis,
    d_min,
    decomposition_check,
    dense,
    empirical_distortion,
    empirical_profile,
    subset_mutual_info,
    validate,
)
from ceord.bergertung import check_rate_at_lambda
from ceord.converse import verify_at_lambda
from ceord.rdcore import (
    conditions_at_lambda,
    distortion_at_lambda,
    profile_at_lambda,
    rate_at_lambda,
    ratio_conditions,
)
from ceord.spectra import ELL_MAX, level

from helpers import make_model, random_model


class TestValidate:
    def test_entrywise_sum(self):
        m = make_model(1, 0, 1, 0, 3)
        assert m.s.gamma == 2 and m.s.rho == 0

    def test_cancelling_correlations(self):
        m = make_model(1, 0.5, 2, -0.25, 3)
        assert m.s.gamma == 3
        assert m.s.rho == pytest.approx(0.0, abs=1e-15)

    def test_psd_violation_names_eigenvalue(self):
        with pytest.raises(ModelError, match="leading eigenvalue"):
            make_model(1, -0.6, 1, 0, 3)

    def test_rejects_nonpositive_gamma_x(self):
        with pytest.raises(ModelError, match="gamma_x"):
            make_model(0.0, 0, 1, 0, 3)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ModelError):
            validate(SymmetricSpec(1, 0, 3), SymmetricSpec(1, 0, 4))

    def test_ell_bound(self):
        # above 2**53, ell - 1 is not exact in the eigenvalue formulas; a
        # 401-digit ell once overflowed int -> float inside the PSD check
        assert make_model(1, 0, 1, 0, ELL_MAX).ell == 2**53
        for ell in (ELL_MAX + 1, 10**400):
            with pytest.raises(ModelError, match=r"ell must be <= 2\*\*53"):
                make_model(1, 0, 1, 0, ell)

    def test_boundary_rho_admitted(self):
        make_model(1, 1.0, 1, 1.0, 3)
        make_model(1, -0.5, 1, -0.5, 3)

    def test_derived_spec_psd_closure(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = random_model(rng)
            assert m.s.lambda1(m.ell) >= -1e-12
            assert m.s.lambda2 >= -1e-12


class TestEigenvalues:
    def test_closed_form(self):
        spec = SymmetricSpec(1, 0.5, 5)
        assert spec.lambda1(3) == pytest.approx(2.0) and spec.lambda2 == pytest.approx(0.5)

    def test_identity_case(self):
        spec = SymmetricSpec(1, 0.0, 5)
        for j in range(1, 5):
            assert spec.lambda1(j) == 1.0 and spec.lambda2 == 1.0

    def test_rank_one_case(self):
        spec = SymmetricSpec(2, 1.0, 4)
        assert spec.lambda1(4) == pytest.approx(8.0) and spec.lambda2 == pytest.approx(0.0)

    def test_trace_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = random_model(rng)
            for spec in (m.x, m.z, m.s):
                for j in range(1, m.ell + 1):
                    assert spec.lambda1(j) + (j - 1) * spec.lambda2 == pytest.approx(
                        j * spec.gamma, abs=1e-10
                    )

    def test_matches_general_eigensolver(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = random_model(rng)
            j = int(rng.integers(2, m.ell + 1))
            got = np.sort(np.linalg.eigvalsh(dense(m.s, j)))
            want = np.sort([m.s.lambda1(j)] + [m.s.lambda2] * (j - 1))
            assert np.allclose(got, want, atol=1e-10)


class TestLevel:
    """spectra.level writes each eigenvalue with the float operations of the
    SymmetricSpec methods, which is what keeps every output's bytes."""

    @staticmethod
    def models():
        rng = np.random.default_rng(5)
        for _ in range(60):
            yield random_model(rng)
        for ell in (2, 3, 7, 1000):
            lo = -1.0 / (ell - 1)
            # both rho boundaries of each family and of the observation
            for rx, rz in ((1.0, 1.0), (lo, lo), (1.0, lo), (lo, 0.3)):
                yield make_model(1.3e-7, rx, 0.7e5, rz, ell)
                yield make_model(2.9, rx, 0.0, rz, ell)

    def test_fields_equal_the_methods_bit_for_bit(self):
        for m in self.models():
            for k in range(1, m.ell + 1):
                lv = level(m, k)
                want = (
                    k, m.ell,
                    m.x.lambda1(k), m.z.lambda1(k), m.s.lambda1(k),
                    m.x.lambda2, m.z.lambda2, m.s.lambda2,
                    m.x.gamma, m.x.rho, m.z.gamma, m.z.rho, m.s.gamma, m.s.rho,
                )
                assert [float(v).hex() for v in lv] == [float(v).hex() for v in want], (m, k)

    @pytest.mark.parametrize("k", [0, -1, 4, 10**6])
    def test_rejects_a_level_outside_1_ell(self, k):
        m = make_model(1, 0, 1, 0, 3)
        with pytest.raises(DomainError, match=rf"^k={k} out of range \[1, 3\]$"):
            level(m, k)
        with pytest.raises(DomainError, match=rf"^j={k} out of range \[1, 3\]$"):
            level(m, k, "j")


class TestBasis:
    def test_j1(self):
        assert basis(1) == pytest.approx(np.array([[1.0]]))

    def test_rejects_j0(self):
        with pytest.raises(DomainError, match="must be >= 1"):
            basis(0)

    def test_first_column_and_orthogonality(self):
        th = basis(2)
        assert th[:, 0] == pytest.approx(np.full(2, 1 / np.sqrt(2)))
        assert th @ th.T == pytest.approx(np.eye(2), abs=1e-12)

    def test_reconstructs_dense(self):
        spec = SymmetricSpec(1, 0.3, 4)
        th = basis(4)
        lam = np.diag([spec.lambda1(4)] + [spec.lambda2] * 3)
        assert th @ lam @ th.T == pytest.approx(dense(spec, 4), abs=1e-10)


class TestDense:
    def test_identity(self):
        assert dense(SymmetricSpec(1, 0, 2), 2) == pytest.approx(np.eye(2))

    def test_entries(self):
        assert dense(SymmetricSpec(2, 0.5, 3), 2) == pytest.approx(
            np.array([[2.0, 1.0], [1.0, 2.0]])
        )


class TestDMin:
    def test_m0_matrix_oracle(self):
        m = make_model(1, 0, 1, 0, 3)
        j = 2
        gx, gs = dense(m.x, j), dense(m.s, j)
        want = np.trace(gx - gx @ np.linalg.solve(gs, gx)) / j
        assert d_min(m, j) == pytest.approx(want, abs=1e-12)
        assert d_min(m, 2) == pytest.approx(0.5)

    def test_rejects_j0(self):
        with pytest.raises(DomainError, match=r"^j=0 out of range \[1, 3\]$"):
            d_min(make_model(1, 0, 1, 0, 3), 0)

    @pytest.mark.parametrize("j", [4, 10**6])
    def test_rejects_j_above_ell(self, j):
        # no j x j submatrix of an ell = 3 family exists, so it has no floor
        with pytest.raises(DomainError, match=rf"^j={j} out of range \[1, 3\]$"):
            d_min(make_model(1, 0, 1, 0, 3), j)

    def test_noiseless(self):
        m = make_model(1, 0.3, 0.0, 0.0, 3)
        for j in range(1, 4):
            assert d_min(m, j) == pytest.approx(0.0, abs=1e-12)

    def test_rank_one_branch(self):
        m = make_model(1, 1.0, 2, 1.0, 3)
        for j in range(1, 4):
            want = m.x.lambda1(j) * m.z.lambda1(j) / (j * m.s.lambda1(j))
            assert d_min(m, j) == pytest.approx(want)

    def test_monotone_in_j_and_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m = random_model(rng)
            vals = [d_min(m, j) for j in range(1, m.ell + 1)]
            assert all(v >= 0 for v in vals)
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
            if m.z.gamma > 0:
                assert vals[-1] < m.x.gamma


class TestDomainRules:
    """Every public lambda-form checks the level rule and the lambda_q rule of
    spectra; the forms on a level get the level rule from spectra.level."""

    FORMS = {
        "distortion_at_lambda": lambda m, j, lam: distortion_at_lambda(level(m, j, "j"), lam),
        "rate_at_lambda": lambda m, k, lam: rate_at_lambda(level(m, k), lam),
        "profile_at_lambda": lambda m, k, lam: profile_at_lambda(level(m, k), lam),
        "ratio_conditions": lambda m, k, lam: ratio_conditions(level(m, k), lam),
        "conditions_at_lambda": lambda m, k, lam: conditions_at_lambda(level(m, k), lam),
        "check_rate_at_lambda": lambda m, k, lam: check_rate_at_lambda(level(m, k), lam),
        "verify_at_lambda": lambda m, k, lam: verify_at_lambda(level(m, k), m.ell, lam, 0.9),
        "subset_mutual_info": lambda m, k, lam: subset_mutual_info(m, lam, 1, k),
        "empirical_profile": lambda m, k, lam: empirical_profile(m, k, lam, 100, 0),
        "empirical_distortion": lambda m, k, lam: empirical_distortion(m, k, lam, m.ell, 100, 0),
        "decomposition_check": lambda m, j, lam: decomposition_check(m, j, None, lam, 100, 0),
    }
    # (level, lambda_q) outside the domain on M = (1, 0.2, 1, 0.1, ell = 4)
    CASES = {
        "lam0": (2, 0.0),
        "lam-neg": (2, -1.0),
        "lam-nan": (2, math.nan),
        "lam-inf": (2, math.inf),
        "level0": (0, 1.0),
        "level-ell+1": (5, 1.0),
    }
    # 31 of these cases raised no DomainError while each form checked its own
    # inputs, or none: every case of distortion_at_lambda, rate_at_lambda,
    # profile_at_lambda and ratio_conditions and every lambda case of
    # conditions_at_lambda (a ZeroDivisionError, math's ValueError, a NaN, or
    # a result such as () from profile_at_lambda at level ell + 1); lam-inf of
    # check_rate_at_lambda and subset_mutual_info (TestChannel admitted +inf);
    # and level0 of empirical_distortion (its k went unchecked).

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("form", FORMS)
    def test_outside_the_domain_raises_domain_error(self, form, case):
        level, lam = self.CASES[case]
        with pytest.raises(DomainError):
            self.FORMS[form](make_model(1, 0.2, 1, 0.1, 4), level, lam)

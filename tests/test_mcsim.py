import json
import tracemalloc
import warnings

import numpy as np
import pytest

from ceord import (
    DomainError,
    basis,
    decomposition_check,
    dense,
    empirical_distortion,
    empirical_profile,
    sample,
    solve_lambda_q,
)
from ceord import mcsim
from ceord.cli import main
from ceord.mcsim import (
    BLOCK_FLOATS,
    CHUNK,
    _chunks,
    _decomposition_moments,
    _draw,
    _stream,
)
from ceord.rdcore import distortion_at_lambda
from ceord.spectra import level

from helpers import m0, make_model
from oracles import cov_with_se


class TestDeterminism:
    def test_same_seed_identical(self):
        a = sample(m0(), 1000, 7)
        b = sample(m0(), 1000, 7)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.z, b.z)

    def test_different_seed_differs(self):
        a = sample(m0(), 1000, 7)
        b = sample(m0(), 1000, 8)
        assert not np.allclose(a.x, b.x)

    def test_chunk_prefix_stability(self):
        # rows before a chunk boundary do not depend on the total count
        short = _draw(CHUNK, 3, 2)
        long = _draw(CHUNK + 17, 3, 2)
        assert np.array_equal(long[:CHUNK], short)

    @pytest.mark.parametrize(
        "n, cols",
        [(CHUNK + 3, 15), (3, BLOCK_FLOATS + 1)],
        ids=["rows-not-dividing-chunk", "one-row-blocks"],
    )
    def test_block_draw_is_per_chunk_draw(self, n, cols):
        # blocks are consecutive draws from the one SFC64 stream of each chunk
        seed = 9
        want = np.concatenate(
            [
                np.random.Generator(
                    np.random.SFC64(np.random.SeedSequence([seed, idx]))
                ).standard_normal((min(CHUNK, n - start), cols))
                for idx, start in enumerate(range(0, n, CHUNK))
            ]
        )
        assert np.array_equal(_draw(n, seed, cols), want)
        rows = [g.shape[0] for g in _chunks(n, seed, cols)]
        assert sum(rows) == n
        assert max(rows) == max(1, BLOCK_FLOATS // cols) < n

    def test_s_is_sum(self):
        b = sample(m0(), 100, 0)
        assert np.array_equal(b.s, b.x + b.z)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            sample(m0(), 0, 1)


class TestEmpiricalMoments:
    def test_sample_covariance_matches_model(self):
        m = make_model(1, 0.4, 2, -0.1, 4)
        n = 200_000
        b = sample(m, n, 11)
        for arr, spec in ((b.x, m.x), (b.z, m.z), (b.s, m.s)):
            emp, se = cov_with_se(arr)
            dev = np.abs(emp - dense(spec, 4)) / se
            assert dev.max() <= 5.0

    def test_draw_has_standard_normal_moments(self):
        # _stream's standard errors read the fourth moment of the draw
        g = _draw(2 * CHUNK, 5, 2)
        for p, want in ((g, 0.0), (g**2, 1.0), (g**4, 3.0)):
            se = p.std(axis=0, ddof=1) / np.sqrt(len(p))
            assert (np.abs(p.mean(axis=0) - want) / se).max() <= 5.0

    def test_chunks_are_uncorrelated(self):
        # chunk 0 and chunk 1 come from two streams; under independence the
        # sample correlation of two columns has standard error 1/sqrt(rows)
        g = _draw(2 * CHUNK, 5, 2)
        r = np.corrcoef(g[:CHUNK], g[CHUNK:], rowvar=False)[:2, 2:]
        assert (np.abs(r) * np.sqrt(CHUNK)).max() <= 5.0

    def test_cov_with_se_exact_small(self):
        e = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        mean, se = cov_with_se(e)
        assert mean == pytest.approx(e.T @ e / 3)
        assert np.all(se > 0)


class TestEmpiricalDistortion:
    def test_matches_closed_form(self):
        m = make_model(1, 0.4, 1, 0.1, 3)
        k, d = 2, 0.7
        lam = solve_lambda_q(level(m, k), d)
        for j in (2, 3):
            want = distortion_at_lambda(level(m, j), lam)
            got = empirical_distortion(m, k, lam, j, 150_000, 5)
            assert abs(got.distortion - want) <= 3.0 * got.stderr
            assert got.stderr < 0.01

    def test_m0(self):
        lam = solve_lambda_q(level(m0(), 2), 0.75)
        got = empirical_distortion(m0(), 2, lam, 2, 150_000, 9)
        assert abs(got.distortion - 0.75) <= 3.0 * got.stderr

    def test_rejects_bad_j(self):
        with pytest.raises(DomainError):
            empirical_distortion(m0(), 2, 1.0, 4, 100, 0)

    @pytest.mark.parametrize("k", [0, 4])
    def test_profile_rejects_k_out_of_range(self, k):
        with pytest.raises(DomainError, match="out of range"):
            empirical_profile(m0(), k, 1.0, 100, 0)


class TestDecomposition:
    def test_passes_positive_rho(self):
        m = make_model(1, 0.4, 1, 0.1, 3)
        lam = solve_lambda_q(level(m, 2), 0.7)
        bound = min(m.s.lambda1(3), m.s.lambda2)
        rep = decomposition_check(m, 3, 0.5 * bound, lam, 150_000, 13)
        assert rep.sigma_ok and rep.delta_diag_ok

    def test_passes_negative_rho(self):
        m = make_model(1, -0.3, 1, -0.1, 3)
        lam = solve_lambda_q(level(m, 2), 0.7)
        bound = min(m.s.lambda1(3), m.s.lambda2)
        rep = decomposition_check(m, 3, 0.5 * bound, lam, 150_000, 17)
        assert rep.sigma_ok and rep.delta_diag_ok

    def test_lambda_w_interval_respects_spectrum_ordering(self):
        # positive rho_s: the repeated eigenvalue caps lambda_w;
        # negative rho_s: the leading eigenvalue is the smaller cap
        m_pos = make_model(1, 0.4, 1, 0.1, 3)
        m_neg = make_model(1, -0.3, 1, -0.1, 3)
        cap_pos = min(m_pos.s.lambda1(3), m_pos.s.lambda2)
        cap_neg = min(m_neg.s.lambda1(3), m_neg.s.lambda2)
        assert cap_pos == pytest.approx(m_pos.s.lambda2)
        assert cap_neg == pytest.approx(m_neg.s.lambda1(3))
        with pytest.raises(DomainError, match="lambda_w"):
            decomposition_check(m_pos, 3, cap_pos, 1.0, 100, 0)
        with pytest.raises(DomainError, match="lambda_w"):
            decomposition_check(m_neg, 3, cap_neg * 1.01, 1.0, 100, 0)

    @pytest.mark.parametrize("j", [0, 4])
    def test_rejects_j_out_of_range(self, j):
        with pytest.raises(DomainError, match="out of range"):
            decomposition_check(m0(), j, 0.5, 1.0, 100, 0)

    def test_rejects_nonpositive_lambda_w(self):
        with pytest.raises(DomainError):
            decomposition_check(m0(), 2, 0.0, 1.0, 100, 0)

    @pytest.mark.parametrize("rho", [0.4, -0.3])
    def test_default_lambda_w_is_half_the_bound(self, rho):
        # either eigenvalue can be the bound, as in the ordering test above
        m = make_model(1, rho, 1, rho / 4, 3)
        for j in (1, 2, 3):
            rep = decomposition_check(m, j, None, 1.0, 100, 0)
            assert rep.lambda_w == 0.5 * min(m.s.lambda1(j), m.s.lambda2)

    @pytest.mark.parametrize("j", [0, 4, 10**400], ids=["0", "4", "huge"])
    def test_default_lambda_w_checks_j_first(self, j):
        # lambda1(10**400) would overflow converting j to a float
        with pytest.raises(DomainError, match="out of range"):
            decomposition_check(m0(), j, None, 1.0, 100, 0)

    def test_deterministic(self):
        m = m0()
        a = decomposition_check(m, 2, 0.5, 2.0, 20_000, 3)
        b = decomposition_check(m, 2, 0.5, 2.0, 20_000, 3)
        assert a.sigma_max_sigmas == b.sigma_max_sigmas
        assert a.delta_offdiag_max_sigmas == b.delta_offdiag_max_sigmas


# three chunks, the last one ragged
N_STREAM = 2 * CHUNK + 17


def _spectral_factor(spec, ell, shift=0.0):
    """basis(ell) * sqrt(eigenvalues) of the ell x ell covariance of spec + shift*I."""
    lams = np.full(ell, spec.lambda2 + shift)
    lams[0] = spec.lambda1(ell) + shift
    return basis(ell) * np.sqrt(np.maximum(lams, 0.0))


def _profile_draw(model, lam, n, seed):
    """X and the total noise W = Z + Q off the whole n x 2ell draw of the profile."""
    ell = model.ell
    g = _draw(n, seed, 2 * ell)
    x = g[:, :ell] @ _spectral_factor(model.x, ell).T
    w = g[:, ell:] @ _spectral_factor(model.z, ell, lam).T
    return x, w


def _one_shot_distortion(model, lam, j, n, seed):
    """The whole-array estimate: draw everything, then reduce once."""
    x, w = _profile_draw(model, lam, n, seed)
    v = x[:, :j] + w[:, :j]
    gs = dense(model.s, j) + lam * np.eye(j)
    err = x[:, :j] - v @ np.linalg.solve(gs, dense(model.x, j))
    per_sample = np.mean(err**2, axis=1)
    return per_sample.mean(), per_sample.std(ddof=1) / np.sqrt(n)


def _one_shot_residuals(model, j, lw, lq, n, seed):
    """eu and es of decomposition_check computed on the whole n x 3j draw at once."""
    gs = dense(model.s, j)
    gu = gs - lw * np.eye(j)
    g = _draw(n, seed, 3 * j)
    u = g[:, :j] @ _spectral_factor(model.s, j, -lw).T
    s = u + np.sqrt(lw) * g[:, j : 2 * j]
    v = s + np.sqrt(lq) * g[:, 2 * j :]
    shat = v @ np.linalg.solve(gs + lq * np.eye(j), gs)
    eu = u - shat @ np.linalg.solve(gs, gu)
    es = s - (u + lw / (lw + lq) * (v - u))
    return eu, es


class TestStreaming:
    @pytest.mark.parametrize(
        "params",
        [(1, 0.4, 2, -0.1, 4), (1, 1.0, 2, -0.1, 4), (1, -0.2, 0.2, -0.15, 5)],
        ids=["rho_s-positive", "rho_x-one", "rho_s-negative"],
    )
    # rows j = 1..ell, j = 2..ell, and the one row j = ell
    @pytest.mark.parametrize("k", [1, 2, None], ids=["k=1", "k=2", "k=ell"])
    def test_profile_matches_one_shot_oracle(self, params, k):
        m = make_model(*params)
        k = m.ell if k is None else k
        lam = solve_lambda_q(level(m, k), 0.7)
        rows = empirical_profile(m, k, lam, N_STREAM, 21)
        assert len(rows) == m.ell - k + 1
        for j, row in zip(range(k, m.ell + 1), rows):
            got = [row.distortion, row.stderr]
            want = _one_shot_distortion(m, lam, j, N_STREAM, 21)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            # the j row of the profile, the same arithmetic on the same draw
            assert empirical_distortion(m, k, lam, j, N_STREAM, 21) == row

    @pytest.mark.parametrize(
        "params",
        [(1, 0.4, 2, -0.1, 4), (1, 1.0, 2, -0.1, 4), (1, -0.2, 0.2, -0.15, 5)],
        ids=["rho_s-positive", "rho_x-one", "rho_s-negative"],
    )
    def test_total_noise_has_the_law_of_z_plus_q(self, params):
        # W drawn whole has covariance Gamma_Z + lambda_q I, the law of Z + Q
        m = make_model(*params)
        lam = solve_lambda_q(level(m, 2), 0.7)
        x, w = _profile_draw(m, lam, N_STREAM, 21)
        for e, want in ((x, dense(m.x, m.ell)), (w, dense(m.z, m.ell) + lam * np.eye(m.ell))):
            cov, se = cov_with_se(e)
            assert np.all(np.abs(cov - want) <= 5 * se)

    @pytest.mark.parametrize(
        "params",
        [(1, 0.4, 2, -0.1, 4), (1, 1.0, 2, -0.1, 4), (1, -0.2, 0.2, -0.15, 5)],
        ids=["rho_s-positive", "rho_x-one", "rho_s-negative"],
    )
    def test_sample_is_the_2ell_draw(self, params):
        # X off the first ell columns of one n x 2ell draw, Z off the last ell
        m, n, seed = make_model(*params), 1000, 11
        g = _draw(n, seed, 2 * m.ell)
        b = sample(m, n, seed)
        assert np.array_equal(b.x, g[:, : m.ell] @ _spectral_factor(m.x, m.ell).T)
        assert np.array_equal(b.z, g[:, m.ell :] @ _spectral_factor(m.z, m.ell).T)

    @pytest.mark.parametrize(
        "params, j",
        [
            ((1, -0.3, 1, -0.1, 3), 3),
            ((1, -0.3, 1, -0.1, 3), 1),
            ((1, 0.4, 2, -0.1, 4), 4),
            ((1, 0.4, 2, -0.1, 4), 1),
        ],
        ids=["rho_s-neg-j=ell", "rho_s-neg-j=1", "rho_s-pos-j=ell", "rho_s-pos-j=1"],
    )
    def test_decomposition_matches_one_shot_oracle(self, params, j):
        m = make_model(*params)
        lq, seed = 1.3, 23
        lw = 0.5 * min(m.s.lambda1(j), m.s.lambda2)
        eu, es = _one_shot_residuals(m, j, lw, lq, N_STREAM, seed)
        sig, sig_se = cov_with_se(eu)
        dlt, dlt_se = cov_with_se(es)
        got = _decomposition_moments(level(m, j), lw, lq, N_STREAM, seed)
        for streamed, oracle in zip(got, (sig, sig_se, dlt, dlt_se)):
            np.testing.assert_allclose(streamed, oracle, rtol=1e-10, atol=0)
        gs = dense(m.s, j)
        gu = gs - lw * np.eye(j)
        a = np.linalg.solve(gs, gu)
        d_s = gs - gs @ np.linalg.solve(gs + lq * np.eye(j), gs)
        pred = a.T @ d_s @ a + gu - gu @ a
        off = ~np.eye(j, dtype=bool)
        rep = decomposition_check(m, j, lw, lq, N_STREAM, seed)
        assert rep.sigma_max_sigmas == pytest.approx(
            float((np.abs(sig - pred) / sig_se).max()), rel=1e-10
        )
        assert rep.delta_offdiag_max_sigmas == pytest.approx(
            float((np.abs(dlt[off]) / dlt_se[off]).max(initial=0.0)), rel=1e-10
        )

    @staticmethod
    def _ragged(monkeypatch, p):
        """Make _stream read the columns of p in chunks of 1000, 1500 and 507."""
        parts = np.array_split(p, [1000, 2500], axis=1)
        monkeypatch.setattr(mcsim, "_chunks", lambda n, seed, cols: iter(parts))
        return p.shape[1]

    @staticmethod
    def _power_sums(g):
        return g.sum(axis=1), (g * g).sum(axis=1)

    def test_stream_equals_whole_array_moments(self, monkeypatch):
        p = np.random.default_rng(4).standard_normal((2, 3007)) * [[1.0], [1e3]] + 5.0
        n = self._ragged(monkeypatch, p)
        mean, se = _stream(n, 0, 2, self._power_sums)
        np.testing.assert_allclose(mean, np.mean(p, axis=1), rtol=1e-13)
        np.testing.assert_allclose(
            se, np.std(p, axis=1, ddof=1) / np.sqrt(n), rtol=1e-13
        )

    def test_stream_product_block(self, monkeypatch):
        e = np.random.default_rng(5).standard_normal((3, 3007))
        n = self._ragged(monkeypatch, e)

        def sums(g):
            sq = g * g
            return g @ g.T, sq @ sq.T

        mean, se = _stream(n, 0, 3, sums)
        prod = e[:, None, :] * e[None, :, :]
        np.testing.assert_allclose(mean, prod.mean(axis=2), rtol=1e-12)
        np.testing.assert_allclose(
            se, prod.std(axis=2, ddof=1) / np.sqrt(n), rtol=1e-12
        )

    def test_stream_zero_statistic_has_zero_se(self, monkeypatch):
        p = np.random.default_rng(6).standard_normal((3, 3007))
        p[1] = 0.0
        # a constant for which sum p^2 - n mean^2 rounds below 0
        p[2] = 0.7
        n = self._ragged(monkeypatch, p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, se = _stream(n, 0, 3, self._power_sums)
        assert mean[1] == 0.0 and se[1] == 0.0
        assert se[0] > 0.0 and 0.0 <= se[2] < 1e-15

    def test_one_draw_per_command(self, monkeypatch, capsys):
        calls = []
        draw = mcsim._chunk_normals

        def counting(seed, idx, m, cols):
            calls.append((idx, cols))
            return draw(seed, idx, m, cols)

        monkeypatch.setattr(mcsim, "_chunk_normals", counting)
        argv = ["--gamma-x", "1", "--rho-x", "0.4", "--gamma-z", "2", "--rho-z", "-0.1"]
        argv += ["--ell", "4", "--n", str(N_STREAM), "--seed", "2"]
        code = main(["simulate", *argv, "--k", "2", "--dk", "0.7"])
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert code in (0, 4) and len(rows) == 3
        # ceil(n / CHUNK) chunks of X and Z + Q for all three j-rows
        assert calls == [(0, 8), (1, 8), (2, 8)]
        calls.clear()
        code = main(["decomp-check", *argv, "--lambda-q", "1.0"])
        capsys.readouterr()
        assert code in (0, 4)
        assert calls == [(0, 12), (1, 12), (2, 12)]  # U, W and Q at j = ell = 4


class TestMemory:
    """Memory is one block of the draw, whatever n."""

    N = 2 * CHUNK + 1

    @pytest.mark.parametrize(
        "run, cols",
        [
            (lambda m, n: empirical_profile(m, 1, solve_lambda_q(level(m, 1), 0.6), n, 3), 10),
            (
                lambda m, n: decomposition_check(
                    m, 5, 0.5 * min(m.s.lambda1(5), m.s.lambda2), 1.3, n, 3
                ),
                15,
            ),
        ],
        ids=["profile-k=1", "decomposition-j=5"],
    )
    def test_peak_is_one_block(self, monkeypatch, run, cols):
        # cols: 2ell for X and Z + Q; 3j for U, W and Q
        m = make_model(1, -0.2, 0.2, -0.15, 5)
        sizes = []
        stream = mcsim._stream

        def guarded(n, seed, cols, sums):
            def block_sums(g):
                sizes.append(g.size)
                return sums(g)

            return stream(n, seed, cols, block_sums)

        monkeypatch.setattr(mcsim, "_stream", guarded)
        tracemalloc.start()
        try:
            run(m, self.N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6  # a whole chunk of the draw alone is 5.2 or 7.9 MB
        assert sum(sizes) == self.N * cols
        assert max(sizes) <= max(BLOCK_FLOATS, cols)


class TestDegenerateInputs:
    def test_rejects_single_sample(self):
        lam = solve_lambda_q(level(m0(), 2), 0.75)
        with pytest.raises(DomainError, match="n must be >= 2"):
            empirical_profile(m0(), 2, lam, 1, 0)
        with pytest.raises(DomainError, match="n must be >= 2"):
            decomposition_check(m0(), 2, 0.5, lam, 1, 0)

    @pytest.mark.parametrize("lq", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_bad_lambda_q(self, lq):
        with pytest.raises(DomainError, match="lambda_q"):
            empirical_distortion(m0(), 2, lq, 2, 100, 0)
        with pytest.raises(DomainError, match="lambda_q"):
            decomposition_check(m0(), 2, 0.5, lq, 100, 0)

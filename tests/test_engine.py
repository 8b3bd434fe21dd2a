import dataclasses
import math
import warnings
import weakref

import numpy as np
import pytest
from _util import (capped_warning, explicit_run_budget, make_spectrum, random_pair, record_rows,
                   spectrum_gap, structured_pair)

from rgsv import (
    ConvergenceError,
    DimensionError,
    ExtractionConfig,
    GmpPair,
    GsvOptions,
    GsvSpectrum,
    RankDeficiencyError,
    RecoveryError,
    ValidationError,
    classify_spectrum,
    compare,
    compute_gsv,
    frobenius_norm,
    gaussian_matrix,
    perturbation_bound,
    recover_gsvd,
    residual_norm,
    run,
)
import rgsv.engine
from rgsv import SynthSpec, extract_basis, synth_gmp
from rgsv.core import reduced_qr
from rgsv.engine import _side_config, spectrum_from_l_blocks


class TestGmpPair:
    def test_column_mismatch(self):
        with pytest.raises(DimensionError):
            GmpPair(np.eye(3), np.eye(4))

    def test_rank_deficient_stack(self):
        # construction no longer factors the stack; the rank test runs
        # where the stack is first factored
        u = gaussian_matrix(4, 1, seed=0)
        g = u @ u.T  # rank 1
        pair = GmpPair(g, g)
        for method in ("direct", "randomized"):
            with pytest.raises(RankDeficiencyError):
                compute_gsv(pair, GsvOptions(method=method))
        with pytest.raises(RankDeficiencyError):
            pair.stack_pinv_norm

    def test_too_few_rows(self):
        with pytest.raises(RankDeficiencyError):
            GmpPair(gaussian_matrix(2, 6, seed=1), gaussian_matrix(3, 6, seed=2))

    def test_field_promotion(self):
        pair = GmpPair(np.eye(2), 1j * np.eye(2))
        assert pair.g1.dtype == np.complex128
        assert pair.g2.dtype == np.complex128

    def test_shape_properties(self):
        pair = random_pair(7, 5, 4, seed=3)
        assert (pair.m, pair.p, pair.n) == (7, 5, 4)
        assert pair.stacked().shape == (12, 4)


class TestGsvSpectrum:
    def test_rejects_pythagorean_violation(self):
        with pytest.raises(ValidationError):
            GsvSpectrum(np.array([0.9, 0.5]), np.array([0.9, 0.5]), r=0, s=2)

    def test_rejects_bad_ordering(self):
        with pytest.raises(ValidationError):
            GsvSpectrum(np.array([0.5, 0.9]), np.sqrt(1 - np.array([0.5, 0.9]) ** 2), r=0, s=2)

    def test_rejects_unsnapped_zero_blocks(self):
        a = np.array([1.0, 0.5])
        b = np.array([1e-13, math.sqrt(1 - 0.25)])
        with pytest.raises(ValidationError):
            GsvSpectrum(a, b, r=1, s=1)

    @pytest.mark.parametrize("alphas, betas, r", [
        ([math.nan, 0.6], [math.nan, 0.8], 0),  # every comparison with NaN is false
        ([0.8, math.nan], [0.6, 0.8], 0),
        ([1.0, 0.6], [0.0, math.nan], 1),
    ])
    def test_rejects_nan(self, alphas, betas, r):
        with pytest.raises(ValidationError):
            GsvSpectrum(np.array(alphas), np.array(betas), r=r, s=2 - r)
        with pytest.raises(ValidationError):
            classify_spectrum(alphas, betas)

    def test_counts(self):
        spec = make_spectrum([1.0, 0.6, 0.0], [0.0, 0.8, 1.0])
        assert (spec.r, spec.s, spec.n) == (1, 1, 3)


class TestClassifySpectrum:
    def test_mixed(self):
        a = np.array([1.0, 0.6, 0.0])
        b = np.array([0.0, 0.8, 1.0])
        spec = classify_spectrum(a, b, 1e-10)
        assert (spec.r, spec.s) == (1, 1)

    def test_all_ones(self):
        a = np.array([1.0, 1.0])
        b = np.array([0.0, 0.0])
        spec = classify_spectrum(a, b, 1e-10)
        assert (spec.r, spec.s) == (2, 0)

    def test_all_interior(self):
        a = np.array([0.6, 0.6])
        b = np.array([0.8, 0.8])
        spec = classify_spectrum(a, b, 1e-10)
        assert (spec.r, spec.s) == (0, 2)

    def test_snapping_in_place(self):
        a = np.array([1.0 - 1e-13, 0.6, 1e-12])
        b = np.array([5e-13, 0.8, 1.0 - 1e-14])
        a_in, b_in = a.copy(), b.copy()
        spec = classify_spectrum(a, b, 1e-10)
        assert (spec.r, spec.s) == (1, 1)
        assert np.array_equal(a, a_in) and np.array_equal(b, b_in)
        assert np.array_equal(spec.alphas, [1.0, 0.6, 0.0])
        assert np.array_equal(spec.betas, [0.0, 0.8, 1.0])

    def test_tol_validation(self):
        with pytest.raises(ValidationError):
            classify_spectrum(np.array([1.0]), np.array([0.0]), classify_tol=0.5)


class TestComputeGsv:
    def test_fully_separated_pair(self):
        pair = GmpPair(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        spec = compute_gsv(pair, GsvOptions(method="direct"))
        assert np.array_equal(spec.alphas, [1.0, 0.0])
        assert np.array_equal(spec.betas, [0.0, 1.0])
        assert (spec.r, spec.s) == (1, 0)

    def test_proportional_identities(self):
        pair = GmpPair(0.6 * np.eye(2), 0.8 * np.eye(2))
        for method in ("direct", "randomized"):
            spec = compute_gsv(pair, GsvOptions(method=method))
            assert np.allclose(spec.alphas, 0.6, atol=1e-12)
            assert np.allclose(spec.betas, 0.8, atol=1e-12)
            assert (spec.r, spec.s) == (0, 2)

    def test_synthetic_round_trip(self):
        from rgsv import SynthSpec, synth_gmp

        res = synth_gmp(SynthSpec(m=400, p=300, n=200, rank_frac=0.6, seed=5))
        opts = GsvOptions(extraction=ExtractionConfig(tol=1e-12, seed=6))
        spec = compute_gsv(res.pair, opts)
        assert np.linalg.norm(spec.alphas - res.true_spectrum.alphas) <= 1e-8
        assert np.linalg.norm(spec.betas - res.true_spectrum.betas) <= 1e-8

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("m,p,n", [(60, 45, 30), (25, 70, 40), (35, 30, 50)])
    def test_oracle_equivalence(self, m, p, n, field):
        pair = random_pair(m, p, n, seed=7, field=field)
        direct = compute_gsv(pair, GsvOptions(method="direct"))
        rand = compute_gsv(
            pair, GsvOptions(extraction=ExtractionConfig(tol=1e-12, seed=8))
        )
        assert spectrum_gap(direct, rand) <= 1e-8

    def test_pythagorean_identity(self):
        for seed in range(5):
            pair = random_pair(20 + seed, 25, 15, seed=seed)
            spec = compute_gsv(pair, GsvOptions(method="direct"))
            assert np.max(np.abs(spec.alphas**2 + spec.betas**2 - 1)) <= 1e-12

    def test_scale_covariance(self):
        pair = random_pair(30, 28, 20, seed=9)
        base = compute_gsv(pair, GsvOptions(method="direct"))
        for c in (1e-3, 1e3):
            scaled = GmpPair(c * pair.g1, c * pair.g2)
            spec = compute_gsv(scaled, GsvOptions(method="direct"))
            assert spectrum_gap(base, spec) <= 1e-10

    def test_branch_consistency(self):
        # the first block alone and the second block alone each determine
        # the spectrum; both one-sided readings agree with the merged one
        pair = random_pair(40, 35, 25, seed=10)
        from rgsv.core import reduced_qr, svd

        q, _ = reduced_qr(pair.stacked())
        a = np.clip(svd(q[:40]).s, 0.0, 1.0)
        b = np.clip(svd(q[40:]).s, 0.0, 1.0)[::-1]
        l1 = make_spectrum(a, np.sqrt(1.0 - a**2))
        l2 = make_spectrum(np.sqrt(1.0 - b**2), b)
        merged = spectrum_from_l_blocks(q[:40], q[40:], 25)
        assert spectrum_gap(l1, l2) <= 1e-8
        assert spectrum_gap(l1, merged) <= 1e-8

    @pytest.mark.parametrize("method", ["direct", "randomized"])
    def test_zero_first_matrix(self, method):
        # g1 = 0 is a valid pair when g2 has full rank; all alphas vanish.
        # A randomized solve keeps no rows of g1, so its block is empty
        pair = GmpPair(np.zeros((4, 3)), gaussian_matrix(5, 3, seed=11))
        spec = compute_gsv(pair, GsvOptions(method=method))
        assert np.array_equal(spec.alphas, np.zeros(3))
        assert np.array_equal(spec.betas, np.ones(3))
        assert (spec.r, spec.s) == (0, 0)

    @pytest.mark.parametrize("method", ["direct", "randomized"])
    def test_zero_second_matrix(self, method):
        pair = GmpPair(gaussian_matrix(5, 3, seed=11), np.zeros((4, 3)))
        spec = compute_gsv(pair, GsvOptions(method=method))
        assert np.array_equal(spec.alphas, np.ones(3))
        assert np.array_equal(spec.betas, np.zeros(3))
        assert (spec.r, spec.s) == (3, 0)

    def test_wide_first_matrix(self):
        # m < n forces zero alphas at the tail
        pair = random_pair(12, 30, 20, seed=12)
        direct = compute_gsv(pair, GsvOptions(method="direct"))
        assert np.all(direct.alphas[12:] == 0.0)
        rand = compute_gsv(pair, GsvOptions(extraction=ExtractionConfig(tol=1e-12, seed=13)))
        assert spectrum_gap(direct, rand) <= 1e-8


    def test_capped_basis_raises_instead_of_a_silent_spectrum(self):
        # 10 + 10 compressed rows cannot carry a 50-column pair; the direct
        # spectrum is all interior, a capped run used to report r=10, s=0
        pair = random_pair(100, 100, 50, seed=40)
        opts = GsvOptions(extraction=ExtractionConfig(max_cols=10, seed=41))
        with capped_warning(), pytest.raises(RankDeficiencyError):
            compute_gsv(pair, opts)

    @pytest.mark.parametrize("cap", [25, 40, 49])
    def test_capped_sides_are_reported(self, cap):
        # both full-rank sides stop unconverged at the cap, and the spectrum
        # is far from the direct one, (r, s) = (25, 0), (10, 30) and (1, 48)
        # against (0, 50); one warning names each side and its numbers
        pair = random_pair(100, 100, 50, seed=40)
        opts = GsvOptions(extraction=ExtractionConfig(max_cols=cap))
        with pytest.warns(UserWarning, match="extraction stopped unconverged") as record:
            solve = run(pair, opts)
        assert len(record) == 1
        for side, g in enumerate((pair.g1, pair.g2)):
            res, tol = solve.residuals[side], 1e-10 * frobenius_norm(g)
            assert res > tol
            assert (f"g{side + 1} kept max_cols = {cap} columns at residual {res:.3e} "
                    f"> tol {tol:.3e}") in str(record[0].message)
        with pytest.warns(UserWarning, match="extraction stopped unconverged"):
            assert compute_gsv(pair, opts).s < 50

    def test_a_side_at_the_trim_floor_is_not_reported(self):
        # tol 1e-300 cannot be met: each rank-20 side stops at the trim
        # floor, also where its 20 columns fill the cap, and is not reported
        r_star = gaussian_matrix(40, 40, seed=100)
        pair = GmpPair(gaussian_matrix(200, 20, seed=101) @ r_star[:20],
                       gaussian_matrix(100, 20, seed=102) @ r_star[20:])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for cap in (None, 20):
                solve = run(pair, GsvOptions(extraction=ExtractionConfig(
                    tol=1e-300, max_cols=cap, seed=103)))
                assert (solve.spectrum.r, solve.spectrum.s) == (20, 0)

    def test_max_cols_clamped_per_side(self):
        # p = 20 < max_cols = 25 <= m: the cap is valid for g1 only
        pair = random_pair(60, 20, 25, seed=42)
        direct = compute_gsv(pair, GsvOptions(method="direct"))
        capped = compute_gsv(
            pair, GsvOptions(extraction=ExtractionConfig(tol=1e-12, max_cols=25, seed=43))
        )
        assert spectrum_gap(direct, capped) <= 1e-8

    def test_randomized_path_never_factors_the_stack(self, monkeypatch):
        # the O((m + p) n^2) factorization of the full stack is what the
        # randomized path exists to avoid
        import rgsv.core

        m, p, n = 60, 50, 30
        g1, g2 = gaussian_matrix(m, n, seed=44), gaussian_matrix(p, n, seed=45)
        rows = record_rows(
            monkeypatch, (np.linalg, "svd"), (np.linalg, "qr"), (rgsv.core, "reduced_qr")
        )
        compare(GmpPair(g1, g2), GsvOptions(extraction=ExtractionConfig(tol=1e-12, seed=46)))
        assert rows and m + p not in rows
        compare(GmpPair(g1, g2), GsvOptions(method="direct"))
        assert m + p in rows  # the recorder sees a stack factorization

    def test_certificate_takes_the_stack_norms_from_the_solves(self, monkeypatch):
        # the run's R~ carries the singular values of its projected stack,
        # so its certificate factors neither (m + p) x n stack
        m, p, n = 60, 50, 30
        pair = GmpPair(gaussian_matrix(m, n, seed=47), gaussian_matrix(p, n, seed=48))
        rows = record_rows(monkeypatch, (np.linalg, "svd"))
        opts = GsvOptions(extraction=ExtractionConfig(tol=1e-12, seed=49))
        assert perturbation_bound(pair, run(pair, opts)) > 0
        assert rows and m + p not in rows
        assert "_stack_extremes" not in pair.__dict__


def run_cases():
    """Pairs, none of them tall, so both sides are sketched, by name. The
    tails sit at 1e-6, far from classify_tol."""
    tail = np.concatenate([np.linspace(0.99, 0.5, 20), np.full(10, 1e-6)])
    return {
        "real": random_pair(60, 50, 30, seed=80),
        "complex": random_pair(60, 50, 30, seed=81, field="complex"),
        "wide": random_pair(20, 50, 30, seed=82),
        "tail": structured_pair(tail, 80, 70, seed=83)[0],
        "tail_complex": structured_pair(tail, 80, 70, seed=84, field="complex")[0],
    }


class TestGsvRun:
    @pytest.mark.parametrize("case", ["real", "complex", "wide", "tail", "tail_complex"])
    def test_keeps_what_the_certificate_reads(self, case):
        # the residuals, R~'s singular values and the spectrum are those of
        # the explicit projected pair (Q1 B1, Q2 B2)
        pair = run_cases()[case]
        opts = GsvOptions(extraction=ExtractionConfig(seed=85))
        solve = run(pair, opts)
        tilde = []
        for side, g in enumerate((pair.g1, pair.g2)):
            basis = extract_basis(g, _side_config(opts.extraction, g, side))
            tilde.append(basis.q @ basis.b)
            assert abs(solve.residuals[side] - residual_norm(g, basis.q)) <= 1e-13 * frobenius_norm(g)
        s = np.linalg.svd(np.vstack(tilde), compute_uv=False)
        assert np.allclose(solve.r_singular_values, s, rtol=0, atol=1e-13 * s[0])
        projected = compute_gsv(GmpPair(*tilde), GsvOptions(method="direct"))
        assert spectrum_gap(solve.spectrum, projected) <= 1e-12


class TestRankTest:
    """The stack's R is tested by a shifted Cholesky; it takes an SVD only
    when that fails, or when the certificate reads its singular values."""

    @staticmethod
    def _record_svd(monkeypatch):
        """The first argument of every np.linalg.svd call."""
        args, svd = [], np.linalg.svd

        def recording_svd(a, *rest, **kwargs):
            args.append(a)
            return svd(a, *rest, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        return args

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("method", ["randomized", "direct"])
    def test_healthy_stack_takes_the_svd_of_r_only_on_read(self, method, field, monkeypatch):
        pair = random_pair(60, 50, 30, seed=72, field=field)
        args = self._record_svd(monkeypatch)
        solve = run(pair, GsvOptions(method=method, extraction=ExtractionConfig(seed=73)))
        assert not any(a is solve.stack_r for a in args)
        sv = solve.r_singular_values
        assert solve.r_singular_values is sv
        assert sum(a is solve.stack_r for a in args) == 1
        assert np.array_equal(sv, np.linalg.svd(solve.stack_r, compute_uv=False))

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("ratio", [1e-9, 1e-13])
    def test_ill_conditioned_stack_takes_the_svd(self, ratio, field, monkeypatch):
        # the direct stack [G1; 0] has G1's singular values geomspace(1, ratio):
        # at 1e-9 the Cholesky fails and the SVD passes the 1e-12 rule
        n = 12
        u = reduced_qr(gaussian_matrix(40, n, seed=70, field=field)).q
        v = reduced_qr(gaussian_matrix(n, n, seed=71, field=field)).q
        pair = GmpPair((u * np.geomspace(1.0, ratio, n)) @ v.conj().T, np.zeros((6, n)))
        args = self._record_svd(monkeypatch)
        if ratio < 1e-12:
            with pytest.raises(RankDeficiencyError):
                compute_gsv(pair, GsvOptions(method="direct"))
        else:
            assert compute_gsv(pair, GsvOptions(method="direct")).r == n
        assert [np.shape(a) for a in args].count((n, n)) == 1

    def test_gram_overflow_takes_the_svd_without_a_warning(self):
        # R^H R overflows at entries near 1e200; the Cholesky then fails
        # quietly and the SVD decides
        pair = random_pair(40, 30, 10, seed=74)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = compute_gsv(GmpPair(1e200 * pair.g1, 1e200 * pair.g2), GsvOptions(method="direct"))
        assert spectrum_gap(got, compute_gsv(pair, GsvOptions(method="direct"))) <= 1e-12


class TestRecoverGsvd:
    @staticmethod
    def _check_factors(pair, fac, tol=1e-8):
        n = pair.n
        a, b = fac.spectrum.alphas, fac.spectrum.betas
        g1r = fac.u @ (a[:, None] * fac.r_factor)
        g2r = fac.v @ (b[:, None] * fac.r_factor)
        nrm1 = np.linalg.norm(pair.g1)
        nrm2 = np.linalg.norm(pair.g2)
        assert np.linalg.norm(g1r - pair.g1) <= tol * max(nrm1, 1e-30)
        assert np.linalg.norm(g2r - pair.g2) <= tol * max(nrm2, 1e-30)
        assert np.linalg.norm(fac.u.conj().T @ fac.u - np.eye(n)) <= tol * math.sqrt(n)
        assert np.linalg.norm(fac.v.conj().T @ fac.v - np.eye(n)) <= tol * math.sqrt(n)

    @pytest.mark.parametrize("method", ["direct", "randomized"])
    @pytest.mark.parametrize("m,p,n", [(40, 30, 20), (30, 40, 20)])
    def test_interior_pair_invariants(self, m, p, n, method):
        pair = random_pair(m, p, n, seed=14)
        fac = recover_gsvd(
            pair, GsvOptions(method=method, extraction=ExtractionConfig(tol=1e-12, seed=15))
        )
        self._check_factors(pair, fac)

    def test_closed_form_proportional(self):
        pair = GmpPair(0.6 * np.eye(2), 0.8 * np.eye(2))
        fac = recover_gsvd(pair, GsvOptions(method="direct"))
        self._check_factors(pair, fac, tol=1e-10)
        back = fac.u.conj().T @ pair.g1 @ np.linalg.inv(fac.r_factor)
        assert np.allclose(back, 0.6 * np.eye(2), atol=1e-10)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("method", ["direct", "randomized"])
    @pytest.mark.parametrize("m,p", [(30, 25), (25, 30)])
    @pytest.mark.parametrize(
        "alphas", [[1, 1, 1, 0.7, 0.4, 0], [1, 0.7, 0.4, 0, 0, 0]], ids=["r3", "r1"]
    )
    def test_zero_block_completion(self, alphas, m, p, method, field):
        # r > 0 betas and trailing alphas are exactly zero; their V and U
        # columns come from the completion. The shapes and methods cover
        # both l1 <= l2 and l1 > l2 on each path.
        pair, truth = structured_pair(alphas, m=m, p=p, seed=16, field=field)
        opts = GsvOptions(method=method, extraction=ExtractionConfig(tol=1e-12, seed=17))
        fac = recover_gsvd(pair, opts)
        n, r, s = pair.n, fac.spectrum.r, fac.spectrum.s
        assert (r, s) == (truth.r, truth.s)
        for f, done in ((fac.v, range(r)), (fac.u, range(r + s, n))):
            fill = f[:, list(done)]
            rest = np.delete(f, list(done), axis=1)
            assert np.linalg.norm(fill.conj().T @ fill - np.eye(len(done))) <= 1e-10
            assert np.linalg.norm(fill.conj().T @ rest) <= 1e-10
        self._check_factors(pair, fac)

    @pytest.mark.parametrize("mirrored", [False, True])
    def test_completion_forms_no_square_q(self, monkeypatch, mirrored):
        # G1 has rank 6 < n, so the randomized U block needs 4 completed
        # columns; mirroring the pair takes the other orientation
        alphas = [1, 0.9, 0.8, 0.7, 0.5, 0.3, 0, 0, 0, 0]
        pair, _ = structured_pair(alphas, m=200, p=180, seed=20)
        if mirrored:
            pair = GmpPair(pair.g2, pair.g1)
        qr = np.linalg.qr
        calls = []

        def recording_qr(a, mode="reduced"):
            calls.append((np.shape(a)[1], mode))
            return qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", recording_qr)
        opts = GsvOptions(extraction=ExtractionConfig(tol=1e-12, seed=21))
        fac = recover_gsvd(pair, opts)
        assert calls
        assert all(mode != "complete" and cols <= pair.n for cols, mode in calls)
        self._check_factors(pair, fac)

    def test_complex_recovery(self):
        pair = random_pair(35, 30, 18, seed=17, field="complex")
        fac = recover_gsvd(pair, GsvOptions(method="direct"))
        self._check_factors(pair, fac)

    def test_rejects_wide_shapes(self):
        pair = random_pair(12, 30, 20, seed=18)
        with pytest.raises(RecoveryError):
            recover_gsvd(pair, GsvOptions(method="direct"))

    def test_spectrum_matches_compute_gsv(self):
        pair = random_pair(26, 24, 16, seed=19)
        opts = GsvOptions(method="direct")
        assert spectrum_gap(recover_gsvd(pair, opts).spectrum, compute_gsv(pair, opts)) == 0.0


def _l_blocks(betas, l1, l2, seed, field):
    """Blocks L1 (l1 x n) and L2 (l2 x n) of a stack with orthonormal
    columns whose GSV betas are ``betas`` (ascending, alphas sqrt(1 - b^2)):
    Li = Ui diag(values) W^H over the directions where that block's value
    is nonzero."""
    betas = np.asarray(betas, dtype=np.float64)
    n = betas.size
    w = reduced_qr(gaussian_matrix(n, n, seed, field)).q
    blocks = []
    for i, (rows, vals) in enumerate(((l1, np.sqrt(1.0 - betas**2)), (l2, betas))):
        on = np.flatnonzero(vals)
        u = reduced_qr(gaussian_matrix(rows, on.size, seed + 1 + i, field)).q if on.size else (
            np.zeros((rows, 0)))
        blocks.append(u @ (vals[on, None] * w[:, on].conj().T))
    return blocks


def _two_svd_spectrum(l1_block, l2_block, n, classify_tol):
    """The spectrum read by a values-only SVD of each block."""
    a, b = np.zeros(n), np.zeros(n)
    for block, out, flip in ((l1_block, a, False), (l2_block, b, True)):
        s = np.clip(np.linalg.svd(block, compute_uv=False), 0.0, 1.0) if block.size else []
        if flip:
            out[n - len(s):] = s[::-1]
        else:
            out[:len(s)] = s
    small_a = a <= b
    return classify_spectrum(np.where(small_a, a, np.sqrt(1.0 - b**2)),
                             np.where(small_a, np.sqrt(1.0 - a**2), b), classify_tol)


def short_block_cases():
    """(betas, l1, l2, classify_tol, read through W1) by name. The shorter
    block is read through its right vectors W1 when it has at most n/2
    rows, else both blocks take a values-only SVD."""
    tiny = [1e-13, 1.000001e-13, 1e-11, 1e-9, 1.001e-9, 1.002e-9]
    return {
        # tiny betas clustered at 1e-9 to 1e-13, read through L2 W1
        "tiny_l1_short": (tiny + [0.5, 0.8] + [1.0] * 8, 8, 18, 1e-15, True),
        # the same betas as the shorter block's own values
        "tiny_l2_short": ([0.0] * 8 + tiny + [0.5, 0.8], 18, 8, 1e-15, True),
        "l1_below_n": (np.linspace(0.1, 0.9, 6).tolist() + [1.0] * 6, 6, 12, 1e-10, True),
        "l2_below_n": ([0.0] * 6 + np.linspace(0.1, 0.9, 6).tolist(), 12, 6, 1e-10, True),
        # 7 alphas of 1, 3 interior pairs, 2 alphas of 0
        "both_below_n": ([0.0] * 7 + [0.2, 0.5, 0.8] + [1.0] * 2, 10, 5, 1e-10, True),
        "empty_l1": ([1.0] * 12, 0, 13, 1e-10, True),
        "empty_l2": ([0.0] * 12, 13, 0, 1e-10, True),
        # a shorter block of 7 > n/2 rows: two values-only SVDs
        "over_half": ([0.0] * 5 + [0.2, 0.5, 0.8] + [1.0] * 4, 8, 7, 1e-10, False),
    }


class TestShortBlockSpectrum:
    """A block with at most n/2 rows is read through its SVD's right
    vectors, and the longer block takes no SVD of its own."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("case", list(short_block_cases()))
    def test_matches_two_values_only_svds(self, case, field, monkeypatch):
        betas, l1, l2, tol, through_w1 = short_block_cases()[case]
        n = len(betas)
        l1_block, l2_block = _l_blocks(betas, l1, l2, seed=60, field=field)
        want = _two_svd_spectrum(l1_block, l2_block, n, tol)
        shapes = []
        svd = rgsv.core.svd

        def recording_svd(m, compute_uv=True):
            shapes.append(np.shape(m))
            return svd(m, compute_uv)

        monkeypatch.setattr(rgsv.core, "svd", recording_svd)
        got = spectrum_from_l_blocks(l1_block, l2_block, n, tol)
        assert (got.r, got.s) == (want.r, want.s)
        assert spectrum_gap(got, want) <= 1e-14
        tiny = np.asarray(betas) < 1e-8  # kept at working precision by both routes
        assert np.all(np.abs(got.betas - want.betas)[tiny] <= np.finfo(float).eps)
        longer = (max(l1, l2), n)
        assert (longer not in shapes) == through_w1


def test_options_validation():
    with pytest.raises(ValidationError):
        GsvOptions(classify_tol=0.5)
    with pytest.raises(ValidationError):
        GsvOptions(method="magic")


def exact_front_end_cases():
    """Tall pairs (rows >= 4n, n = 30, so a third of the columns is 10) by
    name: (alphas, extraction config, the sides expected exact). Every
    sketch converges in its first block, and with blocksize 10 a sketch
    capped at 10 columns draws the block an uncapped one would."""
    interior = np.linspace(0.95, 0.05, 30)
    cfg = ExtractionConfig(blocksize=10, seed=90)
    return {
        # ranks 20 and 20 under a binding cap of 25: both sides are sketched
        "sketched": (np.concatenate([np.ones(10), interior[:10], np.zeros(10)]),
                     ExtractionConfig(seed=90, max_cols=25), ()),
        # rank-10 g1 converges at 10 columns, so g2 needs 20 rows >= 10: exact unsketched
        "shortcut": (np.concatenate([interior[:10], np.zeros(20)]), cfg, (1,)),
        # full-rank g1 reaches 10 columns unconverged; rank-10 g2 converges
        "g1_exact": (np.concatenate([np.ones(20), interior[:10]]), cfg, (0,)),
        "both_exact": (interior, cfg, (0, 1)),
    }


class TestExactFrontEnd:
    """A tall side whose sketch would keep at least ceil(n/3) columns is
    replaced by its R-only QR, exactly and with nothing else changed."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("case", ["sketched", "shortcut", "g1_exact", "both_exact"])
    def test_matches_the_direct_solve(self, case, field):
        alphas, cfg, exact = exact_front_end_cases()[case]
        pair, _ = structured_pair(alphas, m=150, p=130, seed=91, field=field)
        opts = GsvOptions(extraction=cfg)
        direct = compute_gsv(pair, GsvOptions(method="direct"))
        solve = run(pair, opts)
        assert spectrum_gap(solve.spectrum, direct) <= 1e-12
        TestRecoverGsvd._check_factors(pair, recover_gsvd(pair, opts))
        assert [res == 0.0 for res in solve.residuals] == [side in exact for side in (0, 1)]
        want = explicit_run_budget(pair, opts, exact)
        assert abs(perturbation_bound(pair, solve) - want) <= 1e-10 * want

    @staticmethod
    def _tall_low_rank_pair():
        # the shape of criterion 10 scaled down: low-rank g1, full-rank g2
        n = 80
        alphas = np.concatenate([np.linspace(0.99, 0.5, 8), 1e-10 * np.geomspace(1, 1e-3, n - 8)])
        pair, truth = structured_pair(alphas, m=800, p=800, seed=92)
        cfg = ExtractionConfig(tol=1e-6 * frobenius_norm(pair.g1), seed=93)
        return pair, truth, cfg

    @staticmethod
    def _record(monkeypatch):
        """The (matrix, max_cols, probe, block widths kept) of every
        extraction the engine runs, and the row counts of every side it
        factors R-only."""
        calls, r_only = [], []
        extract, r_factor = rgsv.engine.extract_basis, rgsv.core.r_factor

        def recording_extract(g, cfg, probe=False):
            basis = extract(g, cfg, probe=probe)
            calls.append((g, cfg.max_cols, probe, basis.block_widths))
            return basis

        def recording_r_factor(g):
            r_only.append(g.shape[0])
            return r_factor(g)

        monkeypatch.setattr(rgsv.engine, "extract_basis", recording_extract)
        monkeypatch.setattr(rgsv.core, "r_factor", recording_r_factor)
        return calls, r_only

    @staticmethod
    def _record_draws(monkeypatch):
        """("block", width) for every Gaussian sketch block drawn."""
        events, draw = [], rgsv.core.gaussian_block

        def recording_draw(rng, rows, cols, field="real"):
            events.append(("block", cols))
            return draw(rng, rows, cols, field)

        monkeypatch.setattr(rgsv.core, "gaussian_block", recording_draw)
        return events

    def test_low_rank_side_is_still_sketched(self, monkeypatch):
        # the probe's first block, min(32, blocksize) capped at ceil(80/3),
        # holds the rank-8 side's basis, so it converges in that block
        pair, truth, cfg = self._tall_low_rank_pair()
        calls, _ = self._record(monkeypatch)
        spec = compute_gsv(pair, GsvOptions(extraction=cfg))
        assert spectrum_gap(spec, truth) <= 1e-9
        g, cap, probe, widths = calls[0]
        assert g is pair.g1 and cap == 27 and probe and len(widths) == 1 and widths[0] <= 27

    def test_full_rank_g2_never_enters_extraction(self, monkeypatch):
        # g1 keeps l1 <= 27 rows, so g2 must keep n - l1 >= 53 >= ceil(80/3)
        pair, _, cfg = self._tall_low_rank_pair()
        calls, r_only = self._record(monkeypatch)
        compute_gsv(pair, GsvOptions(extraction=cfg))
        assert [g is pair.g2 for g, _, _, _ in calls] == [False]
        assert r_only == [pair.p]

    def test_binding_max_cols_keeps_both_sketches(self, monkeypatch):
        pair, _, cfg = self._tall_low_rank_pair()
        calls, r_only = self._record(monkeypatch)
        with capped_warning():
            compute_gsv(pair, GsvOptions(extraction=dataclasses.replace(cfg, max_cols=79)))
        assert [(g is pair.g1, cap, probe) for g, cap, probe, _ in calls] == [
            (True, 79, False), (False, 79, False)]
        assert r_only == []

    @pytest.mark.parametrize("blocksize", [100, 16])
    def test_full_rank_tall_side_pays_one_block(self, blocksize, monkeypatch):
        # a full-rank 1000 x 200 side predicts far more than ceil(200/3) =
        # 67 columns after its first block, so its probe stops there; a
        # probe that filled the cap drew 67 columns before its R-only QR
        pair = random_pair(1000, 1000, 200, seed=80)
        events = self._record_draws(monkeypatch)
        qr = np.linalg.qr

        def recording_qr(a, mode="reduced"):
            if mode == "r":
                events.append(("r", a.shape[0]))
            return qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", recording_qr)
        opts = GsvOptions(extraction=ExtractionConfig(seed=81, blocksize=blocksize))
        spec = compute_gsv(pair, opts)
        first = min(32, blocksize)
        assert events == [("block", first), ("r", 1000)] * 2
        assert spectrum_gap(spec, compute_gsv(pair, GsvOptions(method="direct"))) <= 1e-12

    def test_low_rank_tall_side_stays_sketched(self, monkeypatch):
        # a rank-12 1200 x 120 side stays sketched under the cap of 40 and
        # samples at most its rank plus the oversampling of 10 plus the
        # first block of 32 columns
        g1 = gaussian_matrix(1200, 12, seed=82) @ (
            np.geomspace(1.0, 1e-4, 12)[:, None] * gaussian_matrix(12, 120, seed=83))
        pair = GmpPair(g1, gaussian_matrix(600, 120, seed=84))
        calls, r_only = self._record(monkeypatch)
        draws = self._record_draws(monkeypatch)
        compute_gsv(pair, GsvOptions(extraction=ExtractionConfig(seed=85)))
        (g, cap, probe, widths), = calls
        assert g is pair.g1 and cap == 40 and probe and sum(widths) == 12
        assert sum(cols for _, cols in draws) <= 12 + 10 + 32
        assert r_only == [pair.p]  # g2 must keep 108 >= 40 rows: exact unsketched

    @pytest.mark.parametrize("case", ["tall_low_rank", "both_exact"])
    def test_no_basis_is_alive_at_an_r_only_qr(self, case, monkeypatch):
        # a sketched g1's Q is not read past its extraction, which also
        # takes its residual, nor is a discarded probe: none may be alive
        # while a side is factored
        if case == "tall_low_rank":
            pair, _, cfg = self._tall_low_rank_pair()
            sketched, factored = 1, [pair.p]
        else:  # each side's probe is discarded
            alphas, cfg, _ = exact_front_end_cases()[case]
            pair, _ = structured_pair(alphas, m=150, p=130, seed=91)
            sketched, factored = 2, [pair.m, pair.p]
        bases, r_only = [], []
        extract, r_factor = rgsv.engine.extract_basis, rgsv.core.r_factor

        def recording_extract(g, cfg, probe=False):
            basis = extract(g, cfg, probe=probe)
            bases.append(weakref.ref(basis.q))
            return basis

        def checking_r_factor(g):
            assert all(ref() is None for ref in bases), "a basis outlives its last reader"
            r_only.append(g.shape[0])
            return r_factor(g)

        monkeypatch.setattr(rgsv.engine, "extract_basis", recording_extract)
        monkeypatch.setattr(rgsv.core, "r_factor", checking_r_factor)
        solve = run(pair, GsvOptions(extraction=cfg))
        assert len(bases) == sketched and r_only == factored
        assert [res > 0 for res in solve.residuals] == [case == "tall_low_rank", False]

    def test_stack_norms_take_one_svd_on_first_read(self, monkeypatch):
        # no solve fills the pair's stack norms, not even one whose R has the
        # stack's singular values (cli_files scaled down: both sides rank
        # 30 > ceil(50/3), so both go exact)
        pair = synth_gmp(SynthSpec(m=250, p=200, n=50, rank_frac=0.6, seed=97)).pair
        _, r_only = self._record(monkeypatch)
        rows = record_rows(monkeypatch, (np.linalg, "svd"))
        opts = GsvOptions(extraction=ExtractionConfig(seed=98))
        compute_gsv(pair, opts)
        run(pair, opts)
        compute_gsv(pair, GsvOptions(method="direct"))
        assert r_only == [pair.m, pair.p] * 2 and "_stack_extremes" not in pair.__dict__
        assert pair.m + pair.p not in rows
        norm2, pinv_norm = pair.stack_norm2, pair.stack_pinv_norm
        assert rows.count(pair.m + pair.p) == 1
        s = np.linalg.svd(pair.stacked(), compute_uv=False)
        assert abs(norm2 - s[0]) <= 1e-12 * s[0]
        assert abs(pinv_norm - 1 / s[-1]) <= 1e-12 / s[-1]

    @pytest.mark.parametrize("case", ["not_tall", "triangular"])
    def test_other_pairs_keep_the_sketched_pipeline(self, case, monkeypatch):
        # bitwise the spectrum of the sketch-both-sides pipeline: extract
        # each side with its own settings, stack B1 and B2, QR, block SVDs
        if case == "not_tall":  # criterion 1's shape
            pair = synth_gmp(SynthSpec(m=801, p=400, n=400, rank_frac=0.6, seed=94)).pair
            opts = GsvOptions(extraction=ExtractionConfig(tol=1e-12, seed=95))
        else:
            # the square R factors of the tall pair's R-only QRs
            tall, _, cfg = self._tall_low_rank_pair()
            pair = GmpPair(*(np.linalg.qr(g, mode="r") for g in (tall.g1, tall.g2)))
            opts = GsvOptions(extraction=cfg)
        cfg = opts.extraction
        rows = [extract_basis(g, _side_config(cfg, g, side)).b
                for side, g in enumerate((pair.g1, pair.g2))]
        qf = reduced_qr(np.vstack(rows))
        l1 = rows[0].shape[0]
        want = spectrum_from_l_blocks(qf.q[:l1], qf.q[l1:], pair.n, opts.classify_tol)
        _, r_only = self._record(monkeypatch)
        got = compute_gsv(pair, opts)
        assert r_only == []
        assert np.array_equal(got.alphas, want.alphas) and np.array_equal(got.betas, want.betas)


def test_side_streams_are_independent_across_seeds(monkeypatch):
    # criterion 10 runs repetition k at seed 100 + k: g2's sketch at seed s
    # must not repeat g1's at seed s + 1, and a seed must still reproduce
    pair = random_pair(40, 35, 20, seed=96)
    seeds = []
    extract = rgsv.engine.extract_basis

    def recording(g, cfg):
        seeds.append(cfg.seed)
        return extract(g, cfg)

    monkeypatch.setattr(rgsv.engine, "extract_basis", recording)
    runs = [compute_gsv(pair, GsvOptions(extraction=ExtractionConfig(tol=1e-12, seed=s)))
            for s in (100, 101, 100)]
    first_block = [gaussian_matrix(20, 20, seed) for seed in seeds]  # min(32, blocksize, n) wide
    assert not np.array_equal(first_block[1], first_block[2])
    assert seeds[:2] == seeds[4:]
    assert np.array_equal(runs[0].alphas, runs[2].alphas)


def _convergence_failures():
    """name -> (kernel, call): each call reaches np.linalg.<kernel> once the
    pair's solve, which is taken first, is done."""
    pair = random_pair(60, 50, 30, seed=97)
    solve = run(pair)
    return {
        "run_certificate": ("svd", lambda: perturbation_bound(pair, solve)),
        "stack_norm": ("svd", lambda: pair.stack_norm2),
        "rank_test": ("svd", lambda: rgsv.engine._rank_test(np.diag([1.0, 1.0, 0.0]), "R")),
        "synth": ("svd", lambda: synth_gmp(SynthSpec(30, 30, 20, 0.6, 98))),
        "block_sizing": ("eigvalsh", lambda: extract_basis(gaussian_matrix(100, 60, seed=99))),
    }


@pytest.mark.parametrize("case", list(_convergence_failures()))
def test_a_kernel_that_does_not_converge_raises_convergence_error(case, monkeypatch):
    # a bare numpy LinAlgError is no GsvError, so the CLI would print a
    # traceback for it instead of exiting 7 (category=numerical)
    kernel, call = _convergence_failures()[case]

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{kernel} did not converge")

    monkeypatch.setattr(np.linalg, kernel, failing)
    with pytest.raises(ConvergenceError):
        call()

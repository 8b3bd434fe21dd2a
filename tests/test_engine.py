import dataclasses
import math
import tracemalloc
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
    ValidationError,
    classify_spectrum,
    compare,
    compute_gsv,
    frobenius_norm,
    gaussian_matrix,
    perturbation_bound,
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

    @pytest.mark.parametrize("cap", [50, 500])
    def test_a_cap_no_side_can_fill_is_no_cap(self, cap):
        # both sides have min(rows, cols) = 50, so their rank, not the cap,
        # stops them: a cap clamped to 50 was reported as binding on g1
        pair = GmpPair(gaussian_matrix(60, 50, seed=1), gaussian_matrix(55, 50, seed=2))
        cfg = ExtractionConfig(trim_tol=0, tol=1e-300, seed=3)
        uncapped = run(pair, GsvOptions(extraction=cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            capped = run(pair, GsvOptions(extraction=dataclasses.replace(cfg, max_cols=cap)))
        assert np.array_equal(capped.spectrum.alphas, uncapped.spectrum.alphas)
        assert np.array_equal(capped.spectrum.betas, uncapped.spectrum.betas)
        assert capped.residuals == uncapped.residuals
        assert np.array_equal(capped.stack_r, uncapped.stack_r)

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


    @staticmethod
    def _record_potrf(monkeypatch):
        """(in place, info) of every ?potrf call core._lapack hands out."""
        calls, lapack = [], rgsv.core._lapack

        def recording(names, a):
            fns = lapack(names, a)
            if names != ("potrf",):
                return fns

            def potrf(g, **kwargs):
                c, info = fns[0](g, **kwargs)
                calls.append((np.shares_memory(c, g), info))
                return c, info

            return [potrf]

        monkeypatch.setattr(rgsv.core, "_lapack", recording)
        return calls

    @staticmethod
    def _r(case, field):
        """An n x n R: healthy, or with a zero last row (deficient), scaled
        by 1e200 so that R^H R overflows (overflow), or 1e200 [[1, 1, 1],
        [1, -1, 1], [0, 0, c]], whose Gram is NaN off its diagonal, with
        c = 1 or 0 (deficient)."""
        if case.startswith("nan"):
            r = 1e200 * np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [0.0, 0.0, 1.0]])
            r = r.astype(np.complex128) * np.exp(0.3j) if field == "complex" else r
        else:
            r = reduced_qr(gaussian_matrix(12, 6, seed=75, field=field)).r
            r = 1e200 * r if case.startswith("overflow") else r
        if case.endswith("deficient"):
            r[-1] = 0.0
        return r

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("case", ["healthy", "deficient", "overflow", "overflow_deficient",
                                      "nan", "nan_deficient"])
    def test_potrf_in_place_rejects_what_it_cannot_prove(self, case, field, monkeypatch):
        # OpenBLAS's ?potrf takes a NaN pivot for a positive one, so an
        # overflowed Gram (its shifted diagonal is inf - inf) completes with
        # a NaN diagonal; the test rejects that factor, and R's SVD decides
        r = self._r(case, field)
        potrf = self._record_potrf(monkeypatch)
        svds = self._record_svd(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if case.endswith("deficient"):
                with pytest.raises(RankDeficiencyError):
                    rgsv.engine._rank_test(r, "R")
            else:
                rgsv.engine._rank_test(r, "R")
        assert len(potrf) == 1 and potrf[0][0]  # one call, in place
        assert [a is r for a in svds] == ([] if case == "healthy" else [True])


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
        r_factor = rgsv.core.r_factor

        def recording_r_factor(g):
            events.append(("r", g.shape[0]))
            return r_factor(g)

        monkeypatch.setattr(rgsv.core, "r_factor", recording_r_factor)
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


class TestFold:
    """A randomized solve with an exact side folds the other side's block
    into that side's R (core.fold_qr) and never forms the compressed
    stack; every other solve stacks the two blocks."""

    @staticmethod
    def _tall_pair(case, field="real", n=60):
        # low_rank: criterion 10's shape scaled down, a rank-n/10 g1 sketched
        # beside an exact full-rank g2 (l = 0); both_exact: two full-rank
        # sides, both exact (l = n)
        if case == "low_rank":
            k = n // 10
            tail = 1e-10 * np.geomspace(1, 1e-3, n - k)
            alphas = np.concatenate([np.linspace(0.99, 0.5, k), tail])
        else:
            alphas = np.linspace(0.95, 0.05, n)
        pair, _ = structured_pair(alphas, m=2400, p=2100, seed=100, field=field)
        tol = 1e-6 * frobenius_norm(pair.g1)
        return pair, GsvOptions(extraction=ExtractionConfig(tol=tol, seed=101))

    @staticmethod
    def _stacked_route(pair, opts):
        """The solve's blocks, stacked and factored by reduced_qr as a
        solve with no exact side does: (spectrum, R, l1 + l2)."""
        cfg, n = opts.extraction, pair.n
        c1 = rgsv.engine._front_end(pair.g1, _side_config(cfg, pair.g1, 0), False)[0]
        c2 = rgsv.engine._front_end(pair.g2, _side_config(cfg, pair.g2, 1),
                                    n - c1.shape[0] >= rgsv.engine._crossover(n))[0]
        l1 = c1.shape[0]
        qf = reduced_qr(np.vstack([c1, c2]))
        spec = spectrum_from_l_blocks(qf.q[:l1], qf.q[l1:], n, opts.classify_tol)
        return spec, qf.r, l1 + c2.shape[0]

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("case", ["low_rank", "both_exact"])
    def test_matches_the_stacked_route_without_the_stack(self, case, field, monkeypatch):
        pair, opts = self._tall_pair(case, field)
        want, want_r, stacked = self._stacked_route(pair, opts)
        rows = record_rows(monkeypatch, (np.linalg, "qr"), (rgsv.core, "reduced_qr"))
        folds = record_rows(monkeypatch, (rgsv.core, "fold_qr"))
        solve = run(pair, opts)
        assert folds == [pair.n] and stacked not in rows
        got = solve.spectrum
        assert (got.r, got.s) == (want.r, want.s)
        assert spectrum_gap(got, want) <= 1e-13
        s_want = np.linalg.svd(want_r, compute_uv=False)
        assert np.all(np.abs(solve.r_singular_values - s_want) <= 1e-13 * s_want[0])
        assert [res == 0.0 for res in solve.residuals] == [case == "both_exact", True]

    @pytest.mark.parametrize("shape,field", [((1000, 800, 200), "real"),
                                             ((600, 500, 100), "complex")],
                             ids=["1000x800x200-real", "600x500x100-complex"])
    def test_a_small_both_exact_pair_folds(self, shape, field, monkeypatch):
        # the benchmark's small pair, and a complex one: each side is tall,
        # and full rank, so both go exact and g1's R takes g2's (l = n)
        pair = synth_gmp(SynthSpec(*shape, 0.6, seed=109, field=field)).pair
        n = pair.n
        folds = []
        fold_qr = rgsv.core.fold_qr

        def recording_fold(r, b, l):
            folds.append((r.shape, b.shape, l))
            return fold_qr(r, b, l)

        monkeypatch.setattr(rgsv.core, "fold_qr", recording_fold)
        rows = record_rows(monkeypatch, (np.linalg, "qr"), (rgsv.core, "reduced_qr"))
        solve = run(pair, GsvOptions(extraction=ExtractionConfig(seed=110)))
        assert solve.residuals == (0.0, 0.0)
        assert folds == [((n, n), (n, n), n)] and 2 * n not in rows
        assert spectrum_gap(solve.spectrum, compute_gsv(pair, GsvOptions(method="direct"))) <= 1e-12

    def test_a_solve_with_no_exact_side_stacks(self, monkeypatch):
        # 300/250/80: neither side is tall, so both are sketched
        pair = random_pair(300, 250, 80, seed=107)
        opts = GsvOptions(extraction=ExtractionConfig(seed=108))
        want, _, stacked = self._stacked_route(pair, opts)
        rows = record_rows(monkeypatch, (np.linalg, "qr"), (rgsv.core, "reduced_qr"))
        folds = record_rows(monkeypatch, (rgsv.core, "fold_qr"))
        got = compute_gsv(pair, opts)
        assert folds == [] and stacked in rows
        assert np.array_equal(got.alphas, want.alphas) and np.array_equal(got.betas, want.betas)

    @pytest.mark.parametrize("rank1", [5, 40])
    def test_a_shared_null_vector_raises_through_the_fold(self, rank1, monkeypatch):
        # both sides annihilate v: rank-5 g1 is sketched (l = 0), or
        # rank-39 g1 goes exact beside g2 (l = n)
        n = 40
        v = reduced_qr(gaussian_matrix(n, 1, seed=102)).q
        proj = np.eye(n) - v @ v.T
        g1 = gaussian_matrix(2400, rank1, seed=103) @ gaussian_matrix(rank1, n, seed=104) @ proj
        g2 = gaussian_matrix(2100, n, seed=105) @ proj
        folds = []
        fold_qr = rgsv.core.fold_qr

        def recording_fold(r, b, l):
            folds.append(l)
            return fold_qr(r, b, l)

        monkeypatch.setattr(rgsv.core, "fold_qr", recording_fold)
        with pytest.raises(RankDeficiencyError):
            run(GmpPair(g1, g2), GsvOptions(extraction=ExtractionConfig(seed=106)))
        assert folds == [0 if rank1 < 10 else n]

    def test_the_fold_holds_neither_the_stack_nor_a_copy_of_r(self, monkeypatch):
        # traced in two phases. From the end of the front ends, which hold
        # g1's sketch rows C1 and g2's R, to the rank test, the fold adds
        # its copy of C1, ?tpqrt's T and its work (32 x n each); the stack
        # and its QR would add (l1 + n) x n three times over, a copy of R
        # another n x n. From the rank test to the block SVDs, ?tpmqrt
        # forms Q's blocks in place, beside its work (32 x n). A first
        # solve loads _flapack untraced.
        pair, opts = self._tall_pair("low_rank", n=200)
        run(pair, opts)
        front_end, rank_test = rgsv.engine._front_end, rgsv.engine._rank_test
        spectrum = rgsv.engine.spectrum_from_l_blocks
        state = {"sides": 0}

        def phase_start():
            tracemalloc.reset_peak()
            state["base"] = tracemalloc.get_traced_memory()[0]

        def phase_peak():
            return tracemalloc.get_traced_memory()[1] - state["base"]

        def traced_front_end(g, cfg, shortcut):
            out = front_end(g, cfg, shortcut)
            state["sides"] += 1
            state.setdefault("l1", out[0].shape[0])
            if state["sides"] == 2:
                phase_start()
            return out

        def traced_rank_test(r, what):
            state["fold"] = phase_peak()
            rank_test(r, what)
            phase_start()

        def traced_spectrum(q1, q2, n, tol):
            state["q"] = phase_peak()
            return spectrum(q1, q2, n, tol)

        monkeypatch.setattr(rgsv.engine, "_front_end", traced_front_end)
        monkeypatch.setattr(rgsv.engine, "_rank_test", traced_rank_test)
        monkeypatch.setattr(rgsv.engine, "spectrum_from_l_blocks", traced_spectrum)
        tracemalloc.start()
        try:
            run(pair, opts)
        finally:
            tracemalloc.stop()
        rows, square = state["l1"] * pair.n * 8, pair.n * pair.n * 8
        assert state["fold"] <= rows + 0.6 * square
        assert state["q"] <= rows + 1.4 * square


def test_a_tall_solve_peaks_at_its_explicit_residual():
    # criterion 10's pair at n = 200: g1 (rank 40 over a 1e-10 tail) is
    # sketched to k columns and g2 goes exact. run's Memory paragraph puts
    # the peak at g1's explicit residual: its k blocks of Q (m x k) and rows
    # (k x n), the rows joined, one band of rows of G - QB and Q's rows in
    # it, plus 128 KiB of small arrays (T, the per-band sums). A join of Q,
    # a copy of a panel for its QR or one of the Gram for the Cholesky
    # would each add more than the slack. (At 2000 rows the band outweighs
    # any of them.) A first solve loads _flapack untraced.
    m, n = 4000, 200
    alphas = np.concatenate([np.linspace(0.99, 0.5, 40), 1e-10 * np.geomspace(1, 1e-3, n - 40)])
    pair, _ = structured_pair(alphas, m=m, p=m, seed=130)
    opts = GsvOptions(extraction=ExtractionConfig(tol=1e-6 * frobenius_norm(pair.g1), seed=131))
    solve = run(pair, opts)
    assert solve.residuals[0] > 0.0 and solve.residuals[1] == 0.0  # g1 sketched, g2 exact
    k = extract_basis(pair.g1, _side_config(opts.extraction, pair.g1, 0)).b.shape[0]
    band = rgsv.core._band_rows(pair.g1)
    tracemalloc.start()
    try:
        run(pair, opts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (m * k + 2 * k * n + band * n + band * k) + 128 * 1024


@pytest.mark.parametrize("field", ["real", "complex"])
def test_no_qr_reaches_numpy(field, monkeypatch):
    # every QR takes _flapack's ?geqrt family, whatever its shape: with
    # np.linalg.qr refused, the QRs, solves on pairs with no tall side and
    # a synthetic pair with m < 4 rank still run
    want = {(m, n): np.linalg.qr(gaussian_matrix(m, n, seed=120, field=field), mode="r")
            for m, n in [(5, 40), (40, 40), (120, 40), (160, 40)]}  # wide, square, short, tall

    def refused(*args, **kwargs):
        raise AssertionError("np.linalg.qr was called")

    monkeypatch.setattr(np.linalg, "qr", refused)
    for (m, n), r_np in want.items():
        a = gaussian_matrix(m, n, seed=120, field=field)
        q, r = reduced_qr(a)
        assert np.linalg.norm(q @ r - a) <= 1e-13 * np.linalg.norm(a)
        s_want = np.linalg.svd(r_np, compute_uv=False)
        for got in (r, rgsv.core.r_factor(a)):
            assert np.all(np.abs(np.linalg.svd(got, compute_uv=False) - s_want) <= 1e-13 * s_want[0])
    synth = synth_gmp(SynthSpec(81, 40, 40, seed=121, field=field))  # g1 81 x 40, g2 40 x 40
    short = synth_gmp(SynthSpec(30, 30, 20, seed=122, field=field))  # m, p < 4 rank = 48
    square = random_pair(60, 60, 60, seed=123, field=field)
    for pair in (synth.pair, square):
        direct = compute_gsv(pair, GsvOptions(method="direct"))
        solve = run(pair, GsvOptions(extraction=ExtractionConfig(seed=124)))
        assert min(solve.residuals) > 0.0  # both sides sketched
        assert spectrum_gap(solve.spectrum, direct) <= 1e-10
    for made in (synth, short):
        direct = compute_gsv(made.pair, GsvOptions(method="direct"))
        assert spectrum_gap(direct, made.true_spectrum) <= 1e-10

import math

import numpy as np
import pytest
from _util import make_spectrum, random_pair, record_rows, spectrum_gap, structured_pair

from rgsv import (
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
    projected_pair,
    recover_gsvd,
)
from rgsv.engine import spectrum_from_l_blocks, triangular_pair


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

    def test_zero_first_matrix(self):
        # g1 = 0 is a valid pair when g2 has full rank; all alphas vanish
        pair = GmpPair(np.zeros((4, 3)), gaussian_matrix(5, 3, seed=11))
        spec = compute_gsv(pair, GsvOptions(method="direct"))
        assert np.array_equal(spec.alphas, np.zeros(3))
        assert np.array_equal(spec.betas, np.ones(3))
        assert (spec.r, spec.s) == (0, 0)

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
        with pytest.raises(RankDeficiencyError):
            compute_gsv(pair, opts)

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
        # the direct solve's R factor and the randomized solve's R~ carry
        # the singular values of both stacks, so no SVD of either runs
        m, p, n = 60, 50, 30
        pair = GmpPair(gaussian_matrix(m, n, seed=47), gaussian_matrix(p, n, seed=48))
        rows = record_rows(monkeypatch, (np.linalg, "svd"))
        compute_gsv(pair, GsvOptions(method="direct"))
        assert pair.stack_pinv_norm > 0 and pair.stack_norm2 > 0
        opts = GsvOptions(extraction=ExtractionConfig(tol=1e-12, seed=49))
        assert perturbation_bound(pair, projected_pair(pair, opts)) >= 0
        assert rows and m + p not in rows


def triangular_cases():
    """Pairs for the triangular reduction, by name. The tails sit at 1e-6,
    far from classify_tol, so no GSV can snap differently on the two
    routes."""
    tail = np.concatenate([np.linspace(0.99, 0.5, 20), np.full(10, 1e-6)])
    return {
        "real": random_pair(60, 50, 30, seed=80),
        "complex": random_pair(60, 50, 30, seed=81, field="complex"),
        "wide": random_pair(20, 50, 30, seed=82),
        "tail": structured_pair(tail, 80, 70, seed=83)[0],
        "tail_complex": structured_pair(tail, 80, 70, seed=84, field="complex")[0],
    }


class TestTriangularPair:
    @pytest.mark.parametrize("case", ["real", "complex", "wide", "tail", "tail_complex"])
    def test_keeps_what_the_certificate_reads(self, case):
        pair = triangular_cases()[case]
        tri = triangular_pair(pair)
        assert tri.g1.shape == (min(pair.m, pair.n), pair.n)
        assert tri.g2.shape == (min(pair.p, pair.n), pair.n)
        assert tri.g1.dtype == pair.g1.dtype
        # neither pair has been solved, so both stack norms come from an
        # SVD of each stack
        for got, want in ((tri.stack_norm2, pair.stack_norm2),
                          (tri.stack_pinv_norm, pair.stack_pinv_norm)):
            assert abs(got - want) <= 1e-12 * want
        for r, g in ((tri.g1, pair.g1), (tri.g2, pair.g2)):
            assert abs(frobenius_norm(r) - frobenius_norm(g)) <= 1e-13 * frobenius_norm(g)
        direct = GsvOptions(method="direct")
        assert spectrum_gap(compute_gsv(tri, direct), compute_gsv(pair, direct)) <= 1e-12


class TestRecoverGsvd:
    def _check_factors(self, pair, fac, tol=1e-8):
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


def test_options_validation():
    with pytest.raises(ValidationError):
        GsvOptions(classify_tol=0.5)
    with pytest.raises(ValidationError):
        GsvOptions(method="magic")

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from rgsv import (
    ConvergenceError,
    DimensionError,
    ValidationError,
    as_matrix,
    frobenius_norm,
    gaussian_matrix,
    reduced_qr,
    svd,
)
from rgsv import core
from rgsv.core import row_bands, sum_sq


class TestAsMatrix:
    def test_rejects_non_2d(self):
        with pytest.raises(DimensionError):
            as_matrix(np.zeros(3))

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            as_matrix(np.zeros((0, 4)))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValidationError):
            as_matrix(np.array([[1.0, np.nan]]))
        with pytest.raises(ValidationError):
            as_matrix(np.array([[1.0, np.inf]]))
        with pytest.raises(ValidationError):
            as_matrix(np.array([[1.0, 1j * np.nan]]))

    def test_promotes_dtypes(self):
        assert as_matrix([[1, 2]]).dtype == np.float64
        assert as_matrix(np.ones((2, 2), dtype=np.complex64)).dtype == np.complex128


class TestGaussianMatrix:
    def test_deterministic_per_seed(self):
        a = gaussian_matrix(2, 2, seed=42)
        b = gaussian_matrix(2, 2, seed=42)
        assert (a == b).all()

    def test_seed_sensitivity(self):
        a = gaussian_matrix(5, 3, seed=1)
        b = gaussian_matrix(5, 3, seed=2)
        assert (a != b).any()

    def test_moments(self):
        a = gaussian_matrix(1000, 1000, seed=0)
        assert abs(a.mean()) < 0.01
        assert abs(a.var() - 1.0) < 0.02

    def test_complex_unit_variance(self):
        z = gaussian_matrix(1000, 1000, seed=0, field="complex")
        assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.02
        # real and imaginary parts each carry half the variance
        assert abs(z.real.var() - 0.5) < 0.01
        assert abs(z.imag.var() - 0.5) < 0.01

    def test_negative_seed_accepted(self):
        a = gaussian_matrix(3, 3, seed=-7)
        b = gaussian_matrix(3, 3, seed=-7)
        assert (a == b).all()

    def test_size_validation(self):
        with pytest.raises(DimensionError):
            gaussian_matrix(0, 3, seed=0)
        with pytest.raises(ValidationError):
            gaussian_matrix(2, 2, seed=0, field="quaternion")


class TestReducedQr:
    def test_identity(self):
        q, r = reduced_qr(np.eye(3))
        assert np.allclose(q, np.eye(3), atol=1e-15)
        assert np.allclose(r, np.eye(3), atol=1e-15)

    def test_single_column_normalization(self):
        q, r = reduced_qr(np.array([[3.0], [4.0]]))
        assert np.allclose(q, [[0.6], [0.8]], atol=1e-15)
        assert np.allclose(r, [[5.0]], atol=1e-15)

    def test_reconstruction_residual(self):
        m = gaussian_matrix(50, 20, seed=3)
        q, r = reduced_qr(m)
        assert np.linalg.norm(q @ r - m) <= 1e-13 * np.linalg.norm(m)

    def test_orthonormal_columns(self):
        for field in ("real", "complex"):
            m = gaussian_matrix(40, 15, seed=5, field=field)
            q, r = reduced_qr(m)
            k = q.shape[1]
            gram = q.conj().T @ q - np.eye(k)
            assert np.linalg.norm(gram) <= 1e-12 * math.sqrt(k)
            # off-diagonal inner products individually small
            np.fill_diagonal(gram, 0)
            assert np.max(np.abs(gram)) <= 1e-12

    def test_diagonal_phase_convention(self):
        for field in ("real", "complex"):
            m = gaussian_matrix(12, 12, seed=9, field=field)
            _, r = reduced_qr(m)
            d = np.diagonal(r)
            assert np.all(d.real >= 0)
            if field == "complex":
                assert np.max(np.abs(d.imag)) <= 1e-13 * np.max(np.abs(d))

    def test_strictly_upper_triangular(self):
        m = gaussian_matrix(10, 6, seed=1)
        _, r = reduced_qr(m)
        assert np.all(r[np.tril_indices_from(r, -1)] == 0)

    def test_wide_matrix(self):
        m = gaussian_matrix(4, 9, seed=2)
        q, r = reduced_qr(m)
        assert q.shape == (4, 4) and r.shape == (4, 9)
        assert np.linalg.norm(q @ r - m) <= 1e-13 * np.linalg.norm(m)

    def test_rank_deficient_permitted(self):
        u = gaussian_matrix(20, 1, seed=4)
        m = u @ u.T  # rank 1, 20 x 20
        q, r = reduced_qr(m)
        assert np.linalg.norm(q @ r - m) <= 1e-12 * np.linalg.norm(m)


class TestRFactor:
    """r_factor: one R-only QR below 8 n rows, two row blocks from there."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("rows,split", [(8 * 20 - 1, False), (8 * 20, True), (10 * 20, True)])
    def test_matches_one_r_only_qr(self, rows, split, field, monkeypatch):
        g = gaussian_matrix(rows, 20, seed=40, field=field)
        want = np.linalg.svd(np.linalg.qr(g, mode="r"), compute_uv=False)
        qr, calls = np.linalg.qr, []

        def recording_qr(a, mode="reduced"):
            calls.append((a.shape[0], mode))
            return qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", recording_qr)
        r = core.r_factor(g)
        assert r.shape == (20, 20) and np.all(r[np.tril_indices(20, -1)] == 0)
        got = np.linalg.svd(r, compute_uv=False)
        assert np.all(np.abs(got - want) <= 1e-13 * want)
        top = (rows + 20) // 2
        blocks = [(top, "r"), (rows - top, "r"), (40, "r")] if split else [(rows, "r")]
        assert calls == blocks

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_rank_deficient_tall_side(self, field):
        g = gaussian_matrix(300, 5, seed=41, field=field) @ gaussian_matrix(5, 20, seed=42, field=field)
        want = np.linalg.svd(np.linalg.qr(g, mode="r"), compute_uv=False)
        got = np.linalg.svd(core.r_factor(g), compute_uv=False)
        assert np.all(np.abs(got - want) <= 1e-13 * want[0])
        assert got[5] <= 1e-13 * got[0]

    def test_holds_less_than_a_copy_of_its_input(self):
        # one R-only QR copies the whole 4000 x 400 side (1.11 g.nbytes at
        # its peak); two blocks peak at the copy of (m + 3n)/2 rows, 0.66
        g = gaussian_matrix(4000, 400, seed=43)
        tracemalloc.start()
        try:
            core.r_factor(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.7 * g.nbytes


class TestSvd:
    def test_diagonal_sorted(self):
        f = svd(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(f.s, [3.0, 2.0, 1.0], atol=0)

    def test_zero_matrix(self):
        f = svd(np.zeros((4, 2)))
        assert f.s.shape == (2,)
        assert np.all(f.s == 0)

    def test_singular_values_of_adjoint(self):
        m = gaussian_matrix(30, 30, seed=8)
        s1 = svd(m).s
        s2 = svd(m.conj().T).s
        assert np.max(np.abs(s1 - s2)) <= 1e-12

    def test_reconstruction(self):
        for field in ("real", "complex"):
            m = gaussian_matrix(25, 10, seed=6, field=field)
            f = svd(m)
            rec = f.u @ (f.s[:, None] * f.v.conj().T)
            assert np.linalg.norm(rec - m) <= 1e-11 * max(1.0, np.linalg.norm(m))

    def test_energy_identity(self):
        m = gaussian_matrix(17, 23, seed=7)
        f = svd(m)
        assert abs(np.sum(f.s**2) - frobenius_norm(m) ** 2) <= 1e-10 * frobenius_norm(m) ** 2

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_values_only(self, field):
        m = gaussian_matrix(40, 15, seed=9, field=field)
        f = svd(m, compute_uv=False)
        assert f.u is None and f.v is None
        assert np.max(np.abs(f.s - svd(m).s)) <= 1e-13 * f.s[0]

    @pytest.mark.parametrize("compute_uv", [True, False])
    def test_lapack_failure_is_convergence_error(self, compute_uv, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        with pytest.raises(ConvergenceError):
            svd(np.eye(3), compute_uv=compute_uv)


class TestFrobeniusNorm:
    def test_identity(self):
        assert frobenius_norm(np.eye(4)) == 2.0

    def test_three_four_five(self):
        assert frobenius_norm(np.array([[3.0, 4.0]])) == 5.0

    def test_matches_singular_values(self):
        m = gaussian_matrix(31, 12, seed=10)
        s = svd(m).s
        assert abs(frobenius_norm(m) - math.sqrt(np.sum(s**2))) <= 1e-12 * frobenius_norm(m)

    def test_unitary_invariance(self):
        m = gaussian_matrix(30, 8, seed=11)
        q, _ = reduced_qr(gaussian_matrix(30, 30, seed=12))
        assert abs(frobenius_norm(q @ m) - frobenius_norm(m)) <= 1e-12 * frobenius_norm(m)

    @pytest.mark.parametrize("shape", [(0, 5), (4, 0), (0,)])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_sum_sq_of_empty_input_is_zero(self, shape, dtype):
        assert sum_sq(np.zeros(shape, dtype)) == 0.0

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_sum_sq_of_a_difference_takes_one_call_per_band(self, field):
        a = gaussian_matrix(3000, 100, seed=13, field=field)  # 2.4 or 4.8 MB: several bands
        b = gaussian_matrix(3000, 100, seed=14, field=field)
        bands = []

        def minus(band, out):
            bands.append(band)
            out[...] = b[band]

        want = np.linalg.norm(a - b) ** 2
        assert abs(sum_sq(a, minus) - want) <= 1e-13 * want
        assert bands == row_bands(a) and len(bands) > 1


def _phase_normalized_qr(a):
    """np.linalg.qr(a) with R's diagonal made real and positive."""
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    ph = d / np.abs(d)
    return q * ph, r * np.conj(ph)[:, None]


class TestReducedQrPanels:
    """Sketch panels, among them ill-conditioned, rank-deficient and
    overflowing ones, get phase-normalized Householder factors."""

    @staticmethod
    def _factor(a):
        """reduced_qr(a) with warnings as errors."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return reduced_qr(a)

    @staticmethod
    def _check_invariants(a, q, r):
        k = a.shape[1]
        scale = np.max(np.abs(a))
        assert q.shape == a.shape and r.shape == (k, k)
        assert np.all(np.isfinite(q)) and np.all(np.isfinite(r))
        assert np.linalg.norm(q.conj().T @ q - np.eye(k)) <= 1e-12 * math.sqrt(k)
        assert np.linalg.norm((q @ r - a) / scale) <= 1e-12 * np.linalg.norm(a / scale)
        assert np.all(r[np.tril_indices_from(r, -1)] == 0)
        assert np.all(np.diagonal(r).real >= 0)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("shape", [(4000, 100), (1000, 67), (800, 67), (400, 100)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_is_bitwise_the_phase_normalized_lapack_qr(self, shape, field):
        a = gaussian_matrix(*shape, seed=37, field=field)
        q_ref, r_ref = _phase_normalized_qr(a)
        q, r = self._factor(a)
        assert np.array_equal(q, q_ref) and np.array_equal(r, r_ref)
        self._check_invariants(a, q, r)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_well_conditioned_panel_matches_householder(self, field):
        a = gaussian_matrix(4000, 100, seed=31, field=field)
        q_ref, r_ref = _phase_normalized_qr(a)
        q, r = self._factor(a)
        assert np.array_equal(q, q_ref) and np.array_equal(r, r_ref)
        self._check_invariants(a, q, r)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_panel_with_a_dominant_column_matches_the_lapack_qr(self, field):
        # a Gaussian panel whose last column also carries 10x the sum of
        # the others: kappa_2 ~ 1e4, but ||R||_1 ||R^-1||_1 ~ 1e6
        t = np.eye(100)
        t[:-1, -1] = 10.0
        a = gaussian_matrix(4000, 100, seed=36, field=field) @ t
        q_ref, r_ref = _phase_normalized_qr(a)
        q, r = self._factor(a)
        assert np.max(np.abs(q - q_ref)) <= 1e-13
        assert np.linalg.norm(r - r_ref) <= 1e-13 * np.linalg.norm(r_ref)
        self._check_invariants(a, q, r)

    def test_ill_conditioned_panel_keeps_the_invariants(self):
        u = reduced_qr(gaussian_matrix(4000, 100, seed=32)).q
        v = reduced_qr(gaussian_matrix(100, 100, seed=33)).q
        sigma = np.concatenate([np.linspace(1.0, 0.5, 40), np.full(60, 1e-10)])
        a = u @ (sigma[:, None] * v.T)  # rank 40 plus a 1e-10 tail
        self._check_invariants(a, *self._factor(a))

    def test_huge_entries_keep_the_invariants(self):
        a = 1e200 * gaussian_matrix(2000, 50, seed=34)  # its Gram matrix overflows
        self._check_invariants(a, *self._factor(a))

    def test_one_huge_column_keeps_the_invariants(self):
        a = gaussian_matrix(2000, 50, seed=35)
        a[:, 0] *= 1e160  # only the (0, 0) entry of its Gram matrix overflows
        self._check_invariants(a, *self._factor(a))


@settings(max_examples=60, deadline=None)
@given(
    arrays(
        np.float64,
        array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
        elements=st.floats(-1e6, 1e6, allow_nan=False),
    )
)
def test_frobenius_matches_numpy(a):
    assert abs(frobenius_norm(a) - np.linalg.norm(a)) <= 1e-12 * max(1.0, np.linalg.norm(a))


@settings(max_examples=40, deadline=None)
@given(
    arrays(
        np.float64,
        array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=10),
        elements=st.floats(-100, 100, allow_nan=False),
    )
)
def test_qr_invariants_hold_on_arbitrary_input(a):
    q, r = reduced_qr(a)
    k = min(a.shape)
    assert q.shape == (a.shape[0], k)
    assert np.linalg.norm(q.conj().T @ q - np.eye(k)) <= 1e-12 * math.sqrt(max(k, 1))
    assert np.linalg.norm(q @ r - a) <= 1e-12 * max(1.0, np.linalg.norm(a))

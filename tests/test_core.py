import importlib.util
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _util import child_env
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.linalg import get_lapack_funcs

from rgsv import (
    ConvergenceError,
    DimensionError,
    ValidationError,
    as_matrix,
    frobenius_norm,
    gaussian_matrix,
    reduced_qr,
    svd,
    write_matrix,
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


def _banded_r(g):
    """The R of a sequential TSQR of g as r_factor takes it: LAPACK ?geqrt
    (block width 32) of its first 1 MiB band of rows, at least n rows deep,
    and ?tpqrt of each later band."""
    m, n = g.shape
    geqrt, tpqrt = get_lapack_funcs(("geqrt", "tpqrt"), (g,))
    step = max(1, 2**20 // (g.itemsize * n))
    top = max(step, n)
    a, _, info = geqrt(min(32, n), g[:top])
    assert info == 0
    r = np.triu(a[:n])
    for i in range(top, m, step):
        r, _, _, info = tpqrt(0, min(32, n), r, g[i:i + step])
        assert info == 0
    return r


def _recording_qr(monkeypatch):
    """Replace np.linalg.qr by a wrapper that records (rows, mode) of each
    call in the returned list."""
    qr, calls = np.linalg.qr, []

    def recording_qr(a, mode="reduced"):
        calls.append((a.shape[0], mode))
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    return calls


class TestRFactor:
    """r_factor: one R-only np.linalg.qr under 4 rows per column, a banded
    TSQR by ?geqrt and ?tpqrt from there (1 MiB bands: 256 rows of 512
    real columns, 6553 of 20)."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("rows,cols,tall", [(159, 40, False), (2047, 512, False),
                                                (2048, 512, True), (14000, 20, True)],
                             ids=["159-False", "2047-False", "2048-True", "14000-True"])
    def test_matches_one_r_only_qr(self, rows, cols, tall, field, monkeypatch):
        # the short cases are one row short of tall (m = 4n - 1), 2048 x 512
        # is tall with no row to spare (m = 4n)
        g = gaussian_matrix(rows, cols, seed=40, field=field)
        before = g.copy()
        one_qr = np.linalg.qr(g, mode="r")
        want = np.linalg.svd(one_qr, compute_uv=False)
        calls = _recording_qr(monkeypatch)
        r = core.r_factor(g)
        assert r.shape == (cols, cols) and np.all(r[np.tril_indices(cols, -1)] == 0)
        assert np.array_equal(r, _banded_r(g) if tall else one_qr)
        got = np.linalg.svd(r, compute_uv=False)
        assert np.all(np.abs(got - want) <= 1e-13 * want)
        assert calls == ([] if tall else [(rows, "r")])
        assert np.array_equal(g, before)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_rank_deficient_tall_side(self, field):
        g = gaussian_matrix(300, 5, seed=41, field=field) @ gaussian_matrix(5, 20, seed=42, field=field)
        want = np.linalg.svd(np.linalg.qr(g, mode="r"), compute_uv=False)
        got = np.linalg.svd(core.r_factor(g), compute_uv=False)
        assert np.all(np.abs(got - want) <= 1e-13 * want[0])
        assert got[5] <= 1e-13 * got[0]

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_rank_deficient_banded_side(self, field, monkeypatch):
        g = gaussian_matrix(8000, 5, seed=41, field=field) @ gaussian_matrix(5, 20, seed=42, field=field)
        before = g.copy()
        want = np.linalg.svd(np.linalg.qr(g, mode="r"), compute_uv=False)
        calls = _recording_qr(monkeypatch)
        r = core.r_factor(g)
        assert np.array_equal(r, _banded_r(g)) and calls == []
        got = np.linalg.svd(r, compute_uv=False)
        assert np.all(np.abs(got - want) <= 1e-13 * want[0])
        assert got[5] <= 1e-13 * got[0]
        assert np.array_equal(g, before)

    def test_holds_less_than_a_copy_of_its_input(self):
        # one R-only QR copies the whole 4000 x 400 side (1.11 g.nbytes at
        # its peak); the banded TSQR holds R, the first 400 rows and one
        # band of 327 rows. A first call loads _flapack untraced.
        g = gaussian_matrix(4000, 400, seed=43)
        core.r_factor(g)
        tracemalloc.start()
        try:
            core.r_factor(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.35 * g.nbytes


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


    @pytest.mark.parametrize("case", ["real", "complex", "real_minus_complex"])
    def test_sum_sq_matches_numpy_over_many_bands(self, case):
        # 20000 x 50: 8 real bands of 2621 rows or 16 complex ones of 1310
        a = gaussian_matrix(20000, 50, seed=15, field="complex" if case == "complex" else "real")
        m = gaussian_matrix(20000, 50, seed=16, field="real" if case == "real" else "complex")
        assert len(row_bands(a)) >= 8
        want = np.linalg.norm(a) ** 2
        assert abs(sum_sq(a) - want) <= 1e-14 * want
        want = np.linalg.norm(a - m) ** 2
        got = sum_sq(a, lambda band, out: np.copyto(out, m[band]), m.dtype)
        assert abs(got - want) <= 1e-14 * want

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_sum_sq_in_place_is_bitwise_the_buffered_sum(self, field, order):
        # a C-contiguous a is read band by band in place, any other copied
        # into the buffer; a - 0 goes through the buffer whatever its order
        a = gaussian_matrix(3000, 100, seed=17, field=field)  # several bands
        buffered = sum_sq(a, lambda band, out: out.fill(0), a.dtype)
        b = np.asarray(a, order=order)
        sum_sq(b)
        tracemalloc.start()
        try:
            got = sum_sq(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(row_bands(b)) > 1
        assert got == buffered
        # in place: no band-sized buffer
        assert (peak < core._BAND_BYTES // 16) == (order == "C")


class TestFoldQr:
    """fold_qr: the QR of [R; B] by ?tpqrt and ?tpmqrt, where B is sketch
    rows (l = 0) or a second triangle (l = n)."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("l", ["0", "n"])
    def test_is_the_qr_of_the_stack(self, l, field):
        n = 40
        r = core.r_factor(gaussian_matrix(2400, n, seed=60, field=field))
        if l == "n":
            b = core.r_factor(gaussian_matrix(2100, n, seed=61, field=field))
        else:
            b = gaussian_matrix(13, n, seed=61, field=field)
        before = b.copy()
        stack = np.vstack([r, b])
        want = np.linalg.svd(np.linalg.qr(stack, mode="r"), compute_uv=False)
        folded, q_blocks = core.fold_qr(r, b, n if l == "n" else 0)
        assert folded is r  # r_factor's Fortran-ordered R is folded in place
        got = np.linalg.svd(folded, compute_uv=False)
        assert np.all(np.abs(got - want) <= 1e-13 * want)
        assert np.all(folded[np.tril_indices(n, -1)] == 0)
        d = np.diagonal(folded)
        assert np.all(d.imag == 0) and np.all(d.real >= 0)
        qa, qb = q_blocks()
        assert qa.shape == (n, n) and qb.shape == b.shape
        q = np.vstack([qa, qb])
        assert np.linalg.norm(q.conj().T @ q - np.eye(n)) <= 10 * n * np.finfo(np.float64).eps
        assert np.linalg.norm(q @ folded - stack) <= 1e-13 * np.linalg.norm(stack)
        assert np.array_equal(b, before)


# computes in a fresh interpreter, with the extension files found, not
# found (argv[1] "missing") or failing to load by file path as when a
# library they link is not found ("create", "exec": the step that fails),
# and saves its arrays to argv[3]; its first stdout line lists the scipy
# packages loaded by then; found, it then imports scipy.linalg and
# scipy.io and checks that they reuse its modules
_EXTENSION_CHILD = """
import importlib.machinery, importlib.util, sys
import numpy as np
from rgsv import core, io
if sys.argv[1] == "missing":
    importlib.machinery.EXTENSION_SUFFIXES = [".missing"]
if sys.argv[1] in ("create", "exec"):
    class Failing(importlib.machinery.ExtensionFileLoader):
        def create_module(self, spec):
            if sys.argv[1] == "create":
                raise ImportError("DLL load failed")
            return super().create_module(spec)
        def exec_module(self, module):
            raise OSError("cannot load library")
    spec_at = importlib.util.spec_from_file_location
    importlib.util.spec_from_file_location = (
        lambda name, path: spec_at(name, path, loader=Failing(name, path)))
g, z = (core.gaussian_matrix(2100, 100, seed=7, field=f) for f in ("real", "complex"))
out = {"q": core.reduced_qr(g).q, "r": core.r_factor(g), "zq": core.reduced_qr(z).q,
       "zr": core.r_factor(z), "read": io.read_matrix(sys.argv[2])}
np.savez(sys.argv[3], **out)
print(sorted(m for m in ("scipy.io", "scipy.linalg") if m in sys.modules))
if sys.argv[1] == "found":
    flapack = sys.modules["scipy.linalg._flapack"]
    fmm = sys.modules.get("scipy.io._fast_matrix_market._fmm_core")
    import scipy.io, scipy.linalg
    from scipy.linalg import get_lapack_funcs
    names = ("geqrt", "gemqrt", "tpqrt", "tpmqrt")
    for a in (g, z):
        public, ours = get_lapack_funcs(names, (a,)), core._lapack(names, a)
        assert all(x is y for x, y in zip(public, ours))
        assert public[0](32, a)[0].tobytes() == ours[0](32, a)[0].tobytes()
    assert scipy.linalg.lapack._flapack is flapack
    assert [m for m in sys.modules if m.endswith("._flapack")] == ["scipy.linalg._flapack"]
    assert (scipy.io.mmread(sys.argv[2]) + 0.0).tobytes() == out["read"].tobytes()
    assert [m for m in sys.modules if m.endswith("._fmm_core")] == (
        [] if fmm is None else ["scipy.io._fast_matrix_market._fmm_core"])
    assert fmm is None or sys.modules["scipy.io._fast_matrix_market._fmm_core"] is fmm
    print("reused")
"""


class TestExtension:
    """_extension loads scipy's _flapack and _fmm_core by file path, which a
    later public import reuses, and falls back to the public import."""

    def test_a_loaded_module_is_not_loaded_again(self, monkeypatch):
        import scipy.linalg

        def load(*args, **kwargs):
            raise AssertionError("a second load")

        monkeypatch.setattr(importlib.util, "spec_from_file_location", load)
        a = gaussian_matrix(8, 2, seed=1, field="complex")
        names = ("geqrt", "gemqrt", "tpqrt", "tpmqrt")
        got = core._lapack(names, a)
        assert all(x is getattr(scipy.linalg.lapack._flapack, "z" + n) for x, n in zip(got, names))

    def test_direct_load_is_reused_and_a_missing_file_takes_the_public_import(self, tmp_path):
        mtx = tmp_path / "tall.mtx"
        write_matrix(mtx, gaussian_matrix(2100, 3, seed=9))
        lines, saved = {}, {}
        for mode in ("found", "missing", "create", "exec"):
            saved[mode] = tmp_path / f"{mode}.npz"
            argv = [sys.executable, "-c", _EXTENSION_CHILD, mode, str(mtx), str(saved[mode])]
            proc = subprocess.run(argv, capture_output=True, text=True, env=child_env())
            assert proc.returncode == 0, proc.stderr
            lines[mode] = proc.stdout.split("\n")
        fmm = importlib.util.find_spec("scipy.io._fast_matrix_market") is not None
        assert lines["found"][:2] == ["[]" if fmm else "['scipy.io']", "reused"]
        for mode in ("missing", "create", "exec"):
            assert lines[mode][0] == "['scipy.io', 'scipy.linalg']"
            with np.load(saved["found"]) as found, np.load(saved[mode]) as public:
                assert sorted(found) == sorted(public) == ["q", "r", "read", "zq", "zr"]
                for key in found:
                    assert found[key].dtype == public[key].dtype
                    assert found[key].tobytes() == public[key].tobytes()


def _tall(a):
    """Whether reduced_qr factors a by ?geqrt: 4 rows per column or more."""
    m, n = a.shape
    return m >= 4 * n


def _phase_normalized_qr(a):
    """The Householder QR of a as reduced_qr takes it, with R's diagonal
    made real and positive: LAPACK ?geqrt (block width 32) and ?gemqrt on
    the leading columns of I for a tall a, else np.linalg.qr."""
    m, n = a.shape
    if not _tall(a):
        q, r = np.linalg.qr(a)
    else:
        geqrt, gemqrt = get_lapack_funcs(("geqrt", "gemqrt"), (a,))
        v, t, info = geqrt(min(32, n), a)
        assert info == 0
        q, info = gemqrt(v, t, np.eye(m, n, dtype=a.dtype))
        assert info == 0
        r = np.triu(v[:n])
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

    def _factor_as_the_reference(self, a, monkeypatch):
        """Assert that reduced_qr(a) is bitwise _phase_normalized_qr(a),
        calls np.linalg.qr only for a that is not tall, leaves a unchanged
        and keeps the invariants."""
        before = a.copy()
        q_ref, r_ref = _phase_normalized_qr(a)
        calls = _recording_qr(monkeypatch)
        q, r = self._factor(a)
        assert np.array_equal(q, q_ref) and np.array_equal(r, r_ref)
        assert calls == ([] if _tall(a) else [(a.shape[0], "reduced")])
        assert np.array_equal(a, before)
        self._check_invariants(a, q, r)

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
    @pytest.mark.parametrize("shape", [(4000, 100), (1000, 67), (800, 67), (400, 100),
                                       (2047, 100), (2048, 100), (2048, 512), (2048, 513)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_is_bitwise_the_phase_normalized_lapack_qr(self, shape, field, monkeypatch):
        self._factor_as_the_reference(gaussian_matrix(*shape, seed=37, field=field), monkeypatch)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_well_conditioned_panel_matches_householder(self, field, monkeypatch):
        self._factor_as_the_reference(gaussian_matrix(4000, 100, seed=31, field=field), monkeypatch)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_rank_deficient_tall_panel_is_bitwise_the_lapack_qr(self, field, monkeypatch):
        a = gaussian_matrix(4000, 10, seed=38, field=field) @ gaussian_matrix(10, 30, seed=39, field=field)
        self._factor_as_the_reference(a, monkeypatch)

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


def _recording_lapack(monkeypatch):
    """Wrap every LAPACK function core._lapack hands out so that its name
    is appended to the returned list on every call."""
    calls, lapack = [], core._lapack

    def recording(names, a):
        def wrapped(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        return [wrapped(name, fn) for name, fn in zip(names, lapack(names, a))]

    monkeypatch.setattr(core, "_lapack", recording)
    return calls


def _phase_free(r):
    """r with its rows scaled by unit scalars that make its diagonal real and
    nonnegative (rows of a zero diagonal entry unscaled)."""
    d = np.diagonal(r)
    absd = np.abs(d)
    return r * np.conj(np.where(absd > 0, d / np.where(absd > 0, absd, 1.0), 1.0))[:, None]


class TestTallRuleEdges:
    """The QRs on either side of the tall rule (m >= 4n), at one column, in
    one band and in several, and with an exactly zero column: reduced_qr
    and r_factor take the kernel the rule names, and their R is numpy's up
    to the phase convention."""

    # (rows, cols, zero column or None); real rows of 100 columns fill a
    # 1 MiB band at 1310 rows, complex ones at 655, and of 1 column at
    # 131072 and 65536
    CASES = {
        "m_4n": (400, 100, None),
        "m_4n-1": (399, 100, None),
        "n_1": (4, 1, None),
        "n_1_short": (3, 1, None),
        "n_1_banded": (140000, 1, None),
        "banded": (4000, 100, None),
        "zero_column": (400, 100, 37),
        "zero_column_short": (399, 100, 37),
    }

    @classmethod
    def _input(cls, case, field):
        rows, cols, zero = cls.CASES[case]
        a = gaussian_matrix(rows, cols, seed=44, field=field)
        if zero is not None:
            a[:, zero] = 0.0
        return a, zero

    @staticmethod
    def _bands_after_the_first(a):
        """The ?tpqrt calls of r_factor's TSQR of a: its bands after the first."""
        m, n = a.shape
        step = max(1, 2**20 // (a.itemsize * n))
        return len(range(max(step, n), m, step))

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_reduced_qr(self, case, field, monkeypatch):
        a, zero = self._input(case, field)
        m, n = a.shape
        want = _phase_free(np.linalg.qr(a, mode="r"))
        calls = _recording_lapack(monkeypatch)
        q, r = reduced_qr(a)
        assert calls == (["geqrt", "gemqrt"] if m >= 4 * n else [])
        assert q.shape == (m, n) and r.shape == (n, n)
        assert np.linalg.norm(q.conj().T @ q - np.eye(n)) <= 1e-13
        assert np.linalg.norm(q @ r - a) <= 1e-13 * np.linalg.norm(a)
        assert np.all(r[np.tril_indices(n, -1)] == 0)
        d = np.diagonal(r)
        assert np.all(d.real >= 0) and np.all(np.abs(d.imag) <= 1e-15 * d.real)
        assert np.linalg.norm(r - want) <= 1e-13 * np.linalg.norm(a)
        if zero is not None:
            assert d[zero] == 0 and np.all(r[: zero + 1, zero] == 0)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_r_factor(self, case, field, monkeypatch):
        a, zero = self._input(case, field)
        m, n = a.shape
        before = a.copy()
        want = _phase_free(np.linalg.qr(a, mode="r"))
        calls = _recording_lapack(monkeypatch)
        r = core.r_factor(a)
        if m >= 4 * n:
            assert calls == ["geqrt"] + ["tpqrt"] * self._bands_after_the_first(a)
        else:
            assert calls == []
        assert r.shape == (n, n) and np.all(r[np.tril_indices(n, -1)] == 0)
        got = _phase_free(r)
        d = np.diagonal(got)
        assert np.all(d.real >= 0) and np.all(np.abs(d.imag) <= 1e-15 * d.real)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(a)
        if zero is not None:
            assert d[zero] == 0 and np.all(r[: zero + 1, zero] == 0)
        assert np.array_equal(a, before)

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

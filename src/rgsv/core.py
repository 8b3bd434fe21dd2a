"""Dense matrix primitives used by every other module.

Matrices are plain numpy arrays, real (float64) or complex (complex128).
``as_matrix`` is the single validation gate: 2-D, nonempty, all entries
finite. Factorizations are LAPACK-backed (Householder QR, CholeskyQR2 for
tall narrow panels, dense SVD) with a fixed phase convention so that
factors are deterministic and usable in golden tests.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DimensionError, ValidationError

REAL = "real"
COMPLEX = "complex"

_SEED_MASK = (1 << 64) - 1


class QrFactors(NamedTuple):
    """Reduced QR factors: ``q`` has orthonormal columns, ``r`` is upper
    triangular with nonnegative real diagonal, and ``q @ r`` reconstructs
    the input."""

    q: np.ndarray
    r: np.ndarray


class SvdFactors(NamedTuple):
    """Reduced SVD factors: ``u @ diag(s) @ v.conj().T`` reconstructs the
    input, with ``s`` real, nonnegative and nonincreasing. ``u`` and ``v``
    are None when only the singular values were computed."""

    u: np.ndarray | None
    s: np.ndarray
    v: np.ndarray | None


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate ``a`` as a nonempty 2-D matrix of finite entries and return
    it as float64 or complex128."""
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionError(f"{name} must have positive dimensions, got {arr.shape}")
    if np.iscomplexobj(arr):
        arr = arr.astype(np.complex128, copy=False)
    else:
        arr = arr.astype(np.float64, copy=False)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def seeded_rng(seed: int) -> np.random.Generator:
    """The generator behind every seeded draw: ``default_rng`` of the seed
    reduced modulo 2^64, so negative and oversized seeds are accepted."""
    return np.random.default_rng(int(seed) & _SEED_MASK)


def gaussian_block(rng, rows: int, cols: int, field: str = REAL) -> np.ndarray:
    """The next ``rows x cols`` Gaussian block drawn from ``rng``: standard
    normal, or complex sqrt(1/2) (re + i im) with the real parts drawn
    first (unit total variance)."""
    if field not in (REAL, COMPLEX):
        raise ValidationError(f"field must be 'real' or 'complex', got {field!r}")
    re = rng.standard_normal((rows, cols))
    if field == REAL:
        return re
    return math.sqrt(0.5) * (re + 1j * rng.standard_normal((rows, cols)))


def gaussian_matrix(rows: int, cols: int, seed: int, field: str = REAL) -> np.ndarray:
    """Sample a ``rows x cols`` Gaussian matrix (see ``gaussian_block``),
    bitwise reproducible for a fixed ``(rows, cols, seed, field)``."""
    if rows < 1 or cols < 1:
        raise DimensionError(f"matrix dimensions must be positive, got ({rows}, {cols})")
    return gaussian_block(seeded_rng(seed), rows, cols, field)


# CholeskyQR2 fast path of reduced_qr: panels at most this many columns
# wide and at least this many times taller than wide.
_CHOLQR_MAX_COLS = 128
_CHOLQR_MIN_ASPECT = 4
# Largest accepted condition number of a Cholesky factor R (kappa_2(R) is
# the panel's own). The cheap ||R||_1 * ||R^-1||_1 is tested first; it is at
# least kappa_2(R)/n, so it alone admits kappa_2 up to about 128 * 1e5 ~ 1e7
# < u^(-1/2). Only a factor it rejects pays for R's singular values and is
# accepted when kappa_2(R) <= 1e5, which keeps that worst case unchanged.
_CHOLQR_MAX_COND = 1e5


def reduced_qr(m) -> QrFactors:
    """Reduced (economy) QR.

    Tall, narrow panels (at most 128 columns and at least four times as
    many rows as columns, the shape of a sketch block) take CholeskyQR2:
    R1 = chol(Y^H Y), P = Y R1^-1, R2 = chol(P^H P), Q = P R2^-1 and
    R = R2 R1, all BLAS-3. The panel falls back to Householder reflections
    when its Gram matrix is not finite, a Cholesky factorization fails, or
    a Cholesky factor is too ill-conditioned: ||R||_1 * ||R^-1||_1 above
    1e5 and, tested only then, kappa_2(R) above 1e5 as well. So
    ill-conditioned and rank-deficient panels get the Householder factors.
    Every other shape uses Householder reflections.

    The phase convention makes the diagonal of R real and nonnegative,
    which fixes the factors uniquely for full-column-rank input. Rank
    deficiency is permitted; trailing diagonal entries of R may be ~0.
    """
    a = as_matrix(m)
    rows, cols = a.shape
    if cols <= _CHOLQR_MAX_COLS and rows >= _CHOLQR_MIN_ASPECT * cols:
        factors = _cholesky_qr2(a)
        if factors is not None:
            return factors
    return _householder_qr(a)


def _cholesky_qr2(a: np.ndarray) -> QrFactors | None:
    """CholeskyQR2 factors of a, or None when either pass is rejected."""
    first = _cholesky_factor(a)
    if first is None:
        return None
    r1, r1_inv = first
    p = a @ r1_inv
    second = _cholesky_factor(p)
    if second is None:
        return None
    r2, r2_inv = second
    return QrFactors(p @ r2_inv, r2 @ r1)


def _householder_qr(a: np.ndarray) -> QrFactors:
    q, r = np.linalg.qr(a, mode="reduced")
    d = np.diagonal(r)
    if np.iscomplexobj(r):
        absd = np.abs(d)
        ph = np.where(absd > 0, d / np.where(absd > 0, absd, 1.0), 1.0)
    else:
        ph = np.where(d < 0.0, -1.0, 1.0)
    q = q * ph
    r = r * np.conj(ph)[:, None]
    return QrFactors(q, r)


def _cholesky_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(R, R^-1) with R upper triangular, positive diagonal and
    R^H R = a^H a, or None when the Gram matrix is not finite, is not
    numerically positive definite, or R is too ill-conditioned by both its
    1-norm and its 2-norm condition number."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = a.conj().T @ a
    if not np.all(np.isfinite(gram)):
        return None
    try:
        r = np.linalg.cholesky(gram).conj().T
    except np.linalg.LinAlgError:
        return None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # LU of a triangular matrix never pivots, so this is back substitution
        r_inv = np.linalg.inv(r)
        cond = np.linalg.norm(r, 1) * np.linalg.norm(r_inv, 1)
    if not cond <= _CHOLQR_MAX_COND:  # also rejects inf and NaN
        try:
            s = np.linalg.svd(r, compute_uv=False)
        except np.linalg.LinAlgError:
            return None
        if not s[0] <= _CHOLQR_MAX_COND * s[-1]:
            return None
    return r, r_inv


def svd(m, compute_uv: bool = True) -> SvdFactors:
    """Reduced SVD. With ``compute_uv=False`` only the singular values are
    computed, at a fraction of the cost, and ``u`` and ``v`` are None.
    Raises ConvergenceError if the LAPACK kernel fails."""
    a = as_matrix(m)
    try:
        if not compute_uv:
            return SvdFactors(None, np.linalg.svd(a, compute_uv=False), None)
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc
    return SvdFactors(u, s, vh.conj().T)


def _squared_entries(a: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(a):
        return np.square(a.real) + np.square(a.imag)
    return np.square(a)


def sum_sq(a: np.ndarray) -> float:
    """Compensated sum of squared entry magnitudes.

    Column sums use numpy's pairwise summation; the per-column partials are
    combined exactly with math.fsum, so repeated accumulation of many small
    blocks does not drift.
    """
    if a.size == 0:
        return 0.0
    per_col = _squared_entries(a).sum(axis=0)
    return float(math.fsum(np.atleast_1d(per_col)))


def frobenius_norm(m) -> float:
    """Frobenius norm, sqrt of the compensated sum of squared magnitudes."""
    return math.sqrt(sum_sq(as_matrix(m)))


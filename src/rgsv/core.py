"""Dense matrix primitives used by every other module.

Matrices are plain numpy arrays, real (float64) or complex (complex128).
``as_matrix`` is the single validation gate: 2-D, nonempty, all entries
finite. Factorizations are LAPACK-backed (Householder QR, dense SVD) with
a fixed phase convention so that factors are deterministic and usable in
golden tests.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DimensionError, ValidationError

REAL = "real"
COMPLEX = "complex"

_SEED_MASK = (1 << 64) - 1

_BAND_BYTES = 1 << 20  # the largest band of ``row_bands``


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


def reduced_qr(m) -> QrFactors:
    """Reduced (economy) QR by Householder reflections (LAPACK geqrf).

    The phase convention makes the diagonal of R real and nonnegative,
    which fixes the factors uniquely for full-column-rank input. Rank
    deficiency is permitted; trailing diagonal entries of R may be ~0.
    """
    q, r = np.linalg.qr(as_matrix(m), mode="reduced")
    d = np.diagonal(r)
    if np.iscomplexobj(r):
        absd = np.abs(d)
        ph = np.where(absd > 0, d / np.where(absd > 0, absd, 1.0), 1.0)
    else:
        ph = np.where(d < 0.0, -1.0, 1.0)
    # scale in place: no Q-sized product beside LAPACK's Q, which keeps
    # one Q out of the peak of a stacked QR
    q *= ph
    r *= np.conj(ph)[:, None]
    return QrFactors(q, r)


def r_factor(g: np.ndarray) -> np.ndarray:
    """The min(m, n) x n R of a Householder QR of g (m x n), Q never formed.

    One QR holds a copy of g. From m >= 8 n rows, g is factored as two row
    blocks, the first n rows longer, then their stacked Rs (sequential TSQR,
    as stable as one QR: Demmel, Grigori, Hoemmen & Langou 2012), so each
    step peaks at a copy of (m + 3n)/2 rows: 0.66 g at 4000 x 400, against
    1.11 for one QR and 0.71 for halves. Split / one QR time at n = 200 and
    400 (1 BLAS thread, three medians of 15 interleaved runs): 1.12-1.39 at
    4 n, 1.04-1.27 at 6 n, 0.97-1.10 at 7 n, 0.97-1.05 at 8 n (the
    break-even), 0.79-0.92 at 10 n and 20 n."""
    m, n = g.shape
    if m < 8 * n:
        return np.linalg.qr(g, mode="r")
    blocks = g[: (m + n) // 2], g[(m + n) // 2:]
    return np.linalg.qr(np.vstack([np.linalg.qr(b, mode="r") for b in blocks]), mode="r")


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


def row_bands(a: np.ndarray) -> list[slice]:
    """Slices of consecutive rows of ``a``, in order and covering them all,
    each band at most 1 MiB: a loop over them forms no temporary as large
    as ``a``."""
    row_bytes = a.itemsize * math.prod(a.shape[1:])
    step = max(1, _BAND_BYTES // max(row_bytes, 1))
    return [slice(i, i + step) for i in range(0, a.shape[0], step)]


def sum_sq(a: np.ndarray, minus=None, dtype=np.float64) -> float:
    """Compensated sum of squared entry magnitudes of ``a``, or of
    ``a - M`` when ``minus(band, out)`` writes the rows ``band`` of M, of
    dtype ``dtype``, into ``out``.

    Each band of rows (``row_bands``) is copied, or M's rows written and
    subtracted, in one reused buffer of the result dtype, and squared
    there; the per-column partials are combined exactly with math.fsum, so
    no temporary as large as ``a`` is formed and repeated accumulation of
    many small blocks does not drift. Its callers: ``frobenius_norm``;
    ``extract_basis`` for ||G||_F^2, the captured energy and ||G - QB||_F,
    which ``residual_norm`` also takes; and ``perturbation_bound`` for the
    difference of two pairs, so every explicit residual is taken here.
    """
    bands = row_bands(a)
    if not bands:
        return 0.0
    buf = np.empty(a[bands[0]].shape, np.result_type(a, dtype))
    parts = []
    for band in bands:
        d = buf[: a[band].shape[0]]
        if minus is None:
            np.copyto(d, a[band])
        else:
            minus(band, d)
            np.subtract(a[band], d, out=d)
        d = d.view(np.float64)  # complex as (re, im) pairs
        parts.append(np.square(d, out=d).sum(axis=0))
    return math.fsum(x for part in parts for x in np.atleast_1d(part))


def frobenius_norm(m) -> float:
    """Frobenius norm, sqrt of the compensated sum of squared magnitudes."""
    return math.sqrt(sum_sq(as_matrix(m)))


"""Dense matrix primitives used by every other module.

Matrices are plain numpy arrays, real (float64) or complex (complex128).
``as_matrix`` is the single validation gate: 2-D, nonempty, all entries
finite. Factorizations are LAPACK-backed (Householder QR, dense SVD) with
a fixed phase convention so that factors are deterministic and usable in
golden tests. A tall QR (``_is_tall``) takes LAPACK's level-3 ``?geqrt``,
?tpqrt and ?tpmqrt from scipy's compiled ``_flapack``, loaded by file
path (``_extension``) so that the scipy.linalg package never loads; every
other QR takes numpy's ``np.linalg.qr``. CHANGES.md's entries on tall QRs,
the fold, the extension loader and the one tall rule hold the timings.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DimensionError, ValidationError

REAL = "real"
COMPLEX = "complex"

_SEED_MASK = (1 << 64) - 1

_BAND_BYTES = 1 << 20  # the largest band of ``row_bands``

_NB = 32  # the block width of a tall QR's ?geqrt and ?tpqrt


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


def _is_tall(a: np.ndarray) -> bool:
    """Whether ``a`` has at least 4 rows per column. A QR of a tall ``a``
    takes LAPACK's level-3 ?geqrt (Elmroth & Gustavson 2000) rather than
    numpy's ?geqrf, whose panels under 128 columns are level 2, and only a
    tall side of a solve can go exact (``engine._front_end``)."""
    m, n = a.shape
    return m >= 4 * n


def _extension(name: str, attrs):
    """scipy's compiled module ``name`` (``scipy.linalg._flapack``), loaded
    by file path so that no scipy ``__init__`` runs, and entered in
    ``sys.modules`` for a later import to reuse; the module there if one is.
    None if the file is missing, fails to load or lacks one of ``attrs``:
    a library it links may be on a search path only scipy's ``__init__``
    sets, so the caller's public import is the one to load it or fail."""
    module = sys.modules.get(name)
    scipy = None if module else importlib.util.find_spec("scipy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES if scipy else ():
        path = os.path.join(scipy.submodule_search_locations[0], *name.split(".")[1:]) + suffix
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(name, path)
            try:
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
            except (ImportError, OSError):
                return None
            break
    if module is None or not all(hasattr(module, attr) for attr in attrs):
        return None
    return sys.modules.setdefault(name, module)


def _lapack(names: tuple[str, ...], a: np.ndarray):
    """The LAPACK wrappers ``names`` for ``a``'s float64 or complex128, from
    ``_extension``'s ``_flapack``: the objects ``get_lapack_funcs`` returns."""
    prefixed = [("z" if np.iscomplexobj(a) else "d") + name for name in names]
    flapack = _extension("scipy.linalg._flapack", prefixed)
    if flapack is None:
        from scipy.linalg.lapack import get_lapack_funcs

        return get_lapack_funcs(names, (a,))
    return [getattr(flapack, name) for name in prefixed]


def reduced_qr(m) -> QrFactors:
    """Reduced (economy) QR by Householder reflections: LAPACK ?geqrt
    (block width 32) with Q applied to the leading columns of I by
    ?gemqrt for a tall input (``_is_tall``), else numpy's ?geqrf.

    The phase convention makes the diagonal of R real and nonnegative,
    which fixes the factors uniquely for full-column-rank input. Rank
    deficiency is permitted; trailing diagonal entries of R may be ~0.
    """
    a = as_matrix(m)
    if _is_tall(a):
        geqrt, gemqrt = _lapack(("geqrt", "gemqrt"), a)
        n = a.shape[1]
        v, t, _ = geqrt(min(_NB, n), a)
        r = np.triu(v[:n])
        q = gemqrt(v, t, np.eye(*a.shape, dtype=a.dtype, order="F"), overwrite_c=True)[0]
    else:
        q, r = np.linalg.qr(a, mode="reduced")
    ph = _phase(r)
    # scale in place: no Q-sized product beside LAPACK's Q, which keeps
    # one Q out of the peak of a stacked QR
    q *= ph
    r *= np.conj(ph)[:, None]
    return QrFactors(q, r)


def _phase(r: np.ndarray) -> np.ndarray:
    """The unit scalars ph such that scaling R's rows by conj(ph), and Q's
    columns by ph, makes R's diagonal real and nonnegative."""
    d = np.diagonal(r)
    if np.iscomplexobj(r):
        absd = np.abs(d)
        return np.where(absd > 0, d / np.where(absd > 0, absd, 1.0), 1.0)
    return np.where(d < 0.0, -1.0, 1.0)


def r_factor(g: np.ndarray) -> np.ndarray:
    """The min(m, n) x n R of a Householder QR of g (m x n), Q never formed.

    A tall g (``_is_tall``) is factored by sequential TSQR (Demmel,
    Grigori, Hoemmen & Langou 2012), as stable as one QR: ?geqrt factors
    its first band of rows (``row_bands``, taken at least n rows deep),
    and ?tpqrt folds each later band into R. ?tpqrt reads R's triangle,
    so banding adds no flops, and each step holds R and one band beside g,
    where one QR would copy all of g. Any other g takes one R-only
    ``np.linalg.qr``."""
    m, n = g.shape
    if not _is_tall(g):
        return np.linalg.qr(g, mode="r")
    geqrt, tpqrt = _lapack(("geqrt", "tpqrt"), g)
    nb, step = min(_NB, n), _band_rows(g)
    top = max(step, n)
    # in Fortran order, so that each ?tpqrt overwrites R rather than a copy
    r = np.asfortranarray(np.triu(geqrt(nb, g[:top])[0][:n]))
    for i in range(top, m, step):
        r = tpqrt(0, nb, r, g[i:i + step], overwrite_a=True)[0]
    return r


def fold_qr(r: np.ndarray, b: np.ndarray, l: int):
    """The QR of [R; B], an n x n upper triangle R over k >= 1 rows B, by
    ``r_factor``'s step: one ?tpqrt (block width 32), no stack formed. B is
    any rows for l = 0, an n x n upper triangle, whose zeros ?tpqrt skips,
    for l = n. Returns the stack's R, phase-normalized as in ``reduced_qr``,
    and a function that forms Q's n columns (one ?tpmqrt on [I; 0]) as its
    blocks beside R and beside B, so R can be tested before Q is paid for.
    R, with a zero strict lower triangle, is overwritten in place when
    Fortran-ordered, as a tall ``r_factor``'s is; B is left unchanged."""
    tpqrt, tpmqrt = _lapack(("tpqrt", "tpmqrt"), r)
    n = r.shape[1]
    r, v, t, _ = tpqrt(l, min(_NB, n), r, b, overwrite_a=True)
    ph = _phase(r)
    r *= np.conj(ph)[:, None]

    def q_blocks() -> tuple[np.ndarray, np.ndarray]:
        qa, qb, _ = tpmqrt(l, v, t, np.eye(n, dtype=r.dtype, order="F"),
                           np.zeros(v.shape, r.dtype, order="F"),
                           overwrite_a=True, overwrite_b=True)
        qa *= ph
        qb *= ph
        return qa, qb

    return r, q_blocks


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
    step = _band_rows(a)
    return [slice(i, i + step) for i in range(0, a.shape[0], step)]


def _band_rows(a: np.ndarray) -> int:
    """The rows of one band of ``row_bands(a)``."""
    row_bytes = a.itemsize * math.prod(a.shape[1:])
    return max(1, _BAND_BYTES // max(row_bytes, 1))


def sum_sq(a: np.ndarray, minus=None, dtype=np.float64) -> float:
    """Compensated sum of squared entry magnitudes of ``a``, or of
    ``a - M`` when ``minus(band, out)`` writes the rows ``band`` of M, of
    dtype ``dtype``, into ``out``.

    Each band of rows (``row_bands``) is read in place when ``a`` is
    C-contiguous of the result dtype and ``minus`` is None, else copied,
    or M's rows written and subtracted, in one reused buffer of that
    dtype; one einsum takes its per-column sums of squares, and one
    math.fsum over all of them, joined, combines them exactly, so no
    temporary as large as ``a`` is formed and repeated accumulation of
    many small blocks does not drift.
    Its callers: ``frobenius_norm``; ``extract_basis`` for ||G||_F^2, the
    captured energy and ||G - QB||_F, which ``residual_norm`` also takes;
    and ``perturbation_bound`` for the difference of two pairs, so every
    explicit residual is taken here.
    """
    bands = row_bands(a)
    if not bands:
        return 0.0
    dt = np.result_type(a, dtype)
    in_place = minus is None and a.dtype == dt and a.flags.c_contiguous
    buf = None if in_place else np.empty(a[bands[0]].shape, dt)
    parts = []
    for band in bands:
        d = a[band] if in_place else buf[: a[band].shape[0]]
        if minus is not None:
            minus(band, d)
            np.subtract(a[band], d, out=d)
        elif not in_place:
            np.copyto(d, a[band])
        d = d.view(np.float64)  # complex as (re, im) pairs
        parts.append(np.einsum("ij,ij->j", d, d))
    # a memoryview yields Python floats one by one: no numpy scalar, no list
    return math.fsum(memoryview(np.concatenate(parts)))


def frobenius_norm(m) -> float:
    """Frobenius norm, sqrt of the compensated sum of squared magnitudes."""
    return math.sqrt(sum_sq(as_matrix(m)))


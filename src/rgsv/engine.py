"""Generalized singular values of a matrix pair via compressed bases.

``compute_gsv`` runs the two-phase pipeline: extract approximate bases for
both matrices, stack the compressed pair, take its reduced QR, and read
the GSVs off the singular values of the smaller of the two Q-factor
blocks. The compressed pair is the ``b`` rows (Q^H G) that extraction
already formed, so no compression product is recomputed, and the rank
test runs on the singular values of the stack's n x n R factor rather
than on the (m + p) x n stack; a projection cannot raise rank, so a
rank-deficient pair is still rejected. ``method="direct"`` runs the
identical stacking code with no compression and serves as the oracle
path; its R factor has the stack's singular values, so it also fills the
pair's cached stack norms. ``projected_pair`` returns the pair
(Q1 Q1^H G1, Q2 Q2^H G2) whose exact GSVs the randomized path computes,
with its stack norms taken from the compressed R factor, so the
perturbation budget needs no SVD of either (m + p) x n stack.
``triangular_pair`` returns the R factors (R1, R2) of G1 = Q1 R1 and
G2 = Q2 R2, which keep every quantity a certificate reads.
``recover_gsvd`` rebuilds the full factorization
G1 = U diag(alpha) R, G2 = V diag(beta) R on demand.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from . import core
from .errors import (
    DimensionError,
    RankDeficiencyError,
    RecoveryError,
    ValidationError,
)
from .rangefinder import ExtractionConfig, extract_basis

RANDOMIZED = "randomized"
DIRECT = "direct"


@dataclass(frozen=True)
class GmpPair:
    """A matrix pair {g1 (m x n), g2 (p x n)} whose vertical stack should
    have full column rank.

    Construction promotes both matrices to a common scalar field and
    checks the shapes, including m + p >= n. It does not factor the
    stack: the numerical rank test (sigma_min <= 1e-12 * sigma_max raises
    RankDeficiencyError) runs on the R factor of the stacked pair inside
    ``compute_gsv`` and ``recover_gsvd``. The stack's extreme singular
    values behind ``stack_norm2`` and ``stack_pinv_norm`` are those of
    that R factor: a direct solve, or ``projected_pair`` for the pair it
    returns, records them. Otherwise they come from an SVD of the stack
    the first time either norm is read, under the same rank test.
    """

    g1: np.ndarray
    g2: np.ndarray

    def __post_init__(self):
        a = core.as_matrix(self.g1, "g1")
        b = core.as_matrix(self.g2, "g2")
        if a.shape[1] != b.shape[1]:
            raise DimensionError(
                f"g1 has {a.shape[1]} columns but g2 has {b.shape[1]}"
            )
        dtype = np.result_type(a.dtype, b.dtype)
        a = a.astype(dtype, copy=False)
        b = b.astype(dtype, copy=False)
        n = a.shape[1]
        if a.shape[0] + b.shape[0] < n:
            raise RankDeficiencyError(
                f"stacked pair has {a.shape[0] + b.shape[0]} rows < {n} columns"
            )
        object.__setattr__(self, "g1", a)
        object.__setattr__(self, "g2", b)

    @property
    def m(self) -> int:
        return self.g1.shape[0]

    @property
    def p(self) -> int:
        return self.g2.shape[0]

    @property
    def n(self) -> int:
        return self.g1.shape[1]

    def stacked(self) -> np.ndarray:
        return np.vstack([self.g1, self.g2])

    @functools.cached_property
    def _stack_extremes(self) -> tuple[float, float]:
        s = np.linalg.svd(self.stacked(), compute_uv=False)
        _require_full_rank(s, "stacked pair")
        return float(s[0]), float(s[-1])

    def _record_stack_extremes(self, s: np.ndarray) -> None:
        """Fill the stack-norm cache, unless it is already set, from the
        descending singular values ``s`` of a matrix with the same singular
        values as the stack, which already passed the rank test."""
        self.__dict__.setdefault("_stack_extremes", (float(s[0]), float(s[-1])))

    @property
    def stack_norm2(self) -> float:
        """Largest singular value of the stacked pair (recorded by a solve,
        else computed once on first use; raises RankDeficiencyError for a
        rank-deficient stack)."""
        return self._stack_extremes[0]

    @property
    def stack_pinv_norm(self) -> float:
        """Spectral norm of the stacked pair's pseudoinverse (recorded by a
        solve, else computed once on first use; raises RankDeficiencyError
        for a rank-deficient stack)."""
        return 1.0 / self._stack_extremes[1]


def _require_full_rank(s: np.ndarray, what: str) -> None:
    """Raise RankDeficiencyError unless the smallest of the descending
    singular values ``s`` exceeds 1e-12 times the largest."""
    smax, smin = float(s[0]), float(s[-1])
    if smin <= 1e-12 * smax:
        raise RankDeficiencyError(
            f"{what} is numerically rank deficient "
            f"(sigma_min/sigma_max = {smin / smax if smax else 0.0:.3e})"
        )


@dataclass(frozen=True)
class GsvSpectrum:
    """Paired GSV sequences with their block structure.

    alphas is nonincreasing, betas nondecreasing, alpha_i^2 + beta_i^2 = 1.
    The first r betas are exactly 0 (alphas exactly 1), the trailing
    n - r - s alphas are exactly 0 (betas exactly 1), and the s interior
    pairs in between are strictly inside (0, 1).
    """

    alphas: np.ndarray
    betas: np.ndarray
    r: int
    s: int

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=np.float64)
        b = np.asarray(self.betas, dtype=np.float64)
        if a.ndim != 1 or b.ndim != 1 or a.size != b.size or a.size == 0:
            raise DimensionError("alphas and betas must be 1-D of equal, nonzero length")
        n = a.size
        if self.r < 0 or self.s < 0 or self.r + self.s > n:
            raise ValidationError(f"invalid counts r={self.r}, s={self.s} for n={n}")
        if np.any(a < 0) or np.any(a > 1) or np.any(b < 0) or np.any(b > 1):
            raise ValidationError("GSVs must lie in [0, 1]")
        if np.any(np.diff(a) > 1e-12) or np.any(np.diff(b) < -1e-12):
            raise ValidationError("alphas must be nonincreasing and betas nondecreasing")
        if float(np.max(np.abs(a**2 + b**2 - 1.0))) > 1e-12:
            raise ValidationError("alpha_i^2 + beta_i^2 = 1 violated beyond 1e-12")
        if np.any(b[: self.r] != 0.0) or np.any(a[self.r + self.s:] != 0.0):
            raise ValidationError("classified-zero entries must be exactly 0")
        object.__setattr__(self, "alphas", a)
        object.__setattr__(self, "betas", b)

    @property
    def n(self) -> int:
        return self.alphas.size


@dataclass(frozen=True)
class GsvOptions:
    """Method selection and thresholds for the GSV pipeline.

    classify_tol is the threshold below which an alpha or beta is declared
    an exact zero (and its partner an exact one).
    """

    extraction: ExtractionConfig = ExtractionConfig()
    classify_tol: float = 1e-10
    method: str = RANDOMIZED

    def __post_init__(self):
        if not 0 < self.classify_tol < 1e-2:
            raise ValidationError(
                f"classify_tol must be in (0, 1e-2), got {self.classify_tol}"
            )
        if self.method not in (RANDOMIZED, DIRECT):
            raise ValidationError(f"method must be 'randomized' or 'direct', got {self.method!r}")


@dataclass(frozen=True)
class GsvdFactors:
    """Full decomposition G1 = U diag(alpha) R, G2 = V diag(beta) R with
    column-orthonormal U (m x n), V (p x n) and nonsingular R (n x n)."""

    u: np.ndarray
    v: np.ndarray
    r_factor: np.ndarray
    spectrum: GsvSpectrum


def classify_spectrum(alphas, betas, classify_tol: float = 1e-10) -> GsvSpectrum:
    """Classify an ordered GSV sequence into its (r, s) blocks.

    r counts betas below classify_tol, n - r - s counts alphas below it,
    and s is the interior remainder. The returned spectrum holds copies of
    the inputs with classified-zero entries snapped to exactly 0 and their
    partners to exactly 1; the inputs are left unchanged.
    """
    if not 0 < classify_tol < 1e-2:
        raise ValidationError(f"classify_tol must be in (0, 1e-2), got {classify_tol}")
    a = np.array(alphas, dtype=np.float64)
    b = np.array(betas, dtype=np.float64)
    n = a.size
    r = int(np.count_nonzero(b < classify_tol))
    za = int(np.count_nonzero(a < classify_tol))
    s = n - r - za
    if s < 0:
        raise ValidationError("overlapping zero classifications; sequences not ordered?")
    b[:r] = 0.0
    a[:r] = 1.0
    if za:
        a[n - za:] = 0.0
        b[n - za:] = 1.0
    return GsvSpectrum(a, b, r, s)


def spectrum_from_l_blocks(
    l1_block: np.ndarray,
    l2_block: np.ndarray,
    n: int,
    classify_tol: float = 1e-10,
) -> GsvSpectrum:
    """Read GSVs off the stacked-QR orthonormal blocks.

    Singular values of the first block give the alphas (descending,
    zero-padded at the tail), those of the second block the betas
    (ascending, zero-padded at the head); values are clamped into [0, 1]
    against roundoff overshoot. Each pair keeps its smaller member, whose
    absolute error is at working precision, and completes the larger one
    through sqrt(1 - x^2); completing the small member instead would turn
    eps-level error in a value near 1 into sqrt(eps) noise.
    """
    a_raw = np.zeros(n)
    vals1 = _singular_values(l1_block)
    a_raw[: vals1.size] = np.clip(vals1, 0.0, 1.0)
    b_raw = np.zeros(n)
    vals2 = _singular_values(l2_block)
    if vals2.size:
        b_raw[n - vals2.size:] = np.clip(vals2, 0.0, 1.0)[::-1]
    small_a = a_raw <= b_raw
    alphas = np.where(small_a, a_raw, np.sqrt(1.0 - b_raw**2))
    betas = np.where(small_a, np.sqrt(1.0 - a_raw**2), b_raw)
    return classify_spectrum(alphas, betas, classify_tol)


def _singular_values(block: np.ndarray) -> np.ndarray:
    if block.shape[0] == 0:
        return np.zeros(0)
    return core.svd(block, compute_uv=False).s


@dataclass(frozen=True)
class _Pipeline:
    q1: np.ndarray | None  # None means the identity (no compression)
    q2: np.ndarray | None
    c1: np.ndarray  # compressed blocks Q^H G, the pair itself on the direct path
    c2: np.ndarray
    l1_block: np.ndarray
    l2_block: np.ndarray
    r_tilde: np.ndarray
    r_singular_values: np.ndarray  # of r_tilde, descending


def _side_config(cfg: ExtractionConfig, g: np.ndarray, seed: int) -> ExtractionConfig:
    """The extraction settings of one side: its own seed, and max_cols
    clamped to that side's min(rows, cols)."""
    cap = cfg.max_cols
    if cap is not None:
        cap = min(cap, *g.shape)
    return dataclasses.replace(cfg, seed=seed, max_cols=cap)


def _run_pipeline(pair: GmpPair, opts: GsvOptions) -> _Pipeline:
    if opts.method == DIRECT:
        c1, c2 = pair.g1, pair.g2
        q1 = q2 = None
    else:
        cfg = opts.extraction
        b1 = extract_basis(pair.g1, _side_config(cfg, pair.g1, cfg.seed))
        b2 = extract_basis(pair.g2, _side_config(cfg, pair.g2, cfg.seed + 1))
        q1, q2 = b1.q, b2.q
        c1, c2 = b1.b, b2.b
    l1, l2, n = c1.shape[0], c2.shape[0], pair.n
    if l1 + l2 < n:
        raise RankDeficiencyError(
            f"compressed pair has {l1} + {l2} rows < {n} columns; "
            "tighten the extraction tolerance or raise max_cols"
        )
    qf = core.reduced_qr(np.vstack([c1, c2]))
    sv = np.linalg.svd(qf.r, compute_uv=False)
    _require_full_rank(sv, "stacked pair" if q1 is None else "compressed stacked pair")
    if q1 is None:
        pair._record_stack_extremes(sv)
    return _Pipeline(q1, q2, c1, c2, qf.q[:l1], qf.q[l1:], qf.r, sv)


def compute_gsv(pair: GmpPair, opts: GsvOptions | None = None) -> GsvSpectrum:
    """Compute the GSV spectrum of a pair.

    method="randomized" compresses both matrices through extracted bases
    (block seeds derived from extraction.seed and extraction.seed + 1);
    method="direct" runs the identical stacked-QR + SVD path with no
    compression and is the reference the randomized path is tested
    against. A max_cols cap is clamped to each side's min(rows, cols).
    Raises RankDeficiencyError when the stacked pair, or on the
    randomized path the compressed pair (fewer than n rows, or
    sigma_min(R) <= 1e-12 * sigma_max(R)), is numerically rank deficient.
    """
    opts = opts or GsvOptions()
    pl = _run_pipeline(pair, opts)
    return spectrum_from_l_blocks(pl.l1_block, pl.l2_block, pair.n, opts.classify_tol)


def projected_pair(pair: GmpPair, opts: GsvOptions | None = None) -> GmpPair:
    """The pair (Q1 B1, Q2 B2), B = Q^H G, whose exact GSVs ``compute_gsv``
    returns for ``opts``: each matrix projected onto its extracted basis.

    Its stack diag(Q1, Q2) [B1; B2] has the singular values of the
    compressed stack's R factor, which the solve already computed and
    rank-tested, so its ``stack_norm2`` and ``stack_pinv_norm`` cost no
    further factorization. With method="direct" nothing is compressed and
    the result holds the pair's own matrices. Raises what ``compute_gsv``
    raises.
    """
    opts = opts or GsvOptions()
    pl = _run_pipeline(pair, opts)
    g1 = pl.c1 if pl.q1 is None else pl.q1 @ pl.c1
    g2 = pl.c2 if pl.q2 is None else pl.q2 @ pl.c2
    proj = GmpPair(g1, g2)
    proj._record_stack_extremes(pl.r_singular_values)
    return proj


def triangular_pair(pair: GmpPair) -> GmpPair:
    """The pair (R1, R2) of R-only Householder QRs G1 = Q1 R1, G2 = Q2 R2
    (LAPACK geqrf, Q is never formed), each Ri min(rows, n) x n.

    It keeps what a certificate reads. The stack diag(Q1, Q2) [R1; R2]
    has the same singular values (stack norms, eta, the rank test) and
    GSVs. ||Ri||_F = ||Gi||_F (default tol, trim cut). Ri Omega =
    Qi^H (Gi Omega), so a randomized solve with the same seeds makes the
    same decisions in exact arithmetic, returns bases rotated by Qi^H and
    has ||Ri - Q~i B~i||_F = ||Gi - Qi Q~i B~i||_F. min(rows, n), and so
    every ``max_cols`` clamp and ``projector_bound`` limit, is unchanged.
    """
    return GmpPair(np.linalg.qr(pair.g1, mode="r"), np.linalg.qr(pair.g2, mode="r"))


def _orthonormal_completion(cols: np.ndarray, count: int) -> np.ndarray:
    """Orthonormal columns orthogonal to the given orthonormal block."""
    dim = cols.shape[0]
    have = cols.shape[1]
    if count == 0:
        return np.zeros((dim, 0), dtype=cols.dtype)
    if have + count > dim:
        raise RecoveryError(
            f"cannot complete {have} columns with {count} more in dimension {dim}"
        )
    if have == 0:
        return np.eye(dim, count, dtype=cols.dtype)
    full, _ = np.linalg.qr(cols, mode="complete")
    return full[:, have: have + count].astype(cols.dtype, copy=False)


def recover_gsvd(pair: GmpPair, opts: GsvOptions | None = None) -> GsvdFactors:
    """Recover the full decomposition from the compressed pipeline.

    Columns of U (resp. V) that multiply a classified-zero diagonal entry
    are undetermined by the data and are filled with an orthonormal
    completion orthogonal to the recovered columns. Requires m >= n and
    p >= n so that column-orthonormal factors exist.
    """
    opts = opts or GsvOptions()
    m, p, n = pair.m, pair.p, pair.n
    if m < n or p < n:
        raise RecoveryError(
            f"full recovery needs m >= n and p >= n, got ({m}, {p}, {n})"
        )
    pl = _run_pipeline(pair, opts)
    l1, l2 = pl.l1_block.shape[0], pl.l2_block.shape[0]
    spectrum = spectrum_from_l_blocks(
        pl.l1_block, pl.l2_block, n, opts.classify_tol
    )
    alphas, betas, r, s = spectrum.alphas, spectrum.betas, spectrum.r, spectrum.s
    tol = opts.classify_tol

    if l1 <= l2:
        u1, _, w1h = np.linalg.svd(pl.l1_block, full_matrices=True)

        ncols = min(l1, n)
        u_main = u1[:, :ncols] if pl.q1 is None else pl.q1 @ u1[:, :ncols]
        u = np.empty((m, n), dtype=u_main.dtype)
        u[:, :ncols] = u_main
        u[:, ncols:] = _orthonormal_completion(u_main, n - ncols)

        t = pl.l2_block @ w1h.conj().T
        v_raw = t if pl.q2 is None else pl.q2 @ t
        if np.any(betas[r:] < tol):
            raise RecoveryError("interior GSV below classify_tol; recovery ill conditioned")
        v = np.empty((p, n), dtype=v_raw.dtype)
        v[:, r:] = v_raw[:, r:] / betas[r:]
        v[:, :r] = _orthonormal_completion(v[:, r:], r)

        r_factor = w1h @ pl.r_tilde
    else:
        u2, _, w2h = np.linalg.svd(pl.l2_block, full_matrices=True)
        nvals = min(l2, n)

        w2 = w2h[::-1, :]
        # singular-value columns of u2, reversed to pair with ascending betas
        v_block = u2[:, :nvals][:, ::-1]
        v_main = v_block if pl.q2 is None else pl.q2 @ v_block
        v = np.empty((p, n), dtype=v_main.dtype)
        v[:, n - nvals:] = v_main
        v[:, : n - nvals] = _orthonormal_completion(v_main, n - nvals)

        t = pl.l1_block @ w2.conj().T
        u_raw = t if pl.q1 is None else pl.q1 @ t
        nz = r + s
        if np.any(alphas[:nz] < tol):
            raise RecoveryError("interior GSV below classify_tol; recovery ill conditioned")
        u = np.empty((m, n), dtype=u_raw.dtype)
        u[:, :nz] = u_raw[:, :nz] / alphas[:nz]
        u[:, nz:] = _orthonormal_completion(u[:, :nz], n - nz)

        r_factor = w2 @ pl.r_tilde

    return GsvdFactors(u, v, r_factor, spectrum)

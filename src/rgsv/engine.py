"""Generalized singular values of a matrix pair via compressed bases.

``run`` is the one solve: give each matrix a front end, stack the two
compressed matrices, take the stack's reduced QR, and read the GSVs off its
two Q-factor blocks: through the SVD of the shorter block and its right
vectors when that block has at most n/2 rows, else by a values-only SVD of
each. A side's front end is its randomized basis, whose compressed rows are
the ``b`` rows (Q^H G) that extraction already formed, or, for a tall side
that a sketch would not compress below a third of its columns, the R of an
R-only QR (an exact side, with residual 0); ``run`` states the rule and its
cost model. Each side sketches from its own random stream, spawned from the
base seed. The rank test runs on the stack's n x n R factor, by a shifted
Cholesky that takes R's SVD only if it fails; a projection cannot raise
rank, so a rank-deficient pair is still rejected. ``method="direct"`` runs
the identical stacking code with no compression and serves as the oracle
path. A run returns its spectrum with what its a-posteriori certificate
``bounds.perturbation_bound(pair, run(pair, opts))`` reads (Halko,
Martinsson & Tropp 2011, 4.3): each sketched side's explicit residual
||G - QB||_F, which extraction reports as its last history entry, and the
compressed stack's R factor (its singular values, those of [Q1 B1; Q2 B2],
are taken on first read). ``compute_gsv`` is the run's spectrum.
``recover_gsvd`` rebuilds the full factorization
G1 = U diag(alpha) R, G2 = V diag(beta) R on demand from the same solve,
which then keeps each side's Q, by one recovery, run on the mirrored pair
(G2, G1) when L1 is the taller block; no square Q is formed to complete
the columns the data leave undetermined.
"""

from __future__ import annotations

import dataclasses
import functools
import warnings
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
    ``run`` and ``recover_gsvd``. No solve reads or fills
    ``stack_norm2`` and ``stack_pinv_norm``: both come from one SVD of the
    (m + p) x n stack the first time either is read, under the same rank
    test.
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
        s = core.svd(self.stacked(), compute_uv=False).s
        _require_full_rank(s, "stacked pair")
        return float(s[0]), float(s[-1])

    @property
    def stack_norm2(self) -> float:
        """Largest singular value of the stacked pair (computed once on
        first use; raises RankDeficiencyError for a rank-deficient stack)."""
        return self._stack_extremes[0]

    @property
    def stack_pinv_norm(self) -> float:
        """Spectral norm of the stacked pair's pseudoinverse (computed once
        on first use; raises RankDeficiencyError for a rank-deficient
        stack)."""
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


def _rank_test(r: np.ndarray, what: str) -> None:
    """``_require_full_rank`` of the stack's n x n R, whose SVD is taken only
    if a Cholesky of R^H R - delta I fails, delta = 10 n eps tr(R^H R) =
    20 n u ||R||_F^2 (u = eps/2), shifted in place. To first order (Higham
    2002, 3.5, 3.6, 10.1), forming R^H R errs by (n + 2) u ||R||_F^2, the
    shift by u ||R||_F^2, and a completed Cholesky is exact for a matrix
    within (n + 2) u ||R||_F^2 (2-norms), so success proves sigma_min(R)^2 >=
    (18 n - 5) u ||R||_F^2: sigma_min/sigma_max >= sqrt(13 n u) >> 1e-12."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the Cholesky
        n, gram = r.shape[0], r.conj().T @ r
        gram.flat[:: n + 1] -= 10 * n * np.finfo(np.float64).eps * float(np.trace(gram).real)
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        _require_full_rank(core.svd(r, compute_uv=False).s, what)


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
        # positive tests, so that a NaN fails each of them
        if not (np.all((a >= 0) & (a <= 1)) and np.all((b >= 0) & (b <= 1))):
            raise ValidationError("GSVs must lie in [0, 1]")
        if not (np.all(np.diff(a) <= 1e-12) and np.all(np.diff(b) >= -1e-12)):
            raise ValidationError("alphas must be nonincreasing and betas nondecreasing")
        if not float(np.max(np.abs(a**2 + b**2 - 1.0))) <= 1e-12:
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


@dataclass(frozen=True)
class GsvRun:
    """One solve (see ``run``): its spectrum, which ``compute_gsv``
    returns; the explicit residuals ||Gi - Qi Bi||_F, B = Q^H G, of its
    sides, the last entries of their extraction histories, 0 for an exact
    side and for method="direct"; and its compressed stack's n x n R
    factor R~, whose singular values are those of [Q1 B1; Q2 B2]."""

    spectrum: GsvSpectrum
    residuals: tuple[float, float]
    stack_r: np.ndarray

    @functools.cached_property
    def r_singular_values(self) -> np.ndarray:
        return core.svd(self.stack_r, compute_uv=False).s


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
    against roundoff overshoot. When the shorter block has k <= n/2 rows
    it takes an SVD with its right vectors W1 (``_cs_step``), and the
    longer block's values are those of its product with W1, which has k
    columns, plus n - k exact ones; the longer block itself takes no SVD.
    Otherwise each block takes a values-only SVD, which then costs less
    (1 BLAS thread: real 58- and 400-row blocks of n = 400 took 5.0 ms by
    W1 against 17.8 ms by two SVDs, complex 240- and 240-row ones 68
    against 46 ms, with the two routes level near k = n/2). Each pair
    keeps its smaller member, whose absolute error is at working
    precision, and completes the larger one through sqrt(1 - x^2);
    completing the small member instead would turn eps-level error in a
    value near 1 into sqrt(eps) noise.
    """
    l1, l2 = l1_block.shape[0], l2_block.shape[0]
    if 2 * min(l1, l2) > n:
        vals1, vals2 = _singular_values(l1_block), _singular_values(l2_block)
    elif l1 <= l2:
        vals1, vals2 = _short_block_values(l1_block, l2_block, n)
    else:
        vals2, vals1 = _short_block_values(l2_block, l1_block, n)
    a_raw = np.zeros(n)
    a_raw[: vals1.size] = np.clip(vals1, 0.0, 1.0)
    b_raw = np.zeros(n)
    if vals2.size:
        b_raw[n - vals2.size:] = np.clip(vals2, 0.0, 1.0)[::-1]
    small_a = a_raw <= b_raw
    alphas = np.where(small_a, a_raw, np.sqrt(1.0 - b_raw**2))
    betas = np.where(small_a, np.sqrt(1.0 - a_raw**2), b_raw)
    return classify_spectrum(alphas, betas, classify_tol)


def _singular_values(block: np.ndarray) -> np.ndarray:
    if 0 in block.shape:
        return np.zeros(0)
    return core.svd(block, compute_uv=False).s


def _short_block_values(la: np.ndarray, lb: np.ndarray, n: int):
    """The descending singular values of the block la, with k < n rows and
    no taller than lb, and the n of lb: those of Lb W1 (``_cs_step``),
    after n - k exact ones for the directions la maps to 0."""
    _, a, _, t = _cs_step(la, lb)
    return a, np.concatenate([np.ones(n - a.size), _singular_values(t)])


def _cs_step(la: np.ndarray, lb: np.ndarray):
    """(Ua, a, W1, T) for the blocks la (no taller than lb) of a stack
    [La; Lb] with orthonormal columns: the reduced SVD La = Ua diag(a) W1^H
    and T = Lb W1, the first step of its CS decomposition (Paige & Saunders
    1981). Since La^H La + Lb^H Lb = I, T has orthogonal columns of norms
    sqrt(1 - a_i^2), and Lb maps each direction W1 misses to a unit
    vector."""
    if la.shape[0]:
        ua, a, w1 = core.svd(la)
    else:  # no rows: W1 has no columns
        ua, a, w1 = la[:, :0], np.zeros(0), np.zeros((la.shape[1], 0), la.dtype)
    return ua, a, w1, lb @ w1


def _side_seed(seed: int, side: int) -> int:
    """The sketch seed of side 0 (g1) or 1 (g2): the first word of that
    side's child of SeedSequence(seed mod 2^64)."""
    child = np.random.SeedSequence(int(seed) % 2**64).spawn(2)[side]
    return int(child.generate_state(1, np.uint64)[0])


def _side_config(cfg: ExtractionConfig, g: np.ndarray, side: int) -> ExtractionConfig:
    """The extraction settings of side 0 (g1) or 1 (g2): its own seed, and
    max_cols clamped to that side's min(rows, cols)."""
    cap = cfg.max_cols
    if cap is not None:
        cap = min(cap, *g.shape)
    return dataclasses.replace(cfg, seed=_side_seed(cfg.seed, side), max_cols=cap)


# A side with at least this many rows per column is tall: only there does
# an R-only QR replace the sketch (see run).
_TALL_ASPECT = 4


def _crossover(n: int) -> int:
    """Kept width ceil(n/3) from which a tall side is cheaper to QR than
    to sketch (see run)."""
    return -(-n // 3)


def _front_end(g: np.ndarray, cfg: ExtractionConfig, shortcut: bool, keep_q: bool):
    """(Q, C, residual, capped) of one side of a randomized solve (see
    ``run``): a sketch's rows C = Q^H G, its Q if ``keep_q``, its explicit
    ||G - QC||_F (its last history entry) and, if max_cols stopped it
    unconverged above the trim floor, a note saying so; or an exact side's
    R, or with ``keep_q`` its reduced QR, 0 and None. With ``shortcut`` an
    eligible side goes exact without a sketch."""
    n = g.shape[1]
    if g.shape[0] < _TALL_ASPECT * n or cfg.max_cols not in (None, n):
        basis = extract_basis(g, cfg)
    elif shortcut:
        basis = None
    else:
        basis = extract_basis(g, dataclasses.replace(cfg, max_cols=_crossover(n)), probe=True)
        if not basis.converged:
            basis = None  # the discarded probe is not alive beside the QR
    if basis is None:
        if keep_q:
            return *core.reduced_qr(g), 0.0, None
        return None, core.r_factor(g), 0.0, None
    normf, res = basis.residual_history[0], basis.residual_history[-1]
    note = None
    if basis.b.shape[0] == cfg.max_cols and not basis.converged and res >= cfg.trim_tol * normf:
        note = (f"kept max_cols = {cfg.max_cols} columns at residual {res:.3e} "
                f"> tol {cfg.tol_for(normf):.3e}")
    return basis.q if keep_q else None, basis.b, res, note


def _run_pipeline(pair: GmpPair, opts: GsvOptions, keep_q: bool):
    """(run, Q1, Q2, the stack's QR factors, l1) of one solve (see ``run``);
    the Qs, which ``recover_gsvd`` lifts by, are kept only with ``keep_q``."""
    n = pair.n
    if opts.method == DIRECT:
        c1, c2, q1, q2, res1, res2 = pair.g1, pair.g2, None, None, 0.0, 0.0
    else:
        cfg = opts.extraction
        q1, c1, res1, cap1 = _front_end(pair.g1, _side_config(cfg, pair.g1, 0), False, keep_q)
        # a solve needs l1 + l2 >= n, so a sketch of g2 would keep >= n - l1 columns
        q2, c2, res2, cap2 = _front_end(pair.g2, _side_config(cfg, pair.g2, 1),
                                        n - c1.shape[0] >= _crossover(n), keep_q)
        capped = [f"g{i} {note}" for i, note in ((1, cap1), (2, cap2)) if note]
        if capped:
            warnings.warn("extraction stopped unconverged: " + "; ".join(capped))
    l1, l2 = c1.shape[0], c2.shape[0]
    if l1 + l2 < n:
        raise RankDeficiencyError(
            f"compressed pair has {l1} + {l2} rows < {n} columns; "
            "tighten the extraction tolerance or raise max_cols"
        )
    stack = np.vstack([c1, c2])
    c1 = c2 = None  # the blocks are not alive beside the stack's QR
    qf = core.reduced_qr(stack)
    del stack  # nor is the stack beside the rank test
    _rank_test(qf.r, "stacked pair" if opts.method == DIRECT else "compressed stacked pair")
    spec = spectrum_from_l_blocks(qf.q[:l1], qf.q[l1:], n, opts.classify_tol)
    return GsvRun(spec, (res1, res2), qf.r), q1, q2, qf, l1


def compute_gsv(pair: GmpPair, opts: GsvOptions | None = None) -> GsvSpectrum:
    """The GSV spectrum of a pair: that of ``run(pair, opts)``, whose
    docstring states the front ends, the cost model and what it raises."""
    return run(pair, opts).spectrum


def run(pair: GmpPair, opts: GsvOptions | None = None) -> GsvRun:
    """Solve for the GSV spectrum of a pair, with what its a-posteriori
    certificate reads (see ``GsvRun``).

    method="randomized" compresses each matrix through its own front end;
    method="direct" runs the identical stacked-QR + SVD path with no
    compression and is the reference the randomized path is tested
    against. A max_cols cap is clamped to each side's min(rows, cols).
    Each side sketches from its own stream, seeded by the first word of
    child 0 (g1) or 1 (g2) of SeedSequence(extraction.seed mod 2^64).spawn(2),
    so the streams of the two sides, and of nearby base seeds, are
    independent. A sketch that max_cols stops unconverged, above the trim
    floor, is named in one warning per solve, with its kept width, residual
    and tol.

    Front ends. Sides run in order, g1 then g2, and cross = ceil(n/3).
    A side is eligible when it is tall (rows >= 4 n) and no cap binds (its
    clamped max_cols is None or n). An ineligible side is sketched to
    extraction's own stopping rule. An eligible side is probed: extraction
    with max_cols = cross and probe=True runs the usual block schedule
    (a first block of min(32, blocksize) columns, then blocks sized from
    the residual) but stops as soon as the kept columns plus the columns
    the residual still predicts exceed cross. A probe that converges is
    the side's sketch; any other is dropped and the side goes exact: its
    compressed block is the n x n R of an R-only Householder QR
    (``core.r_factor``), Q is never formed and the residual is 0. A
    full-rank side therefore pays one first block before its QR. Since a
    solve needs l1 + l2 >= n rows, an eligible g2 with n - l1 >= cross
    would keep at least cross columns, so it goes exact without a probe.

    Cost model: a sketch keeping k columns of an m x n side costs about
    4 m n k flops (G Omega, P^H G and two reorthogonalization passes),
    plus 2 m n k for its explicit residual; an R-only QR costs
    2 m n^2 - 2/3 n^3. Measured per side on a rank-k
    3000 x 1200 side at the default tol (2-core Xeon, OpenBLAS, 1 thread,
    medians of 3 x 15 runs), the sketch won at k = 200 (222 vs 276 ms),
    was level or lost at k = 300 (335 vs 287 ms) and lost at k = 400 =
    n/3 (426 vs 300 ms) and k = 600 (721 vs 297 ms), and a full-rank
    side took 1.0-1.3 s to sketch against 0.27-0.32 s to factor. The
    switch sits at n/3, above the crossover near n/4 these runs show. A
    side sent exact adds the cost of its one probe block, about
    2 m n min(32, blocksize) flops for G Omega: on the real 1000/800/200
    pair of the CLI benchmark both sides go exact after a 32-column block
    each, and a solve took 27 ms against 37 ms when each probe filled
    its 67-column cap (same machine, medians of 11). A side that is not
    tall is always sketched. That is a rule, not a measured optimum: on
    the complex 801/400/400 pair of acceptance criterion 1 a solve with
    both sides exact measured 272 ms against 316 ms sketched.

    Certificate. The run's exact GSVs are those of the projected pair
    (Q1 B1, Q2 B2), an exact side being its own matrix, so
    ``bounds.perturbation_bound(pair, run)`` bounds the deviation of
    ``run.spectrum`` from the pair's own GSVs.

    Memory. No sketched basis Q, discarded sketch, compressed block or stack
    is held past its last reader, so a solve peaks at the pair, the rows
    compressed so far and one step's working copy: for an exact side, the
    copy its R-only QR factors ((m + 3n)/2 rows from m >= 8 n on,
    ``core.r_factor``); for a sketch, its basis and rows, whose every
    explicit residual (``core.sum_sq``) adds one band of rows and keeps no
    copy of G.

    Raises RankDeficiencyError when the stacked pair, or on the
    randomized path the compressed pair (fewer than n rows, or
    sigma_min(R) <= 1e-12 * sigma_max(R)), is numerically rank deficient.
    """
    return _run_pipeline(pair, opts or GsvOptions(), False)[0]


def _orthonormal_completion(cols: np.ndarray, count: int) -> np.ndarray:
    """``count`` orthonormal columns orthogonal to the orthonormal block
    ``cols`` (dim x have, have + count <= dim): the trailing columns of the
    reduced Householder Q of [cols, I[:, :count]], orthonormal by
    construction, whose leading columns span ``cols`` even when columns of
    I lie in that span; O(dim (have + count)^2) work, no dim x dim matrix."""
    dim, have = cols.shape
    if count == 0:
        return np.zeros((dim, 0), dtype=cols.dtype)
    q, _ = np.linalg.qr(np.hstack([cols, np.eye(dim, count, dtype=cols.dtype)]))
    return q[:, have:]


def _recover_shorter_first(la, lb, qa, qb, partner, zeros, tol):
    """(U, V, W^H) of the CS decomposition La = U diag(a) W^H,
    Lb = V diag(b) W^H (Paige & Saunders 1981), la no taller than lb,
    lifted through the bases Qa, Qb (None: identity). ``partner`` is b, its
    first ``zeros`` entries exactly 0. U is La's left singular vectors, V is
    Qb Lb W / b where b > 0, and a completion fills the rest of each."""
    n = la.shape[1]
    ua, _, w, t = _cs_step(la, lb)
    k = w.shape[1]
    if k < n:  # W must be n x n: complete it by the directions la maps to 0
        rest = _orthonormal_completion(w, n - k)
        w, t = np.hstack([w, rest]), np.hstack([t, lb @ rest])
    u_main = ua if qa is None else qa @ ua
    u = np.hstack([u_main, _orthonormal_completion(u_main, n - k)])
    if np.any(partner[zeros:] < tol):
        raise RecoveryError("interior GSV below classify_tol; recovery ill conditioned")
    t = t[:, zeros:]
    v_main = (t if qb is None else qb @ t) / partner[zeros:]
    v = np.hstack([_orthonormal_completion(v_main, zeros), v_main])
    return u, v, w.conj().T


def recover_gsvd(pair: GmpPair, opts: GsvOptions | None = None) -> GsvdFactors:
    """Recover the full decomposition from the compressed pipeline.

    The solve is ``run``'s, except that an exact side takes a reduced QR
    G = Q R, since its Q lifts the recovered factors.
    When l1 <= l2 the recovery runs on (L1, L2) with the betas as
    partners; otherwise on the mirrored pair (G2, G1), with the reversed
    alphas as partners, and the columns of U and V and the rows of W^H are
    reversed back. R = W^H R~ either way. Columns of U (resp. V) that
    multiply a classified-zero entry are undetermined by the data and are
    filled with an orthonormal completion orthogonal to the recovered
    ones. Requires m >= n and p >= n so that column-orthonormal factors
    exist.
    """
    opts = opts or GsvOptions()
    m, p, n = pair.m, pair.p, pair.n
    if m < n or p < n:
        raise RecoveryError(
            f"full recovery needs m >= n and p >= n, got ({m}, {p}, {n})"
        )
    solve, q1, q2, qf, l1 = _run_pipeline(pair, opts, True)
    spec, tol = solve.spectrum, opts.classify_tol
    l1_block, l2_block = qf.q[:l1], qf.q[l1:]
    if l1 <= l2_block.shape[0]:
        u, v, wh = _recover_shorter_first(l1_block, l2_block, q1, q2, spec.betas, spec.r, tol)
    else:
        v, u, wh = _recover_shorter_first(
            l2_block, l1_block, q2, q1, spec.alphas[::-1], n - spec.r - spec.s, tol)
        u, v, wh = u[:, ::-1], v[:, ::-1], wh[::-1]
    return GsvdFactors(u, v, wh @ qf.r, spec)

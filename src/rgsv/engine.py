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
base seed. A solve with an exact side takes the other side's rows into
its R instead (``core.fold_qr``), and no stack is formed. The rank
test runs on the stack's n x n R factor, before Q is formed, by a shifted
Cholesky that takes R's SVD only if it fails; a projection cannot raise
rank, so a rank-deficient pair is still rejected. ``method="direct"`` runs
the identical stacking code with no compression and serves as the oracle
path. A run returns its spectrum with what its a-posteriori certificate
``bounds.perturbation_bound(pair, run(pair, opts))`` reads (Halko,
Martinsson & Tropp 2011, 4.3): each sketched side's explicit residual
||G - QB||_F, which extraction reports as its last history entry, and the
compressed stack's R factor (its singular values, those of [Q1 B1; Q2 B2],
are taken on first read). ``compute_gsv`` is the run's spectrum. No solve
keeps a basis Q or forms the factors U, V and R of the decomposition: the
comparative quantities and certificates read the spectrum alone.
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
    RankDeficiencyError) runs on the R factor of the stacked pair, or of
    the compressed stack, inside ``run``. No solve reads or fills
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
    20 n u ||R||_F^2 (u = eps/2), shifted and factored in place (?potrf of
    its transpose), or yields a non-finite diagonal: ?potrf passes NaN
    pivots. To first order (Higham 2002, 3.5, 3.6, 10.1), forming R^H R
    errs by (n + 2) u ||R||_F^2, the shift by u ||R||_F^2, and a completed
    Cholesky is exact for a matrix within (n + 2) u ||R||_F^2 (2-norms), so
    success proves sigma_min(R)^2 >= (18 n - 5) u ||R||_F^2:
    sigma_min/sigma_max >= sqrt(13 n u) >> 1e-12."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the Cholesky
        n, gram = r.shape[0], r.conj().T @ r
        gram.flat[:: n + 1] -= 10 * n * np.finfo(np.float64).eps * float(np.trace(gram).real)
    potrf, = core._lapack(("potrf",), gram)
    c, info = potrf(gram.T, lower=True, clean=False, overwrite_a=True)
    if info or not np.all(np.isfinite(np.diagonal(c))):
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
    it takes an SVD with its right vectors W1, and the longer block's
    values are those of its product with W1, which has k columns, plus
    n - k exact ones (``_short_block_values``); the longer block itself
    takes no SVD.
    Otherwise each block takes a values-only SVD, which then costs less:
    the two routes are level near k = n/2 (CHANGES.md's entry on short L
    blocks holds the timings). Each pair keeps its smaller member, whose
    absolute error is at working precision, and completes the larger one
    through sqrt(1 - x^2); completing the small member instead would turn
    eps-level error in a value near 1 into sqrt(eps) noise.
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
    no taller than lb, and the n of lb, for a stack [La; Lb] with
    orthonormal columns. The reduced SVD La = Ua diag(a) W1^H is the first
    step of the stack's CS decomposition (Paige & Saunders 1981): since
    La^H La + Lb^H Lb = I, Lb W1 has orthogonal columns of norms
    sqrt(1 - a_i^2), and Lb maps each direction W1 misses to a unit vector,
    so lb's values are those of Lb W1 after n - k exact ones."""
    if la.shape[0]:
        _, a, w1 = core.svd(la)
    else:  # no rows: W1 has no columns
        a, w1 = np.zeros(0), np.zeros((la.shape[1], 0), la.dtype)
    return a, np.concatenate([np.ones(n - a.size), _singular_values(lb @ w1)])


def _side_seed(seed: int, side: int) -> int:
    """The sketch seed of side 0 (g1) or 1 (g2): the first word of that
    side's child of SeedSequence(seed mod 2^64)."""
    child = np.random.SeedSequence(int(seed) % 2**64).spawn(2)[side]
    return int(child.generate_state(1, np.uint64)[0])


def _side_config(cfg: ExtractionConfig, g: np.ndarray, side: int) -> ExtractionConfig:
    """The extraction settings of side 0 (g1) or 1 (g2): its own seed, and
    no max_cols where the cap, at least min(rows, cols), cannot bind."""
    cap = None if cfg.max_cols is None or cfg.max_cols >= min(g.shape) else cfg.max_cols
    return dataclasses.replace(cfg, seed=_side_seed(cfg.seed, side), max_cols=cap)


def _crossover(n: int) -> int:
    """Kept width ceil(n/3) from which a tall side is cheaper to QR than
    to sketch (see run)."""
    return -(-n // 3)


def _front_end(g: np.ndarray, cfg: ExtractionConfig, shortcut: bool):
    """(C, residual, note, exact) of one side of a randomized solve (see
    ``run``): a sketch's rows C = Q^H G, its explicit ||G - QC||_F (its last
    history entry), if max_cols stopped it unconverged above the trim floor
    a note saying so, and False; or an exact side's n x n R, 0, None and
    True. With ``shortcut`` an eligible side goes exact without a sketch.
    A side is eligible when it is tall, m >= 4 n rows, and uncapped: one
    under 4 rows per column is always sketched, because probing it costs
    more time and memory than its sketch saves."""
    m, n = g.shape
    if m < 4 * n or cfg.max_cols is not None:
        basis = extract_basis(g, cfg)
    elif shortcut:
        basis = None
    else:
        basis = extract_basis(g, dataclasses.replace(cfg, max_cols=_crossover(n)), probe=True)
        if not basis.converged:
            basis = None  # the discarded probe is not alive beside the QR
    if basis is None:
        return core.r_factor(g), 0.0, None, True
    normf, res = basis.residual_history[0], basis.residual_history[-1]
    note = None
    if basis.b.shape[0] == cfg.max_cols and not basis.converged and res >= cfg.trim_tol * normf:
        note = (f"kept max_cols = {cfg.max_cols} columns at residual {res:.3e} "
                f"> tol {cfg.tol_for(normf):.3e}")
    return basis.b, res, note, False


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
    against. A max_cols of at least a side's min(rows, cols) is no cap.
    Each side sketches from its own stream, seeded by the first word of
    child 0 (g1) or 1 (g2) of SeedSequence(extraction.seed mod 2^64).spawn(2),
    so the streams of the two sides, and of nearby base seeds, are
    independent. A sketch that max_cols stops unconverged, above the trim
    floor, is named in one warning per solve, with its kept width, residual
    and tol.

    Front ends. Sides run in order, g1 then g2, and cross = ceil(n/3). A
    side is eligible when it is tall and no cap binds it (``_front_end``).
    An ineligible side is sketched to extraction's own stopping rule. An
    eligible side is probed: extraction with max_cols = cross and probe=True
    runs the usual block schedule (a first block of min(32, blocksize)
    columns, then blocks sized from the residual) but stops as soon as the
    kept columns plus the columns the residual still predicts exceed cross.
    A probe that converges is the side's sketch; any other is dropped and
    the side goes exact: its compressed block is the n x n R of an R-only
    Householder QR (``core.r_factor``), Q is never formed and the residual
    is 0. A full-rank side therefore pays one first block before its QR.
    Since a solve needs l1 + l2 >= n rows, an eligible g2 with n - l1 >=
    cross would keep at least cross columns, so it goes exact without a
    probe. A solve with an exact side (g1 if both are) folds the other's
    block into its R (``core.fold_qr``: ?tpqrt, l = n for an exact R, then
    ?tpmqrt for Q after the rank test); every other solve, method="direct"
    among them, stacks the blocks (``core.reduced_qr``).

    Cost model: a sketch keeping k columns of an m x n side costs about
    4 m n k flops (G Omega, P^H G and two reorthogonalization passes),
    plus 2 m n k for its explicit residual; an R-only QR costs
    2 m n^2 - 2/3 n^3. Measured, the sketch wins below about n/4 kept
    columns and loses from n/3, where the switch sits. A side sent exact
    adds its one probe block, about 2 m n min(32, blocksize) flops for
    G Omega. The fold skips R's zeros, so it costs a fraction of the
    stacked QR. CHANGES.md's entries on the exact front end, the probe,
    the fold and the one tall rule hold the timings.

    Certificate. The run's exact GSVs are those of the projected pair
    (Q1 B1, Q2 B2), an exact side being its own matrix, so
    ``bounds.perturbation_bound(pair, run)`` bounds the deviation of
    ``run.spectrum`` from the pair's own GSVs.

    Memory. A solve reads a sketch's rows, never its joined Q; sketch panels,
    the stack and the rank test's Gram are factored in place, and nothing
    is held past its last reader. So it peaks at the pair, the rows kept so
    far and one step: a sketch's blocks and rows beside two panels (one and
    its Q, or its projection) or, at an explicit residual, beside the rows
    joined, a 1 MiB band of rows (``core.sum_sq``) and Q's rows in it; an
    exact side's R and one band (``core.r_factor``); the fold's R, its copy
    of the rows it takes, then Q's blocks; a stacked QR's stack and Q; the
    rank test's R and Gram (a complex R's conjugate too).

    Raises RankDeficiencyError when the stacked pair, or on the
    randomized path the compressed pair (fewer than n rows, or
    sigma_min(R) <= 1e-12 * sigma_max(R)), is numerically rank deficient.
    """
    opts = opts or GsvOptions()
    n = pair.n
    if opts.method == DIRECT:
        c1, c2, res1, res2, exact = pair.g1, pair.g2, 0.0, 0.0, (False, False)
    else:
        cfg = opts.extraction
        c1, res1, cap1, exact1 = _front_end(pair.g1, _side_config(cfg, pair.g1, 0), False)
        # a solve needs l1 + l2 >= n, so a sketch of g2 would keep >= n - l1 columns
        c2, res2, cap2, exact2 = _front_end(pair.g2, _side_config(cfg, pair.g2, 1),
                                            n - c1.shape[0] >= _crossover(n))
        exact = exact1, exact2
        capped = [f"g{i} {note}" for i, note in ((1, cap1), (2, cap2)) if note]
        if capped:
            warnings.warn("extraction stopped unconverged: " + "; ".join(capped))
    l1, l2 = c1.shape[0], c2.shape[0]
    if l1 + l2 < n:
        raise RankDeficiencyError(
            f"compressed pair has {l1} + {l2} rows < {n} columns; "
            "tighten the extraction tolerance or raise max_cols"
        )
    what = "stacked pair" if opts.method == DIRECT else "compressed stacked pair"
    if any(exact) and min(l1, l2):
        i = 0 if exact[0] else 1  # the side whose R takes the other side's rows
        blocks = [c1, c2]
        c1 = c2 = None
        r, q_blocks = core.fold_qr(blocks[i], blocks[1 - i], n if exact[1 - i] else 0)
        del blocks  # ?tpqrt copied the rows it takes
        _rank_test(r, what)
        q1, q2 = q_blocks() if i == 0 else q_blocks()[::-1]
        del q_blocks  # and with it the reflectors
    else:
        stack = np.concatenate([c1, c2], out=np.empty((l1 + l2, n), c1.dtype, order="F"))
        c1 = c2 = None  # the blocks are not alive beside the stack's QR
        qf = core.reduced_qr(stack, overwrite_a=True)
        del stack  # nor are its reflectors beside the rank test
        _rank_test(qf.r, what)
        r, q1, q2 = qf.r, qf.q[:l1], qf.q[l1:]
    spec = spectrum_from_l_blocks(q1, q2, n, opts.classify_tol)
    return GsvRun(spec, (res1, res2), r)

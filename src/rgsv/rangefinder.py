"""Blocked randomized extraction of an approximate orthonormal column basis.

``extract_basis`` builds Q block by block from Gaussian sketches until the
Frobenius residual ||(I - QQ^H)G||_F falls below a tolerance. Each sampled
panel is projected against the kept blocks Q, QR'd (``core.reduced_qr``,
which also factors a rank-deficient panel, and takes LAPACK's level-3
?geqrt for a tall one), trimmed to P and projected once more
(reorthogonalized block classical Gram-Schmidt: Barlow & Smoktunowicz
2013; Giraud, Langou, Rozloznik & van den Eshof 2005). For orthonormal Q and P, P' = P - QC with C = Q^H P has
P'^H P' = I - C^H C, so P' is QR'd again only when ||C||_F^2 exceeds
w eps (w its width). The trim reads T of a once-projected panel, whose
spurious part (about u ||G omega|| ~ 1e-16 ||G||_F per column) sits four
orders under the default trim floor, 1e-12 ||G||_F.
``blocksize`` is the largest block width: the first block is at most 32
columns wide and each later one is sized from the decay seen so far (see
``extract_basis``). Each kept block P also yields its compressed rows
P^H G, which give the captured energy and are returned as
``BasisResult.b = Q^H G`` (the QB form of the blocked rangefinder), so
callers need not form Q^H G again. Each residual entry is estimated as
sqrt(anchor^2 - captured), the anchor being the last explicit residual
(first ||G||_F) and captured the energy of the blocks kept since, at
O(m*n*b) an iteration. The difference cancels below about sqrt(eps)
anchor (Yu, Gu & Li 2018), so the explicit ||G - QB||_F (O(m*n*k))
replaces the estimate, and becomes the anchor, only where a decision
reads it (Halko, Martinsson & Tropp 2011, 4.3): once the estimate is
below tol, the trim floor or 10 sqrt(eps) anchor, and at the last block
the loop can take. Every stop but a probe's budget stop, and
``converged``, thus read an explicit entry. Every explicit residual,
that of ``residual_norm`` too, is ``core.sum_sq`` of G - QB, one band of
rows of QB at a time, so extraction holds no array as large as G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .errors import ConvergenceError, DimensionError, ValidationError


# anchor^2 - captured cancels below about sqrt(eps) times the anchor (Yu,
# Gu & Li 2018); the estimate is trusted down to this fraction of its
# anchor, and below it the residual is taken explicitly.
_CANCELLATION_FLOOR = 10.0 * math.sqrt(np.finfo(np.float64).eps)

# The first block's width (at most blocksize), and the columns each later
# block samples beyond the predicted need (see extract_basis).
_FIRST_WIDTH = 32
_OVERSAMPLE = 10


@dataclass(frozen=True)
class ExtractionConfig:
    """Knobs for basis extraction.

    tol        finite positive absolute Frobenius residual target; None means
               1e-10*||G||_F.
    blocksize  largest sketch width of one iteration; the first block is
               min(32, blocksize) wide and later ones are sized from the
               residual (see extract_basis).
    seed       base seed for the Gaussian sketches.
    max_cols   optional cap on the number of basis columns.
    trim_tol   finite relative threshold below which a block column is dropped;
               0 disables trimming and keeps every sampled column.
    """

    tol: float | None = None
    blocksize: int = 100
    seed: int = 0
    max_cols: int | None = None
    trim_tol: float = 1e-12

    def tol_for(self, normf: float) -> float:
        """The absolute residual target for a matrix of Frobenius norm normf."""
        return self.tol if self.tol is not None else 1e-10 * normf

    def __post_init__(self):
        if self.tol is not None and not 0 < self.tol < math.inf:  # inf stops with no basis
            raise ValidationError(f"tol must be finite and positive, got {self.tol}")
        if self.blocksize < 1:
            raise ValidationError(f"blocksize must be >= 1, got {self.blocksize}")
        if self.max_cols is not None and self.max_cols < 1:
            raise ValidationError(f"max_cols must be >= 1, got {self.max_cols}")
        if not 0 <= self.trim_tol < math.inf:  # NaN or inf would trim every column
            raise ValidationError(f"trim_tol must be finite and >= 0, got {self.trim_tol}")


@dataclass
class BasisResult:
    """Output of ``extract_basis``.

    q is the m x k orthonormal basis and b = q^H g its k x n compressed
    rows, formed block by block while the residual was tracked.
    residual_history[i] is the Frobenius residual after i iterations
    (entry 0 is the residual of the empty basis, ||G||_F): explicit where
    a stop or a schedule decision read it, else estimated from the last
    explicit entry (see the module docstring). The last entry is explicit
    but on a probe stopped on its budget; block_widths records how many
    columns each iteration contributed after trimming.
    """

    q: np.ndarray
    b: np.ndarray
    residual_history: list[float]
    converged: bool
    block_widths: list[int]

    @property
    def iterations(self) -> int:
        return len(self.block_widths)


def extract_basis(g, cfg: ExtractionConfig | None = None, *, probe: bool = False) -> BasisResult:
    """Extract an approximate orthonormal basis of the column space of g.

    The residual test runs before the first iteration, so a zero matrix
    yields an empty basis immediately. Each block is projected against the
    kept ones on each side of its QR (see the module docstring). The first
    block is min(32, blocksize) columns wide. After a block kept whole,
    whose rows P^H G have smallest singular value smin, the loop predicts
    that need = ceil((res^2 - tol^2) / smin^2) more columns are needed,
    taking no direction left in the residual to carry more energy than
    smin^2; the next block is min(blocksize, need + 10) wide (the randQB_EI
    schedule of Yu, Gu & Li 2018; Halko, Martinsson & Tropp 2011, 4.2-4.4).
    A partly trimmed block keeps the width. Blocks never sample more than
    min(m, n) columns in all, which span the range of g (so an untrimmed
    basis has no more columns than g has rows), nor keep more than
    max_cols. The loop stops early, unconverged, once the residual is
    below trim_tol * ||G||_F without reaching tol: a further block would be
    trimmed whole. Failure to reach tol is not an error: the result carries
    converged=False and the full residual history.

    ``probe`` makes max_cols a budget rather than a width to fill: the loop
    also stops, unconverged, as soon as kept + need exceeds max_cols, so a
    side whose basis would not fit pays for one block, not for max_cols
    columns. Its caller discards such a probe; its last entry is the estimate.
    """
    cfg = cfg or ExtractionConfig()
    a = core.as_matrix(g, "g")
    m, n = a.shape
    rank = min(m, n)  # the columns a basis needs at most
    field = core.COMPLEX if np.iscomplexobj(a) else core.REAL

    gf2 = core.sum_sq(a)
    normf = math.sqrt(gf2)
    tol = cfg.tol_for(normf)
    trim_cut = cfg.trim_tol * normf
    limit = rank if cfg.max_cols is None else cfg.max_cols
    if limit > rank:
        raise ValidationError(f"max_cols={limit} exceeds min(rows, cols)={rank}")
    if probe and cfg.max_cols is None:
        raise ValidationError("a probe needs max_cols as its budget")

    blocks: list[np.ndarray] = []  # kept orthonormal blocks of Q, in order
    rows: list[np.ndarray] = []  # their compressed rows P^H G
    history = [normf]
    widths: list[int] = []
    if normf == 0.0 or normf < tol:
        return BasisResult(*_join(blocks, rows, a), history, True, widths)

    rng = core.seeded_rng(cfg.seed)
    # the squared anchor, the estimate it is trusted down to, the energy kept since
    anchor2, floor, captured = gf2, _CANCELLATION_FLOOR * normf, []
    kept = sampled = 0
    width = min(_FIRST_WIDTH, cfg.blocksize)

    while sampled < rank and kept < limit:
        width = min(width, rank - sampled, limit - kept)
        y = a @ core.gaussian_block(rng, n, width, field)
        sampled += width
        for qb in blocks:
            y -= qb @ (qb.conj().T @ y)
        p, t = core.reduced_qr(y)
        del y  # not needed again; keeps one panel out of the peak when Q is joined
        p = p[:, np.abs(np.diagonal(t)) >= trim_cut]
        if blocks and p.shape[1]:  # see the module docstring
            moved = 0.0  # ||C||_F^2
            for qb in blocks:
                c = qb.conj().T @ p
                p -= qb @ c
                moved += core.sum_sq(c)
            if moved > p.shape[1] * np.finfo(np.float64).eps:
                p = core.reduced_qr(p).q
        if p.shape[1]:
            bp = p.conj().T @ a
            captured.append(core.sum_sq(bp))
            blocks.append(p)
            rows.append(bp)
            kept += p.shape[1]
        widths.append(p.shape[1])
        res = math.sqrt(max(anchor2 - math.fsum(captured), 0.0))
        if sampled >= rank or kept >= limit or res < max(tol, trim_cut, floor):
            res = _residual(a, blocks, rows)
            anchor2, floor, captured = res * res, _CANCELLATION_FLOOR * res, []
        history.append(res)
        if res < max(tol, trim_cut):  # converged, or a further block would be trimmed whole
            break
        if p.shape[1] == width:
            need = _predicted_need(res * res - tol * tol, rows[-1], n)
            if probe and kept + need > limit:
                break  # its caller discards it, so the entry stays an estimate
            width = min(cfg.blocksize, need + _OVERSAMPLE)

    q, c = _join(blocks, rows, a)
    return BasisResult(q, c, history, history[-1] < tol, widths)


def _predicted_need(excess: float, block_rows: np.ndarray, n: int) -> int:
    """ceil(excess / smin^2), at least 1 and at most n, for the smallest
    singular value smin of the rows P^H G of the block just kept: the
    columns still needed to remove ``excess`` squared residual if no
    remaining direction carries more energy than the block's weakest.
    smin^2 is the smallest eigenvalue of their Gram matrix, which for a
    100 x 400 complex block costs 2.3 ms against 5.7 ms for an SVD (1 BLAS
    thread). Its error, about eps * ||P^H G||^2, matters only when smin is
    below about sqrt(eps) times the block's largest; it then changes the
    next block's width, never when the loop stops."""
    try:
        smin2 = float(np.linalg.eigvalsh(block_rows @ block_rows.conj().T)[0])
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue solver did not converge: {exc}") from exc
    if smin2 <= 0 or excess >= n * smin2:
        return n
    return max(1, math.ceil(excess / smin2))


def _residual(a: np.ndarray, blocks: list[np.ndarray], rows: list[np.ndarray]) -> float:
    """||A - QB||_F for Q = [blocks] and B = [rows], ||A||_F for no block.
    B is joined once; each band of rows of QB is then one GEMM of the
    blocks' rows in that band, joined, into ``core.sum_sq``'s one buffer."""
    if not blocks:
        return math.sqrt(core.sum_sq(a))
    b = np.vstack(rows)

    def minus(band, out):
        np.matmul(np.hstack([qb[band] for qb in blocks]), b, out=out)

    return math.sqrt(core.sum_sq(a, minus, b.dtype))


def _join(blocks: list[np.ndarray], rows: list[np.ndarray], a: np.ndarray):
    """(Q, Q^H G) from the kept blocks and their rows, each joined once and
    released. The rows are joined first, so they are not alive beside both
    copies of Q."""
    m, n = a.shape
    c = np.vstack(rows) if rows else np.zeros((0, n), dtype=a.dtype)
    rows.clear()
    q = np.hstack(blocks) if blocks else np.zeros((m, 0), dtype=a.dtype)
    blocks.clear()
    return q, c


def residual_norm(g, q) -> float:
    """Explicit evaluation of ||(I - QQ^H)G||_F.

    This is the non-cumulative reference; an empty basis returns ||G||_F.
    It is taken in one reused band of rows (``core.sum_sq``).
    """
    a = core.as_matrix(g, "g")
    qa = np.asarray(q)
    if qa.ndim != 2:
        raise DimensionError(f"q must be 2-D, got shape {qa.shape}")
    if qa.shape[0] != a.shape[0]:
        raise DimensionError(f"q has {qa.shape[0]} rows but g has {a.shape[0]}")
    return _residual(a, [qa], [qa.conj().T @ a])

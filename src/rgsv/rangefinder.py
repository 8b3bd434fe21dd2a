"""Blocked randomized extraction of an approximate orthonormal column basis.

``extract_basis`` builds Q block by block from Gaussian sketches until the
Frobenius residual ||(I - QQ^H)G||_F falls below a tolerance, every block
being projected against the kept blocks (twice, to contain roundoff)
before its Householder QR (``core.reduced_qr``), which also factors the
rank-deficient panel that crosses the numerical rank. Each kept block P
also yields its compressed rows P^H G, which give the captured energy and
are returned as ``BasisResult.b = Q^H G`` (the QB form of the blocked
rangefinder), so callers need not form Q^H G again. The squared residual
is maintained cumulatively as ||G||_F^2 minus the captured energy, which
keeps each iteration at O(m*n*b). That difference cancels below about
sqrt(eps) ||G||_F, so when tol is no more than 10x that floor, a residual
estimated below 10 sqrt(eps) ||G||_F is replaced by the explicit
||G - QB||_F (one O(m*n*k) product, then O(m*n*b) per block) for both
the history entry and the stop test. ``residual_norm`` is the explicit
reference evaluation used to validate the reported value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import core
from .errors import DimensionError, ValidationError


# ||G||_F^2 - captured cancels below about sqrt(eps) ||G||_F (Yu, Gu & Li
# 2018); the cumulative estimate is trusted down to this many times that
# floor, and below it, if tol is too, the residual is taken explicitly.
_CANCELLATION_MARGIN = 10.0


@dataclass(frozen=True)
class ExtractionConfig:
    """Knobs for basis extraction.

    tol        finite positive absolute Frobenius residual target; None means
               1e-10*||G||_F.
    blocksize  sketch width per iteration (clamped to the column count).
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
    (entry 0 is the residual of the empty basis); block_widths records how
    many columns each iteration contributed after trimming.
    """

    q: np.ndarray
    b: np.ndarray
    residual_history: list[float]
    converged: bool
    iterations: int
    block_widths: list[int] = field(default_factory=list)


def extract_basis(g, cfg: ExtractionConfig | None = None) -> BasisResult:
    """Extract an approximate orthonormal basis of the column space of g.

    The residual test runs before the first iteration, so a zero matrix
    yields an empty basis immediately. The loop visits ceil(n/blocksize)
    blocks (the last one narrower when blocksize does not divide n) and
    after exhausting them the basis reproduces g to roundoff. It stops
    early, unconverged, once the residual is below trim_tol * ||G||_F
    without reaching tol: a further block would be trimmed whole. Failure
    to reach tol is not an error: the result carries converged=False and
    the full residual history.
    """
    cfg = cfg or ExtractionConfig()
    a = core.as_matrix(g, "g")
    m, n = a.shape
    field = core.COMPLEX if np.iscomplexobj(a) else core.REAL

    gf2 = core.sum_sq(a)
    normf = math.sqrt(gf2)
    tol = cfg.tol if cfg.tol is not None else 1e-10 * normf
    trim_cut = cfg.trim_tol * normf
    max_cols = cfg.max_cols
    if max_cols is not None and max_cols > min(m, n):
        raise ValidationError(
            f"max_cols={max_cols} exceeds min(rows, cols)={min(m, n)}"
        )

    blocks: list[np.ndarray] = []  # kept orthonormal blocks of Q, in order
    rows: list[np.ndarray] = []  # their compressed rows P^H G
    history = [normf]
    widths: list[int] = []
    if normf == 0.0 or normf < tol:
        return BasisResult(*_join(blocks, rows, a), history, True, 0, widths)

    b = min(cfg.blocksize, n)
    nblocks = -(-n // b)
    rng = core.seeded_rng(cfg.seed)
    floor = _CANCELLATION_MARGIN * math.sqrt(np.finfo(np.float64).eps) * normf
    explicit = None  # G - QB, once the residual is evaluated explicitly
    captured_parts: list[float] = []
    converged = False
    iterations = 0
    kept = 0

    for i in range(nblocks):
        width = min(b, n - i * b)
        if max_cols is not None:
            width = min(width, max_cols - kept)
        y = a @ core.gaussian_block(rng, n, width, field)
        for _ in range(2):
            for qb in blocks:
                y -= qb @ (qb.conj().T @ y)
        p, t = core.reduced_qr(y)
        del y  # not needed again; keeps one panel out of the peak when Q is joined
        keep = np.abs(np.diagonal(t)) >= trim_cut
        p = p[:, keep]
        if p.shape[1]:
            bp = p.conj().T @ a
            captured_parts.append(core.sum_sq(bp))
            blocks.append(p)
            rows.append(bp)
            kept += p.shape[1]
            if explicit is not None:
                explicit -= p @ bp
        widths.append(p.shape[1])
        res = math.sqrt(max(gf2 - math.fsum(captured_parts), 0.0))
        if explicit is None and tol <= floor and res < floor:
            explicit = a.copy()
            for qb, rb in zip(blocks, rows):
                explicit -= qb @ rb
        if explicit is not None:
            res = math.sqrt(core.sum_sq(explicit))
        history.append(res)
        iterations = i + 1
        if res < tol:
            converged = True
            break
        if res < trim_cut:  # a further block would be trimmed whole
            break
        if max_cols is not None and kept >= max_cols:
            break

    return BasisResult(*_join(blocks, rows, a), history, converged, iterations, widths)


def _join(blocks: list[np.ndarray], rows: list[np.ndarray], a: np.ndarray):
    """(Q, Q^H G) from the kept blocks and their rows, each joined once.
    The rows are joined and released first, so they are not alive beside
    both copies of Q."""
    m, n = a.shape
    c = np.vstack(rows) if rows else np.zeros((0, n), dtype=a.dtype)
    rows.clear()
    q = np.hstack(blocks) if blocks else np.zeros((m, 0), dtype=a.dtype)
    return q, c


def residual_norm(g, q) -> float:
    """Explicit evaluation of ||(I - QQ^H)G||_F.

    This is the non-cumulative reference; an empty basis returns ||G||_F.
    """
    a = core.as_matrix(g, "g")
    qa = np.asarray(q)
    if qa.ndim != 2:
        raise DimensionError(f"q must be 2-D, got shape {qa.shape}")
    if qa.shape[0] != a.shape[0]:
        raise DimensionError(
            f"q has {qa.shape[0]} rows but g has {a.shape[0]}"
        )
    if qa.shape[1] == 0:
        return core.frobenius_norm(a)
    resid = a - qa @ (qa.conj().T @ a)
    return math.sqrt(core.sum_sq(resid))

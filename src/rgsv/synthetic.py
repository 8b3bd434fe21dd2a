"""Synthetic matrix pairs with a prescribed ground-truth GSV spectrum.

Both matrices share a Gaussian right factor; their left factors are
orthonormalized Gaussian blocks applied only to the nonzero diagonal
entries, so the generator also covers shapes with fewer rows than
columns. The retained true spectrum makes generated pairs usable as
accuracy oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .engine import GmpPair, GsvSpectrum
from .errors import InfeasibleRankError, ValidationError


@dataclass(frozen=True)
class SynthSpec:
    """Sizes, rank fraction, seed and scalar field of a synthetic pair.

    Each matrix gets rank floor(rank_frac * min(m, p, n)); the interior
    GSVs are uniform draws on (0, 1), sorted.
    """

    m: int
    p: int
    n: int
    rank_frac: float = 0.6
    seed: int = 0
    field: str = core.COMPLEX

    def __post_init__(self):
        if self.m < 1 or self.p < 1:
            raise ValidationError(f"m and p must be >= 1, got ({self.m}, {self.p})")
        if self.n < 2:
            raise ValidationError(f"n must be >= 2, got {self.n}")
        if not 0 < self.rank_frac <= 1:
            raise ValidationError(f"rank_frac must be in (0, 1], got {self.rank_frac}")
        if self.field not in (core.REAL, core.COMPLEX):
            raise ValidationError(f"field must be 'real' or 'complex', got {self.field!r}")

    @property
    def rank(self) -> int:
        return int(math.floor(self.rank_frac * min(self.m, self.p, self.n)))


@dataclass(frozen=True)
class SynthResult:
    """Generated pair, its exact spectrum, and the condition number of the
    shared right factor (which scales how well the spectrum can be
    recovered in floating point)."""

    pair: GmpPair
    true_spectrum: GsvSpectrum
    condition_r: float


def synth_gmp(spec: SynthSpec) -> SynthResult:
    """Generate a pair with known GSVs, deterministically per seed.

    The zero blocks are forced by the two rank constraints: n - rank
    alphas are zero and n - rank betas are zero, which requires
    2 * rank >= n; infeasible configurations are rejected.
    """
    rank = spec.rank
    if rank < 1:
        raise ValidationError(
            f"rank_frac {spec.rank_frac} with sizes ({spec.m}, {spec.p}, {spec.n}) "
            "yields empty matrices"
        )
    n = spec.n
    r = n - rank          # betas that are exactly zero (alphas exactly one)
    n_interior = 2 * rank - n
    if n_interior < 0:
        raise InfeasibleRankError(
            f"rank {rank} per matrix cannot stack to full column rank {n}; "
            "increase rank_frac"
        )

    rng = core.seeded_rng(spec.seed)
    interior = np.sort(rng.uniform(0.0, 1.0, n_interior))[::-1]
    alphas = np.concatenate([np.ones(r), interior, np.zeros(n - rank)])
    betas = np.sqrt(1.0 - alphas**2)
    betas[:r] = 0.0
    betas[rank:] = 1.0

    r_star = core.gaussian_block(rng, n, n, spec.field)
    u_active = core.reduced_qr(core.gaussian_block(rng, spec.m, rank, spec.field)).q
    v_active = core.reduced_qr(core.gaussian_block(rng, spec.p, rank, spec.field)).q

    # nonzero alphas occupy indices [0, rank); nonzero betas [n - rank, n)
    g1 = u_active @ (alphas[:rank, None] * r_star[:rank, :])
    g2 = v_active @ (betas[n - rank:, None] * r_star[n - rank:, :])

    sr = core.svd(r_star, compute_uv=False).s
    condition_r = float(sr[0] / sr[-1])

    spectrum = GsvSpectrum(alphas, betas, r=r, s=n_interior)
    return SynthResult(GmpPair(g1, g2), spectrum, condition_r)

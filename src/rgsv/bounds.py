"""Error certificates for the randomized pipeline.

Three certified quantities: the expected squared basis-extraction residual
for a fixed-size Gaussian sketch (``projector_bound``), the perturbation
budget e linking a pair to its GSV deviation from a perturbed copy
(``perturbation_bound``), and first-order bounds on how far every
comparative-analysis quantity can move under e
(``quantity_error_bounds``). The perturbed copy is an explicit pair, or
a solve's ``engine.GsvRun``: e is then the a-posteriori certificate of
the spectrum that run returned (Halko, Martinsson & Tropp 2011, 4.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .analysis import eigenexpression_fractions, shannon_entropy
from .engine import GmpPair, GsvRun, GsvSpectrum
from .errors import DimensionError, ValidationError

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class BoundCertificate:
    """Deviation budget for comparative quantities at perturbation size
    ``e_script``.

    theta_bound caps every angular-distance deviation (saturating at pi/2,
    in which case ``vacuous`` is set); p1_bounds/p2_bounds and
    d1_bound/d2_bound are first-order per-entry and scalar caps with the
    sub-linear remainder dropped. ``eta`` is the stacked-pair conditioning
    factor sigma_max^2 when the caller supplies it (``rgsv bounds``: that
    of the run's R~).
    """

    e_script: float
    theta_bound: float
    p1_bounds: np.ndarray
    p2_bounds: np.ndarray
    d1_bound: float
    d2_bound: float
    vacuous: bool = False
    eta: float | None = None


def projector_bound(
    pair: GmpPair,
    spectrum: GsvSpectrum,
    k: int,
    oversample: int,
    which: str = "first",
) -> float:
    """Upper bound on the expected squared residual of a (k + oversample)-
    column Gaussian sketch of g1 (``which="first"``) or g2 (``"second"``).

    The bound is eta * (k/(oversample - 1) + 1) times the squared GSV tail
    the sketch cannot capture: the alphas beyond index k for g1, the
    n - k smallest betas for g2. eta = ``pair.stack_norm2`` squared, whose
    first read costs one SVD of the (m + p) x n stack; the tail is read
    from ``spectrum`` as given, so a computed spectrum moves it by its own
    error.
    """
    if which not in ("first", "second"):
        raise ValidationError(f"which must be 'first' or 'second', got {which!r}")
    if k < 2:
        raise ValidationError(f"target rank k must be >= 2, got {k}")
    if oversample < 2:
        raise ValidationError(f"oversample must be >= 2, got {oversample}")
    limit = min(pair.m, pair.n) if which == "first" else min(pair.p, pair.n)
    if k + oversample > limit:
        raise ValidationError(
            f"k + oversample = {k + oversample} exceeds min dimension {limit}"
        )
    eta = pair.stack_norm2 ** 2
    prefactor = k / (oversample - 1) + 1.0
    if which == "first":
        tail = float(np.sum(spectrum.alphas[k:] ** 2))
    else:
        tail = float(np.sum(spectrum.betas[: spectrum.n - k] ** 2))
    return eta * prefactor * tail


def perturbation_bound(pair: GmpPair, pair_tilde: GmpPair | GsvRun) -> float:
    """Perturbation budget e = sqrt(2) * ||E||_F * ||A^+||_2 for the
    stacked pair perturbed to A = stack + E. Bounds the root-sum-square
    (and hence the per-index) GSV deviation between the two.

    For an explicit ``pair_tilde`` E is summed one band of rows at a time
    (``core.sum_sq``), and ||A^+||_2 is the smaller of the two stacked
    pseudoinverse norms, each one SVD of its (m + p) x n stack on first
    read. For a ``GsvRun`` of ``pair`` only R~ is factored, on first read:
    A is the run's projected stack, ||E||_F the hypot of its residuals and
    ||A^+||_2 = 1/sigma_min(R~). A rounding allowance sqrt(2) * n * eps *
    sigma_max(R~)/sigma_min(R~) covers the floating-point solve of A, so a
    both-exact run is not certified at exactly 0.
    """
    if isinstance(pair_tilde, GsvRun):
        sv = pair_tilde.r_singular_values
        if sv.size != pair.n:
            raise DimensionError(f"run has {sv.size} singular values for {pair.n} columns")
        smax, smin = float(sv[0]), float(sv[-1])
        return math.sqrt(2.0) * (math.hypot(*pair_tilde.residuals) + pair.n * _EPS * smax) / smin
    if pair.g1.shape != pair_tilde.g1.shape or pair.g2.shape != pair_tilde.g2.shape:
        raise DimensionError("pairs must have identical shapes")
    # a pseudoinverse norm factors its stack; read both before any
    # difference band exists
    pinv_norm = min(pair.stack_pinv_norm, pair_tilde.stack_pinv_norm)
    dsq = sum(core.sum_sq(t, lambda band, out, g=g: np.copyto(out, g[band]), g.dtype)
              for t, g in ((pair_tilde.g1, pair.g1), (pair_tilde.g2, pair.g2)))
    return math.sqrt(2.0) * math.sqrt(dsq) * pinv_norm


def _entropy_sensitivity(vals: np.ndarray, d: float) -> float:
    """Sum of |x_i / S * (log(x_i^2 / S) / log n + D)| over nonzero x."""
    n = vals.size
    total = float(np.sum(vals**2))
    nz = vals[vals > 0]
    terms = np.abs(nz / total * (np.log(nz**2 / total) / math.log(n) + d))
    return float(np.sum(terms))


def quantity_error_bounds(
    spectrum: GsvSpectrum,
    e_script: float,
    eta: float | None = None,
) -> BoundCertificate:
    """First-order deviation bounds for every comparative quantity at
    perturbation budget ``e_script``.

    When 2 * e_script exceeds 1 the angular bound saturates at pi/2 and the
    certificate is flagged vacuous. Entries with a zero GSV contribute
    zero to their own bound and to the entropy sensitivities.
    """
    if not e_script >= 0:  # also rejects NaN
        raise ValidationError(f"e_script must be >= 0, got {e_script}")
    if spectrum.n < 2:
        raise ValidationError("bounds need a spectrum of length >= 2")
    two_e = 2.0 * e_script
    vacuous = two_e > 1.0
    theta_bound = math.asin(min(two_e, 1.0))

    p1, p2 = eigenexpression_fractions(spectrum)  # rejects a zero energy first
    alphas, betas = spectrum.alphas, spectrum.betas
    sa = float(np.sum(alphas**2))
    sb = float(np.sum(betas**2))
    p1_bounds = 2.0 * alphas * e_script / sa
    p2_bounds = 2.0 * betas * e_script / sb

    d1 = shannon_entropy(p1)
    d2 = shannon_entropy(p2)
    d1_bound = two_e * _entropy_sensitivity(alphas, d1)
    d2_bound = two_e * _entropy_sensitivity(betas, d2)

    return BoundCertificate(
        e_script=float(e_script),
        theta_bound=theta_bound,
        p1_bounds=p1_bounds,
        p2_bounds=p2_bounds,
        d1_bound=d1_bound,
        d2_bound=d2_bound,
        vacuous=vacuous,
        eta=eta,
    )

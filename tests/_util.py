"""Shared helpers for the test suite."""

import contextlib
import dataclasses
import math
import os
from pathlib import Path

import numpy as np
import pytest

import rgsv
from rgsv import GmpPair, GsvSpectrum, classify_spectrum, extract_basis, gaussian_matrix
from rgsv.core import reduced_qr
from rgsv.engine import _side_seed


def random_pair(m, p, n, seed, field="real"):
    """Generic full-rank pair from Gaussian matrices (interior spectrum
    almost surely)."""
    g1 = gaussian_matrix(m, n, seed, field)
    g2 = gaussian_matrix(p, n, seed + 1, field)
    return GmpPair(g1, g2)


def structured_pair(alphas, m, p, seed, field="real"):
    """Pair with prescribed GSVs: G1 = U diag(a) R, G2 = V diag(b) R with
    b = sqrt(1 - a^2). Requires m, p >= n and all alphas in [0, 1]."""
    alphas = np.asarray(alphas, dtype=np.float64)
    n = alphas.size
    betas = np.sqrt(1.0 - alphas**2)
    r_star = gaussian_matrix(n, n, seed, field)
    u = reduced_qr(gaussian_matrix(m, n, seed + 1, field)).q
    v = reduced_qr(gaussian_matrix(p, n, seed + 2, field)).q
    g1 = u @ (alphas[:, None] * r_star)
    g2 = v @ (betas[:, None] * r_star)
    truth = make_spectrum(alphas, betas)
    return GmpPair(g1, g2), truth


def make_spectrum(alphas, betas, classify_tol=1e-10):
    """Build a validated spectrum from raw ordered values."""
    return classify_spectrum(alphas, betas, classify_tol)


def spectrum_gap(s1: GsvSpectrum, s2: GsvSpectrum) -> float:
    """Largest elementwise deviation across both sequences."""
    return max(
        float(np.max(np.abs(s1.alphas - s2.alphas))),
        float(np.max(np.abs(s1.betas - s2.betas))),
    )


def explicit_run_budget(pair, opts, exact=()):
    """The certificate of a randomized solve with nothing reused: explicit
    projections Q (Q^H G) with the engine's per-side seeds, the sides in
    ``exact`` (0: g1, 1: g2) left as they are, the whole difference from
    the pair, and an SVD of the projected (m + p) x n stack for its
    extreme singular values, with the rounding allowance of
    ``perturbation_bound``."""
    cfg = opts.extraction
    tilde = []
    for side, g in enumerate((pair.g1, pair.g2)):
        if side in exact:
            tilde.append(g)
            continue
        q = extract_basis(g, dataclasses.replace(cfg, seed=_side_seed(cfg.seed, side))).q
        tilde.append(q @ (q.conj().T @ g))
    tilde = np.vstack(tilde)
    s = np.linalg.svd(tilde, compute_uv=False)
    resid = np.linalg.norm(tilde - pair.stacked())
    return math.sqrt(2.0) * (resid + pair.n * np.finfo(float).eps * s[0]) / s[-1]


def allowance(pair, solve):
    """The rounding allowance of the certificate of a run of ``pair``: its
    budget with both residuals 0."""
    sv = solve.r_singular_values
    return math.sqrt(2.0) * (pair.n * np.finfo(float).eps * float(sv[0])) / float(sv[-1])


def capped_warning(expected=True):
    """Asserts the one warning of a solve whose extraction stopped
    unconverged at max_cols; a null context where none is expected."""
    if not expected:
        return contextlib.nullcontext()
    return pytest.warns(UserWarning, match="extraction stopped unconverged")


def record_rows(monkeypatch, *targets):
    """Wrap each (owner, name) function so that the row count of its first
    argument is appended to the returned list on every call."""
    rows = []

    def recording(fn):
        def wrapper(a, *args, **kwargs):
            rows.append(np.shape(a)[0])
            return fn(a, *args, **kwargs)

        return wrapper

    for owner, name in targets:
        monkeypatch.setattr(owner, name, recording(getattr(owner, name)))
    return rows


def child_env(env=None):
    """The environment for a child interpreter: this one's, updated by
    ``env``, with the source directory of the imported rgsv first on
    PYTHONPATH, so the child runs the tree under test."""
    full = dict(os.environ)
    full.update(env or {})
    src = str(Path(rgsv.__file__).resolve().parent.parent)
    rest = full.get("PYTHONPATH")
    full["PYTHONPATH"] = src + os.pathsep + rest if rest else src
    return full

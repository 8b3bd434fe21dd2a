"""Shared helpers for the test suite."""

import os
from pathlib import Path

import numpy as np

import rgsv
from rgsv import GmpPair, GsvSpectrum, classify_spectrum, gaussian_matrix
from rgsv.core import reduced_qr


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

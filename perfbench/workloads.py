"""The benchmark's workloads.

Each workload turns a seed into a matrix pair, the pair's true GSV
spectrum, the solve options and the matrix files the two CLI commands
read. The library only ever sees the generated arrays and files; the
generators here are the benchmark's own (``lowrank_tall``) or the
library's public ``synth_gmp``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import rgsv


@dataclass(frozen=True)
class Inputs:
    """Everything one run of a workload needs, made by ``setup``.

    ``tol`` is the absolute extraction tolerance (None: the library
    default), ``target`` the largest GSV error a correct output may have,
    and ``compare_files``/``bounds_files`` the (g1, g2) files each CLI
    command reads.
    """

    g1: np.ndarray
    g2: np.ndarray
    alphas: np.ndarray
    betas: np.ndarray
    tol: float | None
    target: float
    compare_files: tuple[Path, Path]
    bounds_files: tuple[Path, Path]

    def options(self, seed: int) -> rgsv.GsvOptions:
        return rgsv.GsvOptions(extraction=rgsv.ExtractionConfig(tol=self.tol, seed=seed))

    def cli_args(self, seed: int) -> list[str]:
        """The solve options as ``rgsv`` command-line flags."""
        args = ["--seed", str(seed)]
        if self.tol is not None:
            args += ["--tol", repr(self.tol)]
        return args


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable  # seed -> (g1, g2, alphas, betas, tol, target)
    compare_format: str  # "mtx" or "csv": the file format `rgsv compare` reads

    def setup(self, seed: int, workdir: Path) -> Inputs:
        """Generate the pair for ``seed`` and write its files into workdir."""
        g1, g2, alphas, betas, tol, target = self.generate(seed)
        mtx = (workdir / "g1.mtx", workdir / "g2.mtx")
        rgsv.io.write_matrix(mtx[0], g1)
        rgsv.io.write_matrix(mtx[1], g2)
        compare_files = mtx
        if self.compare_format == "csv":
            compare_files = (workdir / "g1.csv", workdir / "g2.csv")
            np.savetxt(compare_files[0], g1, fmt="%.17g", delimiter=",")
            np.savetxt(compare_files[1], g2, fmt="%.17g", delimiter=",")
        return Inputs(g1, g2, alphas, betas, tol, target, compare_files, mtx)


def _lowrank_tall(seed: int, m: int = 4000, p: int = 4000, n: int = 400):
    """G1 = U diag(alpha) R and G2 = V diag(sqrt(1 - alpha^2)) R, with 40
    alphas on [0.99, 0.5] followed by a 1e-10 ... 1e-13 tail: a low-rank
    G1 beside a full-rank G2. Randomized at tol 1e-6 * ||G1||_F."""
    rng = np.random.default_rng(seed)
    alphas = np.concatenate([np.linspace(0.99, 0.5, 40), 1e-10 * np.geomspace(1.0, 1e-3, n - 40)])
    betas = np.sqrt(1.0 - alphas**2)
    r_star = rng.standard_normal((n, n))
    u = np.linalg.qr(rng.standard_normal((m, n)))[0]
    v = np.linalg.qr(rng.standard_normal((p, n)))[0]
    g1 = u @ (alphas[:, None] * r_star)
    g2 = v @ (betas[:, None] * r_star)
    return g1, g2, alphas, betas, 1e-6 * rgsv.frobenius_norm(g1), 1e-6


def _synthetic(spec: rgsv.SynthSpec, tol: float | None, target: float):
    res = rgsv.synth_gmp(spec)
    truth = res.true_spectrum
    return res.pair.g1, res.pair.g2, truth.alphas, truth.betas, tol, target


# Why each workload exists; BENCHMARK.json carries the same reasons.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lowrank_tall",
            "Low-rank G1 beside full-rank G2 at 4000/4000/400 (acceptance criterion 10): "
            "the paper's target case, where basis extraction dominates a solve.",
            _lowrank_tall,
            "mtx",
        ),
        Workload(
            "dense_complex",
            "Complex synth_gmp pair 801/400/400 at tol 1e-12 (acceptance criterion 1): "
            "the stacked QR and block SVDs carry a large share of a solve.",
            lambda seed: _synthetic(rgsv.SynthSpec(801, 400, 400, 0.6, seed), 1e-12, 1e-8),
            "mtx",
        ),
        Workload(
            "cli_files",
            "Small real pair 1000/800/200 read from CSV and Matrix Market by whole rgsv "
            "processes: import and file I/O dominate, extraction is small.",
            lambda seed: _synthetic(
                rgsv.SynthSpec(1000, 800, 200, 0.6, seed, field="real"), None, 1e-8),
            "csv",
        ),
    )
}

import math

import numpy as np
import pytest

from rgsv import (
    BasisResult,
    DimensionError,
    ExtractionConfig,
    ValidationError,
    extract_basis,
    frobenius_norm,
    gaussian_matrix,
    residual_norm,
)
from rgsv.core import reduced_qr


def test_zero_matrix_terminates_before_sampling():
    res = extract_basis(np.zeros((7, 5)), ExtractionConfig(tol=1e-8))
    assert res.q.shape == (7, 0)
    assert res.converged
    assert res.iterations == 0
    assert res.residual_history == [0.0]


def test_rank_one_gives_single_column():
    rng = np.random.default_rng(0)
    u = rng.standard_normal((100, 1))
    v = rng.standard_normal((50, 1))
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    g = u @ v.T
    res = extract_basis(g, ExtractionConfig(tol=1e-10, blocksize=10, seed=1, trim_tol=1e-12))
    assert res.q.shape[1] == 1
    assert residual_norm(g, res.q) <= 1e-10


def test_full_saturation_reproduces_matrix():
    g = gaussian_matrix(120, 120, seed=2)
    res = extract_basis(g, ExtractionConfig(tol=1e-300, blocksize=25, seed=3))
    assert res.iterations == math.ceil(120 / 25)
    assert residual_norm(g, res.q) <= 1e-10 * frobenius_norm(g)


def test_uneven_final_block():
    g = gaussian_matrix(40, 23, seed=4)
    res = extract_basis(g, ExtractionConfig(tol=1e-300, blocksize=10, seed=5))
    assert res.iterations == 3  # ceil(23/10), final block of width 3
    assert res.q.shape[1] <= 23
    assert residual_norm(g, res.q) <= 1e-10 * frobenius_norm(g)


def test_residual_history_structure():
    g = gaussian_matrix(60, 30, seed=6)
    res = extract_basis(g, ExtractionConfig(tol=1e-300, blocksize=8, seed=7))
    assert len(res.residual_history) == res.iterations + 1
    assert res.residual_history[0] == pytest.approx(frobenius_norm(g))
    diffs = np.diff(res.residual_history)
    assert np.all(diffs <= 1e-10)  # nonincreasing within slack


def test_cumulative_residual_matches_explicit_at_every_iteration():
    g = gaussian_matrix(80, 40, seed=8)
    # mildly decaying spectrum so intermediate residuals are nontrivial
    u, s, vt = np.linalg.svd(g, full_matrices=False)
    g = u @ np.diag(np.geomspace(1, 1e-6, 40)) @ vt
    res = extract_basis(g, ExtractionConfig(tol=1e-300, blocksize=7, seed=9))
    nrm = frobenius_norm(g)
    col = 0
    for i, width in enumerate(res.block_widths, start=1):
        col += width
        explicit = residual_norm(g, res.q[:, :col])
        assert abs(res.residual_history[i] - explicit) <= 1e-8 * nrm


def test_orthogonality_drift_bounded():
    # correlated columns stress the re-projection pass
    base = gaussian_matrix(200, 12, seed=10)
    mix = np.hstack([base + 1e-8 * gaussian_matrix(200, 12, seed=11) for _ in range(6)])
    res = extract_basis(mix, ExtractionConfig(tol=1e-300, blocksize=9, seed=12))
    l = res.q.shape[1]
    gram = res.q.conj().T @ res.q - np.eye(l)
    assert np.linalg.norm(gram) <= 1e-11 * math.sqrt(l)


def test_trim_disabled_keeps_all_sampled_columns():
    rng = np.random.default_rng(13)
    u = rng.standard_normal((50, 1))
    v = rng.standard_normal((30, 1))
    g = u @ v.T
    res = extract_basis(g, ExtractionConfig(tol=1e-300, blocksize=10, seed=14, trim_tol=0.0))
    assert res.q.shape[1] == min(50, 30)  # every sampled column kept
    l = res.q.shape[1]
    gram = res.q.conj().T @ res.q - np.eye(l)
    assert np.linalg.norm(gram) <= 1e-11 * math.sqrt(l)


def test_monotone_in_tolerance():
    g = gaussian_matrix(90, 45, seed=15)
    u, s, vt = np.linalg.svd(g, full_matrices=False)
    g = u @ np.diag(np.geomspace(1, 1e-13, 45)) @ vt
    finals = []
    for tol in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        res = extract_basis(g, ExtractionConfig(tol=tol, blocksize=5, seed=16))
        finals.append(residual_norm(g, res.q))
    assert all(b <= a + 1e-10 for a, b in zip(finals, finals[1:]))


def test_max_cols_exact_width():
    g = gaussian_matrix(60, 40, seed=17)
    res = extract_basis(
        g,
        ExtractionConfig(tol=1e-300, blocksize=15, seed=18, max_cols=15, trim_tol=0.0),
    )
    assert res.q.shape[1] == 15
    res2 = extract_basis(
        g,
        ExtractionConfig(tol=1e-300, blocksize=4, seed=18, max_cols=10, trim_tol=0.0),
    )
    assert res2.q.shape[1] == 10  # cap honored mid-loop with narrowed block


def test_max_cols_validation():
    g = gaussian_matrix(10, 5, seed=19)
    with pytest.raises(ValidationError):
        extract_basis(g, ExtractionConfig(max_cols=6))


def test_wide_matrix_saturates_at_row_count():
    g = gaussian_matrix(20, 60, seed=20)
    res = extract_basis(g, ExtractionConfig(tol=1e-300, blocksize=12, seed=21))
    assert res.q.shape[1] <= 20
    assert residual_norm(g, res.q) <= 1e-10 * frobenius_norm(g)


def test_same_seed_same_basis():
    g = gaussian_matrix(30, 18, seed=22)
    cfg = ExtractionConfig(tol=1e-6, blocksize=6, seed=23)
    r1 = extract_basis(g, cfg)
    r2 = extract_basis(g, cfg)
    assert (r1.q == r2.q).all()
    assert r1.residual_history == r2.residual_history


@pytest.mark.parametrize("field", ["real", "complex"])
def test_first_block_sketches_with_gaussian_matrix(field):
    # the sketch draws the same stream as gaussian_matrix for its seed
    n, b, seed = 30, 8, 12
    g = gaussian_matrix(60, n, seed=11, field=field)
    res = extract_basis(g, ExtractionConfig(blocksize=b, seed=seed, trim_tol=0))
    expected = reduced_qr(g @ gaussian_matrix(n, b, seed, field)).q
    assert np.array_equal(res.q[:, :b], expected)


def test_complex_field_extraction():
    g = gaussian_matrix(50, 25, seed=24, field="complex")
    res = extract_basis(g, ExtractionConfig(tol=1e-300, blocksize=10, seed=25))
    assert np.iscomplexobj(res.q)
    assert residual_norm(g, res.q) <= 1e-10 * frobenius_norm(g)
    l = res.q.shape[1]
    assert np.linalg.norm(res.q.conj().T @ res.q - np.eye(l)) <= 1e-11 * math.sqrt(l)


def test_config_validation():
    with pytest.raises(ValidationError):
        ExtractionConfig(tol=0.0)
    with pytest.raises(ValidationError):
        ExtractionConfig(blocksize=0)
    with pytest.raises(ValidationError):
        ExtractionConfig(trim_tol=-1e-3)
    with pytest.raises(ValidationError):
        ExtractionConfig(max_cols=0)


class TestResidualNorm:
    def test_exact_range_projection(self):
        g = gaussian_matrix(40, 10, seed=26)
        q, _ = np.linalg.qr(g)
        assert residual_norm(g, q) <= 1e-11 * frobenius_norm(g)

    def test_empty_basis(self):
        g = gaussian_matrix(6, 4, seed=27)
        assert residual_norm(g, np.zeros((6, 0))) == frobenius_norm(g)

    def test_dimension_mismatch(self):
        g = gaussian_matrix(6, 4, seed=28)
        with pytest.raises(DimensionError):
            residual_norm(g, np.zeros((5, 2)))


def test_result_type():
    g = gaussian_matrix(10, 4, seed=29)
    res = extract_basis(g, ExtractionConfig(tol=1e-8))
    assert isinstance(res, BasisResult)
    assert sum(res.block_widths) == res.q.shape[1]


@pytest.mark.parametrize("field", ["real", "complex"])
def test_compressed_rows_match_q_adjoint_g(field):
    # rank 30 sampled in blocks of 40, so trimming drops columns
    g = gaussian_matrix(200, 30, seed=30, field=field)
    g = g @ gaussian_matrix(30, 80, seed=31, field=field)
    res = extract_basis(g, ExtractionConfig(tol=1e-300, blocksize=40, seed=32))
    sampled = 40 * res.iterations
    assert res.q.shape[1] < sampled  # trimming was active
    assert res.b.shape == (res.q.shape[1], 80)
    ref = res.q.conj().T @ g
    assert np.linalg.norm(res.b - ref) <= 1e-13 * np.linalg.norm(ref)

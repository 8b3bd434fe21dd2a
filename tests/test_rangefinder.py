import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from _util import structured_pair
from hypothesis import given, settings
from hypothesis import strategies as st

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
from rgsv import core, rangefinder
from rgsv.core import reduced_qr, sum_sq


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


def _lowrank_tall_g1():
    """lowrank_tall's g1 (4000 x 400, 40 GSVs over a 1e-10 tail) at tol
    1e-6 ||G1||_F: its second block keeps 27 columns whose R diagonal
    spans 4e9."""
    alphas = np.concatenate([np.linspace(0.99, 0.5, 40), 1e-10 * np.geomspace(1.0, 1e-3, 360)])
    g = structured_pair(alphas, m=4000, p=400, seed=1)[0].g1
    return g, ExtractionConfig(tol=1e-6 * frobenius_norm(g), seed=1)


@pytest.mark.parametrize("case", ["lowrank_tall", "item1_real", "item1_complex"])
def test_basis_is_orthonormal_to_working_precision(case):
    # a panel keeps columns near the trim floor whose R diagonal spans 1e9
    # and more; with no projection after its QR Q loses orthogonality
    # (1.2e-6 on lowrank_tall, 1.6e-4 on the complex 120 x 100 case) and
    # ||G - QB||_F is no projection residual
    if case == "lowrank_tall":
        g, cfg = _lowrank_tall_g1()
    else:
        alphas = np.concatenate([np.linspace(0.99, 0.3, 40), np.full(20, 1e-9)])
        g = structured_pair(alphas, 120, 100, seed=110, field=case.split("_")[1])[0].g1
        cfg = ExtractionConfig(tol=10 * 1e-9 * frobenius_norm(g))
    res = extract_basis(g, cfg)
    k = res.q.shape[1]
    assert np.linalg.norm(res.q.conj().T @ res.q - np.eye(k)) <= 10 * k * np.finfo(float).eps
    assert residual_norm(g, res.q) <= 1e-9 * frobenius_norm(g)
    if case != "lowrank_tall":
        assert res.converged and res.block_widths == [32, 28]


def test_explicit_residual_adds_one_band_to_the_peak(monkeypatch):
    # the last entry ||G - QB||_F is taken by core.sum_sq in one reused
    # band of rows (at most 1 MiB) with its per-band partials: against the
    # same extraction with that difference stubbed, the peak rises by no
    # more (two bands when the product and the difference are formed apart)
    g, cfg = _lowrank_tall_g1()
    kernel, peaks = core.sum_sq, []

    def stub(a, minus=None, dtype=None):
        return kernel(a) if minus is None else 0.0

    for stubbed in (True, False):
        monkeypatch.setattr(core, "sum_sq", stub if stubbed else kernel)
        tracemalloc.start()
        try:
            res = extract_basis(g, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert res.residual_history[-1] > 0
    assert peaks[1] <= peaks[0] + 2**20 + 2**16


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


def test_untrimmed_sampling_stops_at_the_row_count():
    # 20 sampled columns span the range of a 20 x 60 matrix; sampling up to
    # n kept all 60 columns in a basis of 20 rows
    g = gaussian_matrix(20, 60, seed=20)
    res = extract_basis(g, ExtractionConfig(tol=1e-300, blocksize=12, seed=21, trim_tol=0.0))
    assert res.block_widths == [12, 8]
    assert residual_norm(g, res.q) <= 1e-10 * frobenius_norm(g)
    _assert_orthonormal(res.q)


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


@pytest.mark.parametrize("case", ["real", "complex", "trimmed", "trimmed_whole"])
def test_q_is_the_eager_join_of_the_kept_blocks(case, monkeypatch):
    # q is joined on first read, from the blocks the last explicit residual
    # read: bitwise their hstack, as an eager join at the end of extraction
    # formed it, and (m, 0) of g's dtype when every column was trimmed
    if case in ("real", "complex"):
        g = gaussian_matrix(200, 60, seed=140, field=case)
        cfg = ExtractionConfig(tol=1e-300, blocksize=20, seed=141)
    else:  # rank 5: the first block keeps 5 of its 32 columns, or none
        g = gaussian_matrix(200, 5, seed=142) @ gaussian_matrix(5, 60, seed=143)
        cfg = ExtractionConfig(seed=144, trim_tol=1e3 if case == "trimmed_whole" else 1e-12)
    seen, residual = [], rangefinder._residual

    def recording(a, blocks, rows):
        seen.append([qb.copy() for qb in blocks])
        return residual(a, blocks, rows)

    monkeypatch.setattr(rangefinder, "_residual", recording)
    res = extract_basis(g, cfg)
    want = np.hstack(seen[-1]) if seen[-1] else np.zeros((200, 0), g.dtype)
    if case == "trimmed":
        assert res.block_widths[0] == 5 and res.converged
    if case == "trimmed_whole":
        assert res.b.shape == (0, 60) and not res.converged
    q = res.q
    assert q.dtype == want.dtype and q.shape == want.shape == (200, res.b.shape[0])
    assert np.array_equal(q, want)
    assert res.q is q  # joined once


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


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_config_rejects_non_finite_tol(tol):
    # tol=inf would stop before the first block, with an empty basis
    with pytest.raises(ValidationError):
        ExtractionConfig(tol=tol)


@pytest.mark.parametrize("trim_tol", [math.nan, math.inf])
def test_config_rejects_non_finite_trim_tol(trim_tol):
    # either would trim every sampled column
    with pytest.raises(ValidationError):
        ExtractionConfig(trim_tol=trim_tol)


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

    @pytest.mark.parametrize("fields", [("real", "real"), ("complex", "complex"),
                                        ("real", "complex")])
    def test_any_memory_layout_and_field(self, fields):
        # the band buffer is row-major whatever the layout of g and q, and
        # complex when either is
        g = np.asfortranarray(gaussian_matrix(300, 40, seed=31, field=fields[0]))
        q = np.asfortranarray(reduced_qr(gaussian_matrix(300, 7, seed=32, field=fields[1])).q)
        want = np.linalg.norm(g - q @ (q.conj().T @ g))
        assert abs(residual_norm(g, q) - want) <= 1e-13 * want

    def test_forms_no_full_size_residual(self):
        # the residual is summed one band of rows at a time: no 4000 x 400
        # temporary (12.8 MB) beside g
        g = gaussian_matrix(4000, 400, seed=29)
        q = reduced_qr(gaussian_matrix(4000, 58, seed=30)).q
        tracemalloc.start()
        try:
            got = residual_norm(g, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < g.nbytes / 2
        want = np.linalg.norm(g - q @ (q.T @ g))
        assert abs(got - want) <= 1e-12 * want


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


def _side(m, n, s, seed, field="real"):
    """An m x n matrix with singular values s and random singular vectors."""
    u = reduced_qr(gaussian_matrix(m, s.size, seed=seed, field=field)).q
    v = reduced_qr(gaussian_matrix(n, s.size, seed=seed + 1, field=field)).q
    return (u * s) @ v.conj().T


def _flat_tail_matrix(tail):
    # 20 unit singular values over 280 equal tail values, 600 x 300
    return _side(600, 300, np.concatenate([np.ones(20), np.full(280, tail)]), 33)


@pytest.mark.parametrize("tail", [1e-8, 1e-9])
def test_residual_below_the_cancellation_floor_is_explicit(tail):
    # the default tol 1e-10 ||G||_F (4.47e-10) sits under the floor where
    # ||G||_F^2 - captured cancels; the cumulative estimate reported 0.0 and
    # converged while the explicit residual was ~3e-8
    g = _flat_tail_matrix(tail)
    res = extract_basis(g, ExtractionConfig(blocksize=10, seed=35))
    explicit = residual_norm(g, res.q)
    assert abs(res.residual_history[-1] - explicit) <= 1e-12 * frobenius_norm(g)
    assert res.converged and explicit <= 1e-10 * frobenius_norm(g)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_explicit_residual_below_the_floor_keeps_no_copy_of_g(field):
    # the estimate crosses the cancellation floor after the first block, so
    # that entry and the last are ||G - QB||_F over the basis of their
    # iteration, taken one band of rows at a time; a maintained G - QB held
    # a copy of G and put the peak at 1.87 g.nbytes
    g = _side(2000, 400, np.concatenate([np.linspace(1.0, 0.5, 30), np.full(20, 1e-8)]), 45, field)
    nrm = frobenius_norm(g)
    tracemalloc.start()
    try:
        res = extract_basis(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged and res.block_widths == [32, 18]
    assert res.residual_history[1] < 10 * math.sqrt(np.finfo(float).eps) * nrm  # below the floor
    assert peak < g.nbytes
    for entry, cols in zip(res.residual_history[1:], np.cumsum(res.block_widths)):
        assert abs(entry - residual_norm(g, res.q[:, :cols])) <= 1e-12 * nrm


def test_explicit_residual_is_taken_at_the_crossing_and_the_last_entry(monkeypatch):
    # the estimate crosses 10 sqrt(eps) ||G||_F after the first block and
    # reaches tol four blocks later; between the two it is anchored on the
    # explicit residual at the crossing, where each entry past the crossing
    # was explicit before
    g = _side(1200, 300, np.concatenate([np.ones(20), np.geomspace(1e-8, 1e-13, 280)]), 46)
    nrm, evaluated, residual = frobenius_norm(g), [], rangefinder._residual

    def recording(a, blocks, rows):
        evaluated.append(sum(qb.shape[1] for qb in blocks))
        return residual(a, blocks, rows)

    monkeypatch.setattr(rangefinder, "_residual", recording)
    res = extract_basis(g, ExtractionConfig(blocksize=40, seed=47))
    cols = np.cumsum(res.block_widths)
    assert res.converged and res.block_widths == [32, 40, 40, 40, 40]
    assert res.residual_history[1] < 10 * math.sqrt(np.finfo(float).eps) * nrm
    assert evaluated == [cols[0], cols[-1]]
    monkeypatch.undo()
    for entry, k in zip(res.residual_history[1:], cols):
        assert abs(entry - residual_norm(g, res.q[:, :k])) <= 1e-12 * nrm


def test_a_trim_that_keeps_no_column_reports_the_empty_basis():
    # trim_tol 2 drops every column of the first block: the residual of
    # the empty basis, ||G||_F, is its last entry and the loop stops there
    g = gaussian_matrix(50, 20, seed=48)
    res = extract_basis(g, ExtractionConfig(trim_tol=2.0, seed=49))
    assert res.block_widths == [0] and res.q.shape == (50, 0) and res.b.shape == (0, 20)
    assert res.residual_history == [frobenius_norm(g)] * 2
    assert not res.converged


@st.composite
def _extractions(draw):
    """A matrix of at most 600 x 300 whose leading singular values lie on
    [0.5, 1] and the rest on a flat tail at a drawn multiple of ||G||_F,
    on either side of the cancellation floor (1.5e-7 ||G||_F), and an
    ExtractionConfig."""
    m, n = draw(st.integers(40, 600)), draw(st.integers(40, 300))
    rank = min(m, n)
    head = draw(st.integers(1, 39))
    field = draw(st.sampled_from(["real", "complex"]))
    rel = draw(st.sampled_from([1e-6, 1e-8, 1e-9, 1e-12]))
    g = _side(m, n, _head_over_tail(head, rank - head, rel), draw(st.integers(0, 2**16)), field)
    tol = draw(st.sampled_from([None, 1e-6 * frobenius_norm(g)]))
    max_cols = draw(st.sampled_from([None, None, rank, draw(st.integers(1, rank))]))
    trim_tol = draw(st.sampled_from([1e-12, 1e-12, 0.0]))
    return g, ExtractionConfig(tol=tol, max_cols=max_cols, seed=draw(st.integers(0, 2**16)),
                               trim_tol=trim_tol)


def _head_over_tail(head, tail, rel):
    """``head`` singular values on [0.5, 1] over ``tail`` equal ones at
    ``rel`` times the head's Frobenius norm."""
    s = np.linspace(1.0, 0.5, head)
    return np.concatenate([s, np.full(tail, rel * np.linalg.norm(s))])


def _assert_orthonormal(q):
    k = q.shape[1]
    assert np.linalg.norm(q.conj().T @ q - np.eye(k)) <= 10 * k * np.finfo(float).eps


@settings(max_examples=30, deadline=None)
@given(_extractions())
def test_last_entry_is_the_explicit_residual(case):
    # whichever way the loop stops (tol, the trim floor, n sampled or
    # max_cols) and on either side of the floor, the last entry is
    # ||G - QB||_F, converged is read from it, b is Q^H G, and Q is
    # orthonormal to working precision; a max_cols of min(m, n) is no cap
    g, cfg = case
    res = extract_basis(g, cfg)
    nrm = frobenius_norm(g)
    assert abs(res.residual_history[-1] - residual_norm(g, res.q)) <= 1e-12 * nrm
    assert res.converged == (res.residual_history[-1] < cfg.tol_for(nrm))
    assert np.linalg.norm(res.b - res.q.conj().T @ g) <= 1e-12 * nrm
    _assert_orthonormal(res.q)
    if cfg.max_cols == min(g.shape):
        uncapped = extract_basis(g, dataclasses.replace(cfg, max_cols=None))
        assert np.array_equal(res.q, uncapped.q) and np.array_equal(res.b, uncapped.b)
        assert res.residual_history == uncapped.residual_history
        assert res.block_widths == uncapped.block_widths


@pytest.mark.parametrize("m, n, side_seed, head, rel, tol_rel, seed, widths", [
    (325, 67, 59430, 23, 1e-6, 1e-6, 13436, [32, 35]),
    (197, 73, 15382, 22, 1e-6, 1e-6, 34772, [32, 41]),
    (109, 220, 64994, 38, 1e-9, None, 42854, [32, 22, 55]),
])
def test_second_projection_keeps_the_basis_orthonormal(m, n, side_seed, head, rel, tol_rel,
                                                       seed, widths):
    # draws of _extractions on which a panel projected twice before its QR,
    # and QR'd again only when the span of its R diagonal passed 100, lost
    # 10.5 to 16.6 k eps; projected once on each side of the QR they lose
    # under 0.5 k eps
    g = _side(m, n, _head_over_tail(head, min(m, n) - head, rel), side_seed)
    tol = None if tol_rel is None else tol_rel * frobenius_norm(g)
    res = extract_basis(g, ExtractionConfig(tol=tol, seed=seed))
    assert res.converged and res.block_widths == widths
    _assert_orthonormal(res.q)


@pytest.mark.parametrize("case", ["lowrank_tall", "gaussian"])
def test_panel_is_factored_again_only_when_the_second_projection_moved_it(monkeypatch, case):
    # lowrank_tall's g1: the second projection moves its second block by
    # ||C||_F^2 = 8.5e-11, far above w eps, so that block takes two QRs;
    # the later blocks of a Gaussian matrix move by under 2e-27 and take one
    if case == "lowrank_tall":
        g, cfg = _lowrank_tall_g1()
    else:
        g, cfg = gaussian_matrix(300, 120, seed=2), ExtractionConfig(tol=1e-300, blocksize=25)
    widths = []

    def recording(m, **kwargs):
        widths.append(m.shape[1])
        return reduced_qr(m, **kwargs)

    monkeypatch.setattr(core, "reduced_qr", recording)
    res = extract_basis(g, cfg)
    assert widths == ([32, 27, 27] if case == "lowrank_tall" else [25, 25, 25, 25, 20])
    assert res.block_widths == widths[: len(res.block_widths)]


def test_tolerance_above_the_floor_keeps_the_cumulative_estimate():
    # at 1e-6 ||G||_F (67x the floor) every entry but the last is ||G||_F^2
    # minus the captured energy of the kept blocks; the last, which the
    # estimate put at 0.0, is explicit
    g = _flat_tail_matrix(1e-10)
    nrm = frobenius_norm(g)
    res = extract_basis(g, ExtractionConfig(tol=1e-6 * nrm, blocksize=10, seed=36))
    gf2 = sum_sq(g)
    parts, start = [], 0
    for width in res.block_widths[:-1]:
        parts.append(sum_sq(res.b[start:start + width]))
        start += width
        assert res.residual_history[len(parts)] == math.sqrt(max(gf2 - math.fsum(parts), 0.0))
    assert 0 < res.residual_history[-1] < 1e-7 * nrm  # below the floor
    assert abs(res.residual_history[-1] - residual_norm(g, res.q)) <= 1e-12 * nrm


def test_extraction_stops_at_the_trim_floor():
    # tol 1e-300 cannot be met; once the explicit residual of this rank-10
    # matrix is under trim_tol ||G||_F a further block would be trimmed
    # whole, so the loop stops there and reports itself unconverged
    g = gaussian_matrix(200, 10, seed=37) @ gaussian_matrix(10, 40, seed=38)
    res = extract_basis(g, ExtractionConfig(tol=1e-300, blocksize=10, seed=39))
    assert res.iterations == 1 and not res.converged
    nrm = frobenius_norm(g)
    assert res.residual_history[-1] < 1e-12 * nrm
    assert abs(res.residual_history[-1] - residual_norm(g, res.q)) <= 1e-14 * nrm


def test_block_widths_follow_the_residual(monkeypatch):
    # the first block is min(32, blocksize) wide; after a block kept whole
    # the next is min(blocksize, ceil((res^2 - tol^2) / smin(P^H G)^2) + 10)
    # criterion 10's spectrum: 40 values in [0.5, 1] above a 1e-10 tail
    g = _side(300, 120, np.concatenate([np.linspace(1.0, 0.5, 40), np.full(80, 1e-10)]), 41)
    draws, draw = [], core.gaussian_block

    def recording(rng, rows, cols, field="real"):
        draws.append(cols)
        return draw(rng, rows, cols, field)

    monkeypatch.setattr(core, "gaussian_block", recording)
    tol = 1e-6 * frobenius_norm(g)
    res = extract_basis(g, ExtractionConfig(tol=tol, blocksize=100, seed=40))
    assert res.converged and draws[0] == 32 and res.block_widths[0] == 32
    smin = np.linalg.svd(res.b[:32], compute_uv=False)[-1]
    need = math.ceil((res.residual_history[1] ** 2 - tol**2) / smin**2)
    assert draws[1] == min(100, need + 10) < 120 - 32
    assert sum(draws) < 100  # a fixed 100-column block would sample 100


def test_probe_stops_once_its_basis_would_not_fit():
    # a full-rank side predicts far more than the budget of 30 after its
    # first block; without probe the same cap is filled
    g = gaussian_matrix(300, 90, seed=43)
    cfg = ExtractionConfig(blocksize=10, seed=44, max_cols=30)
    probe = extract_basis(g, cfg, probe=True)
    assert probe.block_widths == [10] and not probe.converged
    assert extract_basis(g, cfg).block_widths == [10, 10, 10]
    with pytest.raises(ValidationError):
        extract_basis(g, ExtractionConfig(), probe=True)  # no budget

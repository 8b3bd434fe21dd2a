import math
import warnings

import numpy as np
import pytest
from _util import (allowance, capped_warning, explicit_run_budget, make_spectrum, random_pair,
                   structured_pair)

from rgsv import (
    DegenerateSpectrumError,
    DimensionError,
    ExtractionConfig,
    GmpPair,
    GsvOptions,
    ValidationError,
    compute_gsv,
    extract_basis,
    gaussian_matrix,
    frobenius_norm,
    perturbation_bound,
    projector_bound,
    quantity_error_bounds,
    residual_norm,
    run,
)

EPS = float(np.finfo(np.float64).eps)


def decaying_pair(n=100, m=220, p=180, seed=0, base=0.95, ratio=0.82):
    alphas = base * ratio ** np.arange(n)
    return structured_pair(alphas, m=m, p=p, seed=seed)


class TestProjectorBound:
    def test_zero_tail(self):
        # all alphas beyond k vanish -> zero bound on the first side
        spec = make_spectrum(
            [0.9, 0.8, 0.7] + [0.0] * 5,
            [math.sqrt(1 - 0.81), math.sqrt(1 - 0.64), math.sqrt(1 - 0.49)] + [1.0] * 5,
        )
        pair = random_pair(12, 14, 8, seed=1)
        assert projector_bound(pair, spec, k=3, oversample=2, which="first") == 0.0

    def test_prefactor_arithmetic(self):
        pair, truth = decaying_pair(n=30, m=60, p=50, seed=2)
        eta = pair.stack_norm2 ** 2
        tail = float(np.sum(truth.alphas[2:] ** 2))
        expected = eta * 3.0 * tail  # k/(oversample-1) + 1 = 2/1 + 1 = 3
        assert projector_bound(pair, truth, k=2, oversample=2) == pytest.approx(expected, rel=1e-12)

    def test_second_side_uses_smallest_betas(self):
        pair, truth = decaying_pair(n=30, m=60, p=50, seed=3)
        k = 4
        eta = pair.stack_norm2 ** 2
        tail = float(np.sum(np.sort(truth.betas)[: 30 - k] ** 2))
        expected = eta * (k / 2 + 1.0) * tail
        got = projector_bound(pair, truth, k=k, oversample=3, which="second")
        assert got == pytest.approx(expected, rel=1e-12)

    def test_parameter_validation(self):
        pair, truth = decaying_pair(n=20, m=40, p=30, seed=4)
        with pytest.raises(ValidationError):
            projector_bound(pair, truth, k=1, oversample=5)
        with pytest.raises(ValidationError):
            projector_bound(pair, truth, k=4, oversample=1)
        with pytest.raises(ValidationError):
            projector_bound(pair, truth, k=30, oversample=12)
        with pytest.raises(ValidationError):
            projector_bound(pair, truth, k=4, oversample=4, which="third")

    def test_monte_carlo_expectation(self):
        pair, truth = decaying_pair(seed=5)
        k, oversample = 10, 5
        bound = projector_bound(pair, truth, k, oversample)
        width = k + oversample
        sq = []
        for trial in range(50):
            cfg = ExtractionConfig(
                tol=1e-300, blocksize=width, seed=1000 + trial,
                max_cols=width, trim_tol=0.0,
            )
            res = extract_basis(pair.g1, cfg)
            assert res.q.shape[1] == width
            sq.append(residual_norm(pair.g1, res.q) ** 2)
        mean = float(np.mean(sq))
        assert mean <= bound, f"mean {mean:.3e} exceeds bound {bound:.3e}"


class TestPerturbationBound:
    def test_identical_pairs(self):
        pair = random_pair(15, 12, 9, seed=6)
        assert perturbation_bound(pair, pair) == 0.0

    def test_stacked_identity_scaling(self):
        n, p = 10, 6
        pair = GmpPair(np.eye(n), np.zeros((p, n)))
        delta = 1e-7
        e = gaussian_matrix(n + p, n, seed=7)
        e *= delta / np.linalg.norm(e)
        tilde = GmpPair(pair.g1 + e[:n], pair.g2 + e[n:])
        got = perturbation_bound(pair, tilde)
        assert abs(got - math.sqrt(2) * delta) <= 3 * delta**2

    def test_shape_mismatch(self):
        from rgsv import DimensionError

        p1 = random_pair(10, 8, 6, seed=8)
        p2 = random_pair(10, 9, 6, seed=9)
        with pytest.raises(DimensionError):
            perturbation_bound(p1, p2)

    def test_gsv_deviation_within_budget(self):
        # root-sum-square of all GSV deviations stays under the budget
        for seed in range(5):
            pair = random_pair(30, 26, 18, seed=10 + seed)
            scale = 1e-6 * np.linalg.norm(pair.stacked())
            e = gaussian_matrix(56, 18, seed=100 + seed)
            e *= scale / np.linalg.norm(e)
            tilde = GmpPair(pair.g1 + e[:30], pair.g2 + e[30:])
            budget = perturbation_bound(pair, tilde)
            s = compute_gsv(pair, GsvOptions(method="direct"))
            st = compute_gsv(tilde, GsvOptions(method="direct"))
            rss = math.sqrt(
                float(np.sum((s.alphas - st.alphas) ** 2 + (s.betas - st.betas) ** 2))
            )
            assert rss <= budget + 1e-12
            assert np.max(np.abs(s.alphas - st.alphas)) <= budget + 1e-12
            assert np.max(np.abs(s.betas - st.betas)) <= budget + 1e-12


def deviation(s1, s2):
    return max(float(np.max(np.abs(s1.alphas - s2.alphas))),
               float(np.max(np.abs(s1.betas - s2.betas))))


def assert_same_spectrum(got, want):
    assert np.array_equal(got.alphas, want.alphas) and np.array_equal(got.betas, want.betas)
    assert (got.r, got.s) == (want.r, want.s)


class TestProjectedPairBudget:
    """The certificate of a randomized solve, perturbation_bound(pair,
    run(pair, opts)), is the budget of its projected pair (Q1 B1, Q2 B2)
    read off the run's residuals and R factor; it must equal the budget
    computed from that pair with nothing reused."""

    @staticmethod
    def _case(case):
        tail = np.concatenate([np.linspace(0.99, 0.5, 20), np.full(10, 1e-10)])
        return {
            "real": (random_pair(60, 50, 30, seed=70), ExtractionConfig(seed=71)),
            "complex": (random_pair(60, 50, 30, seed=72, field="complex"),
                        ExtractionConfig(seed=73)),
            "wide": (random_pair(20, 50, 30, seed=77), ExtractionConfig(seed=78)),
            "capped": (random_pair(60, 50, 30, seed=70), ExtractionConfig(seed=71, max_cols=20)),
            # tol 1e-7 leaves the 1e-10 GSVs' residual (~8e-9) genuinely uncaptured
            "tail": (structured_pair(tail, 80, 70, seed=74)[0],
                     ExtractionConfig(tol=1e-7, seed=75, blocksize=10)),
            "tail_complex": (structured_pair(tail, 80, 70, seed=74, field="complex")[0],
                             ExtractionConfig(tol=1e-7, seed=75, blocksize=10)),
        }[case]

    @pytest.mark.parametrize("case", ["real", "complex", "capped", "tail", "tail_complex"])
    def test_matches_explicit_stacks(self, case):
        pair, cfg = self._case(case)
        opts = GsvOptions(extraction=cfg)
        want = explicit_run_budget(pair, opts)
        with capped_warning(case == "capped"):
            solve = run(pair, opts)
        got = perturbation_bound(pair, solve)
        # a residual is explicit to eps ||G||_F: taken as extraction keeps
        # its blocks, it need not round as G - Q (Q^H G) does
        slack = math.sqrt(2.0) * EPS * frobenius_norm(pair.stacked()) / solve.r_singular_values[-1]
        assert abs(got - want) <= 1e-10 * want + slack

    @pytest.mark.parametrize(
        "case", ["real", "complex", "wide", "capped", "tail", "tail_complex"]
    )
    def test_covers_the_returned_spectrum(self, case):
        pair, cfg = self._case(case)
        opts = GsvOptions(extraction=cfg)
        with capped_warning(case == "capped"):
            solve = run(pair, opts)
        budget = perturbation_bound(pair, solve)
        if case in ("real", "complex", "wide"):
            # exact low rank: the budget is at rounding level
            assert budget <= 1e-12
        spec = solve.spectrum
        with capped_warning(case == "capped"):
            assert_same_spectrum(spec, compute_gsv(pair, opts))
        centre = compute_gsv(pair, GsvOptions(method="direct"))
        rss = math.sqrt(float(np.sum((spec.alphas - centre.alphas) ** 2
                                     + (spec.betas - centre.betas) ** 2)))
        assert rss <= budget

    def test_direct_projection_is_the_pair(self):
        # nothing is compressed: the residuals are 0 and the budget is the
        # rounding allowance alone
        pair = random_pair(30, 25, 12, seed=76)
        solve = run(pair, GsvOptions(method="direct"))
        assert solve.residuals == (0.0, 0.0)
        assert perturbation_bound(pair, solve) == allowance(pair, solve)
        assert_same_spectrum(solve.spectrum, compute_gsv(pair, GsvOptions(method="direct")))

    def test_run_of_another_shape(self):
        pair = random_pair(30, 25, 12, seed=76)
        with pytest.raises(DimensionError):
            perturbation_bound(pair, run(random_pair(30, 25, 13, seed=76)))


def soundness_cases():
    """(pair, options) by name for the run certificate. The tails sit at
    1e-6, 1e-8 and 1e-9 of ||G1||_F (n = 60, 40 interior GSVs and 20 at the
    tail), both at the default tol with blocksize 10, where the tail is
    captured near the cancellation floor of the residual estimate, and at
    a tol above the tail, which leaves it as the residual."""
    cases = {}
    for t in (1e-6, 1e-8, 1e-9):
        alphas = np.concatenate([np.linspace(0.99, 0.3, 40), np.full(20, t)])
        for field in ("real", "complex"):
            pair = structured_pair(alphas, 120, 100, seed=110, field=field)[0]
            cases[f"tail{t:.0e}-{field}-default_tol"] = (pair, ExtractionConfig(seed=111, blocksize=10))
            tol = 10 * t * frobenius_norm(pair.g1)
            cases[f"tail{t:.0e}-{field}-above_tail"] = (pair, ExtractionConfig(tol=tol, seed=112))
    # tall, rows >= 4n: a rank-8 g1 with a 1e-8 tail fits its probe and is
    # sketched; g2 must then keep >= 22 >= ceil(30/3) rows, so it goes exact
    tall = np.concatenate([np.linspace(0.95, 0.5, 8), np.full(22, 1e-8)])
    for field in ("real", "complex"):
        pair = structured_pair(tall, 150, 130, seed=113, field=field)[0]
        cases[f"tall_one_exact-{field}"] = (
            pair, ExtractionConfig(tol=1e-7 * frobenius_norm(pair.g1), seed=114))
    square = np.concatenate([np.linspace(0.99, 0.2, 50), np.full(10, 1e-7)])
    pair = structured_pair(square, 60, 60, seed=115)[0]
    cases["square_both_sketched"] = (pair, ExtractionConfig(tol=1e-6 * frobenius_norm(pair.g1),
                                                            seed=116))
    cases["both_exact"] = (random_pair(150, 130, 30, seed=117), ExtractionConfig(seed=118))
    cases["direct"] = (random_pair(60, 50, 30, seed=119), "direct")
    for cap in (25, 40, 49):
        cases[f"capped{cap}"] = (random_pair(100, 100, 50, seed=40),
                                 ExtractionConfig(seed=0, max_cols=cap))
    return cases


class TestRunCertificate:
    """perturbation_bound(pair, run(pair, opts)) bounds the deviation of
    the spectrum the run returns, which is bitwise compute_gsv's, from the
    direct solve; a certificate over 0.5 is flagged vacuous."""

    @pytest.mark.parametrize("case", list(soundness_cases()))
    def test_sound(self, case):
        pair, cfg = soundness_cases()[case]
        opts = GsvOptions(method="direct") if cfg == "direct" else GsvOptions(extraction=cfg)
        with capped_warning(case.startswith("capped")):
            solve = run(pair, opts)
        e = perturbation_bound(pair, solve)
        direct = compute_gsv(pair, GsvOptions(method="direct"))
        assert deviation(solve.spectrum, direct) <= e
        assert quantity_error_bounds(solve.spectrum, e).vacuous == (e > 0.5)
        with capped_warning(case.startswith("capped")):
            assert_same_spectrum(solve.spectrum, compute_gsv(pair, opts))
        if case.startswith("tall_one_exact"):
            assert solve.residuals[0] > 0.0 and solve.residuals[1] == 0.0
        if case in ("both_exact", "direct"):
            assert solve.residuals == (0.0, 0.0) and e == allowance(pair, solve)
        if case == "square_both_sketched":
            assert min(solve.residuals) > 0.0
        if case.startswith("capped"):  # a capped spectrum is never certified clean
            assert e > 0.5


class TestQuantityErrorBounds:
    def test_zero_budget_zero_bounds(self):
        spec = make_spectrum([0.8, 0.3], [0.6, math.sqrt(1 - 0.09)])
        cert = quantity_error_bounds(spec, 0.0)
        assert cert.theta_bound == 0.0
        assert np.all(cert.p1_bounds == 0.0)
        assert np.all(cert.p2_bounds == 0.0)
        assert cert.d1_bound == 0.0 and cert.d2_bound == 0.0
        assert not cert.vacuous

    @pytest.mark.parametrize("zero_side", [0, 1])
    def test_a_zero_energy_is_rejected_before_any_division(self, zero_side):
        # all alphas (or all betas) zero: the p-bounds would divide by a
        # zero energy, so the degeneracy must raise before any numpy warning
        zeros, ones = [0.0] * 3, [1.0] * 3
        spec = make_spectrum(*((zeros, ones) if zero_side == 0 else (ones, zeros)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSpectrumError):
                quantity_error_bounds(spec, 1e-3)

    @pytest.mark.parametrize("e_script", [math.nan, np.float64("nan"), np.array(math.nan)])
    def test_rejects_nan_budget(self, e_script):
        with pytest.raises(ValidationError):
            quantity_error_bounds(make_spectrum([0.8, 0.3], [0.6, math.sqrt(1 - 0.09)]), e_script)

    def test_uniform_spectrum_entropy_bound_vanishes(self):
        sq2 = math.sqrt(2) / 2
        spec = make_spectrum([sq2] * 6, [sq2] * 6)
        cert = quantity_error_bounds(spec, 1e-3)
        # each term is phi/sum * (log(1/n)/log(n) + 1) = 0 to first order
        assert cert.d1_bound <= 1e-12
        assert cert.d2_bound <= 1e-12

    def test_monotone_in_budget(self):
        pair = random_pair(20, 18, 12, seed=20)
        spec = compute_gsv(pair, GsvOptions(method="direct"))
        c1 = quantity_error_bounds(spec, 1e-6)
        c2 = quantity_error_bounds(spec, 2e-6)
        assert c2.theta_bound >= c1.theta_bound
        assert np.all(c2.p1_bounds <= 2 * c1.p1_bounds + 1e-30)
        assert c2.d1_bound <= 2 * c1.d1_bound + 1e-30
        assert c2.d2_bound <= 2 * c1.d2_bound + 1e-30

    def test_vacuous_saturation(self):
        cert = quantity_error_bounds(make_spectrum([0.6, 0.6], [0.8, 0.8]), 0.75)
        assert cert.theta_bound == math.pi / 2
        assert cert.vacuous

    def test_eta_passthrough(self):
        spec = make_spectrum([0.6, 0.6], [0.8, 0.8])
        assert quantity_error_bounds(spec, 1e-3).eta is None
        assert quantity_error_bounds(spec, 1e-3, eta=2.5).eta == 2.5

    def test_observed_deviations_within_first_order_bounds(self):
        from rgsv import angular_distances, eigenexpression_fractions, shannon_entropy

        for seed in range(3):
            pair = random_pair(28, 24, 14, seed=30 + seed)
            scale = 1e-6 * np.linalg.norm(pair.stacked())
            e = gaussian_matrix(52, 14, seed=200 + seed)
            e *= scale / np.linalg.norm(e)
            tilde = GmpPair(pair.g1 + e[:28], pair.g2 + e[28:])
            budget = perturbation_bound(pair, tilde)
            s = compute_gsv(pair, GsvOptions(method="direct"))
            st = compute_gsv(tilde, GsvOptions(method="direct"))
            cert = quantity_error_bounds(s, budget)

            dtheta = np.abs(angular_distances(s) - angular_distances(st))
            assert np.max(dtheta) <= cert.theta_bound
            p1, p2 = eigenexpression_fractions(s)
            q1, q2 = eigenexpression_fractions(st)
            assert np.all(np.abs(p1 - q1) <= cert.p1_bounds * 1.1)
            assert np.all(np.abs(p2 - q2) <= cert.p2_bounds * 1.1)
            assert abs(shannon_entropy(p1) - shannon_entropy(q1)) <= cert.d1_bound * 1.1
            assert abs(shannon_entropy(p2) - shannon_entropy(q2)) <= cert.d2_bound * 1.1

    def test_budget_validation(self):
        spec = make_spectrum([0.6, 0.6], [0.8, 0.8])
        with pytest.raises(ValidationError):
            quantity_error_bounds(spec, -1e-3)

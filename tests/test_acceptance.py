"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the reported ratios.
"""

import math
import statistics
import time

import numpy as np
from _util import structured_pair

import rgsv
from rgsv import (
    ExtractionConfig,
    GmpPair,
    GsvOptions,
    angular_distances,
    compute_gsv,
    eigenexpression_fractions,
    extract_basis,
    frobenius_norm,
    gaussian_matrix,
    perturbation_bound,
    projector_bound,
    quantity_error_bounds,
    read_matrix,
    residual_norm,
    shannon_entropy,
    synth_gmp,
    write_matrix,
)


def _verdict(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_01_spectrum_accuracy_and_runtime():
    res = synth_gmp(rgsv.SynthSpec(m=801, p=400, n=400, rank_frac=0.6, seed=20250810))
    opts = GsvOptions(extraction=ExtractionConfig(tol=1e-12, seed=1))
    t0 = time.perf_counter()
    spec = compute_gsv(res.pair, opts)
    elapsed = time.perf_counter() - t0
    e1 = float(np.linalg.norm(spec.alphas - res.true_spectrum.alphas))
    e2 = float(np.linalg.norm(spec.betas - res.true_spectrum.betas))
    _verdict(
        "1 spectrum accuracy (801,400,400)",
        e1 <= 1e-8 and e2 <= 1e-8 and elapsed <= 10.0,
        f"err1 {e1:.2e}, err2 {e2:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_oracle_equivalence_mixed_shapes():
    shapes = []
    for n in (100, 200, 400):
        shapes.append((n + 100, n + 5, n))   # taller than n on both sides
        shapes.append((n + 100, n - 5, n))   # p below n
        if n > 100:                          # m = n-100 degenerates at n=100
            shapes.append((n - 100, n - 5, n))
    # fill to 20 pairs with other m >< n, p >< n mixes
    shapes += [
        (50, 180, 120), (260, 90, 120), (80, 80, 100), (300, 50, 60),
        (40, 200, 150), (500, 120, 100), (90, 95, 120), (130, 60, 80),
        (75, 75, 75), (64, 300, 128), (160, 40, 90), (33, 77, 55),
    ]
    assert len(shapes) == 20
    worst = 0.0
    for i, (m, p, n) in enumerate(shapes):
        field = "complex" if i % 3 == 0 else "real"
        pair = GmpPair(
            gaussian_matrix(m, n, 1000 + i, field),
            gaussian_matrix(p, n, 2000 + i, field),
        )
        direct = compute_gsv(pair, GsvOptions(method="direct"))
        rand = compute_gsv(
            pair, GsvOptions(extraction=ExtractionConfig(tol=1e-12, seed=i))
        )
        gap = max(
            float(np.max(np.abs(direct.alphas - rand.alphas))),
            float(np.max(np.abs(direct.betas - rand.betas))),
        )
        worst = max(worst, gap)
    _verdict(
        "2 oracle equivalence over 20 mixed-shape pairs",
        worst <= 1e-8,
        f"worst elementwise gap {worst:.2e}",
    )


def test_criterion_03_pythagorean_identity_property():
    rng = np.random.default_rng(77)
    worst = 0.0
    cases = 0
    for trial in range(110):
        n = int(rng.integers(3, 36))
        m = int(rng.integers(2, 60))
        p = max(int(rng.integers(2, 60)), n - m + 1)  # keep m + p >= n
        field = "complex" if trial % 4 == 0 else "real"
        g1 = gaussian_matrix(m, n, int(rng.integers(0, 2**31)), field)
        g2 = gaussian_matrix(p, n, int(rng.integers(0, 2**31)), field)
        try:
            pair = GmpPair(g1, g2)
        except rgsv.RankDeficiencyError:
            continue
        method = "direct" if trial % 2 else "randomized"
        spec = compute_gsv(pair, GsvOptions(method=method))
        worst = max(worst, float(np.max(np.abs(spec.alphas**2 + spec.betas**2 - 1.0))))
        cases += 1
    _verdict(
        "3 pythagorean identity on every emitted spectrum",
        cases >= 100 and worst <= 1e-12,
        f"{cases} spectra, max |a^2+b^2-1| = {worst:.2e}",
    )


def test_criterion_04_full_saturation_exactness():
    sizes = [50, 100, 150, 200, 250, 300, 350, 400, 450, 500]
    worst = 0.0
    for i, n in enumerate(sizes):
        g = gaussian_matrix(n, n, 300 + i)
        res = extract_basis(g, ExtractionConfig(tol=1e-300, blocksize=64, seed=400 + i))
        rel = residual_norm(g, res.q) / frobenius_norm(g)
        worst = max(worst, rel)
    _verdict(
        "4 full-saturation extraction exactness (10 squares to 500x500)",
        worst <= 1e-10,
        f"worst relative residual {worst:.2e}",
    )


def test_criterion_05_sketch_expectation_bound():
    alphas = 0.95 * 0.82 ** np.arange(100)
    pair, truth = structured_pair(alphas, m=220, p=180, seed=55)
    details = []
    ok = True
    for k, oversample in ((10, 5), (20, 10)):
        bound = projector_bound(pair, truth, k, oversample, which="first")
        width = k + oversample
        sq = []
        for trial in range(50):
            cfg = ExtractionConfig(
                tol=1e-300, blocksize=width, seed=5000 + trial,
                max_cols=width, trim_tol=0.0,
            )
            res = extract_basis(pair.g1, cfg)
            sq.append(residual_norm(pair.g1, res.q) ** 2)
        mean = float(np.mean(sq))
        ratio = mean / bound
        details.append(f"(k={k},p={oversample}) ratio {ratio:.3e}")
        ok = ok and mean <= bound
    _verdict("5 sketch expectation bound, 50-trial means", ok, "; ".join(details))


def _perturbation_cases():
    cases = []
    for i in range(20):
        m, p, n = 30 + i, 26 + (i * 3) % 11, 18
        pair = GmpPair(
            gaussian_matrix(m, n, 7000 + i), gaussian_matrix(p, n, 8000 + i)
        )
        scale = 1e-6 * frobenius_norm(pair.stacked())
        e = gaussian_matrix(m + p, n, 9000 + i)
        e *= scale / frobenius_norm(e)
        tilde = GmpPair(pair.g1 + e[:m], pair.g2 + e[m:])
        cases.append((pair, tilde))
    return cases


def test_criterion_06_gsv_perturbation_bounds():
    worst_rss = worst_max = 0.0
    ok = True
    for pair, tilde in _perturbation_cases():
        budget = perturbation_bound(pair, tilde)
        s = compute_gsv(pair, GsvOptions(method="direct"))
        st = compute_gsv(tilde, GsvOptions(method="direct"))
        rss = math.sqrt(
            float(np.sum((s.alphas - st.alphas) ** 2 + (s.betas - st.betas) ** 2))
        )
        mx = max(
            float(np.max(np.abs(s.alphas - st.alphas))),
            float(np.max(np.abs(s.betas - st.betas))),
        )
        ok = ok and rss <= budget + 1e-12 and mx <= budget + 1e-12
        worst_rss = max(worst_rss, rss / budget)
        worst_max = max(worst_max, mx / budget)
    _verdict(
        "6 GSV deviation within perturbation budget (20 pairs)",
        ok,
        f"worst rss/budget {worst_rss:.3f}, worst max/budget {worst_max:.3f}",
    )


def test_criterion_07_quantity_deviation_bounds():
    ok = True
    worst = 0.0
    for pair, tilde in _perturbation_cases():
        budget = perturbation_bound(pair, tilde)
        s = compute_gsv(pair, GsvOptions(method="direct"))
        st = compute_gsv(tilde, GsvOptions(method="direct"))
        cert = quantity_error_bounds(s, budget)

        dtheta = float(np.max(np.abs(angular_distances(s) - angular_distances(st))))
        ok = ok and dtheta <= cert.theta_bound
        worst = max(worst, dtheta / cert.theta_bound)

        p1, p2 = eigenexpression_fractions(s)
        q1, q2 = eigenexpression_fractions(st)
        ok = ok and bool(np.all(np.abs(p1 - q1) <= cert.p1_bounds * 1.1))
        ok = ok and bool(np.all(np.abs(p2 - q2) <= cert.p2_bounds * 1.1))
        ok = ok and abs(shannon_entropy(p1) - shannon_entropy(q1)) <= cert.d1_bound * 1.1
        ok = ok and abs(shannon_entropy(p2) - shannon_entropy(q2)) <= cert.d2_bound * 1.1
    _verdict(
        "7 comparative-quantity deviations within first-order bounds",
        ok,
        f"worst theta-deviation/bound {worst:.3f}",
    )


def test_criterion_08_residual_to_error_monotonicity():
    n = 150
    alphas = 0.98 * np.geomspace(1.0, 1e-13, n)
    pair, truth = structured_pair(alphas, m=260, p=220, seed=42)
    scale = 1.0 / frobenius_norm(pair.stacked())
    pair = GmpPair(scale * pair.g1, scale * pair.g2)
    errs = []
    for tol in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        opts = GsvOptions(extraction=ExtractionConfig(tol=tol, blocksize=10, seed=5))
        s = compute_gsv(pair, opts)
        errs.append(
            float(np.linalg.norm(s.alphas - truth.alphas))
            + float(np.linalg.norm(s.betas - truth.betas))
        )
    ok = all(b <= 1.1 * a for a, b in zip(errs, errs[1:]))
    _verdict(
        "8 GSV error nonincreasing across the tolerance sweep",
        ok,
        "errors " + " -> ".join(f"{e:.1e}" for e in errs),
    )


def test_criterion_09_closed_form_quantities():
    sq2 = math.sqrt(2) / 2
    checks = []
    pair = GmpPair(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    rep = rgsv.compare(pair, GsvOptions(method="direct"))
    checks.append(abs(rep.theta[0] - math.pi / 4))
    checks.append(abs(rep.theta[1] + math.pi / 4))
    checks.append(abs(rep.d1))
    checks.append(abs(rep.d2))

    from _util import make_spectrum

    balanced = make_spectrum([sq2, sq2], [sq2, sq2])
    checks.append(float(np.max(np.abs(angular_distances(balanced)))))

    checks.append(abs(shannon_entropy([1.0, 0.0, 0.0, 0.0]) - 0.0))
    checks.append(abs(shannon_entropy(np.full(7, 1.0 / 7)) - 1.0))
    checks.append(abs(shannon_entropy([0.5, 0.5, 0.0, 0.0]) - 0.5))
    worst = max(checks)
    _verdict(
        "9 closed-form comparative values reproduce exactly",
        worst <= 1e-12,
        f"worst deviation {worst:.2e}",
    )


def test_criterion_10_runtime_ordering(tmp_path):
    n = 400
    alphas = np.concatenate(
        [np.linspace(0.99, 0.5, 40), 1e-10 * np.geomspace(1.0, 1e-3, n - 40)]
    )
    pair, _ = structured_pair(alphas, m=4000, p=4000, seed=7)
    g1_path = tmp_path / "g1.mtx"
    g2_path = tmp_path / "g2.mtx"
    write_matrix(g1_path, pair.g1)
    write_matrix(g2_path, pair.g2)
    pair = GmpPair(read_matrix(g1_path), read_matrix(g2_path))
    tol = 1e-6 * frobenius_norm(pair.g1)

    def median_seconds(method):
        seconds = []
        for rep in range(5):
            # randomized repetition k draws its sketches from seed 100 + k
            ext = ExtractionConfig(tol=tol, seed=100 + rep)
            opts = GsvOptions(extraction=ext, method=method)
            t0 = time.perf_counter()
            compute_gsv(pair, opts)
            seconds.append(time.perf_counter() - t0)
        return statistics.median(seconds)

    med = {method: median_seconds(method) for method in ("direct", "randomized")}
    _verdict(
        "10 randomized strictly faster on low-rank tall pair",
        med["randomized"] < med["direct"],
        f"median randomized {med['randomized']:.3f}s vs direct {med['direct']:.3f}s",
    )

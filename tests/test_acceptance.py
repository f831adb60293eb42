"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here and in bpbmod.verify; expected values marked as
derived were computed with the independent oracles (grid searches, linear
programs, exhaustive enumeration) that live in bpbmod.verify and in this file.
"""

import math

import numpy as np

from bpbmod import (EstimatorConfig, Lp, ModulusQuery, Sum1, SumInf, bpb_corrector,
                    distance_to_pi, estimate_phi, estimate_phi_mut,
                    hilbert_modulus, is_in_pi, k_eta_auxiliaries, pair_state,
                    phi_lower_bound, phi_upper_bound, psi, real_line_distance)
from bpbmod.verify import (alpha_suite, hilbert_suite, nonsquare_suite,
                           real_line_oracle, sharpness_suite, standard_test_spaces)
from bpbmod.witnesses import sum1_witness, suminf_witness

R1 = Lp(2.0, 1)


def report(num, name, failures=()):
    failures = list(failures)
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name}: {status}")
    for f in failures:
        print(f"  - {f}")
    assert not failures, f"criterion {num} failed: {failures[:5]}"


def suite_failures(results):
    return [f"{r.name}: measured={r.measured:.3e} bound={r.bound:.3e}"
            for r in results if not r.passed]


def test_criterion_01_psi_algebra():
    rng = np.random.default_rng(20240801)
    failures = []
    n = 10_000
    mus = rng.uniform(0.0, 1.0, n)
    thetas = rng.uniform(0.0, 1.0, n)
    for i in range(n):
        mu, theta = float(mus[i]), float(thetas[i])
        lo = max(0.0, 1.0 - mu * theta)
        span = 2.0 - lo
        d1 = lo + float(rng.uniform(1e-9, span))
        d2 = lo + float(rng.uniform(1e-9, span))
        d1, d2 = min(d1, d2), max(d1, d2)
        if min(d1, d2) >= 2.0:
            continue
        q1, q2 = ModulusQuery(mu, theta, d1), ModulusQuery(mu, theta, d2)
        v1, v2 = psi(q1), psi(q2)
        if v2 < v1 - 1e-12:
            failures.append(f"monotonicity at {(mu, theta, d1, d2)}")
        if v2 != psi(ModulusQuery(theta, mu, d2)):
            failures.append(f"symmetry at {(mu, theta, d2)}")
        if mu < 0.999:
            v = psi(ModulusQuery(mu, theta, 1.0 + mu * mu))
            if abs(v - (1.0 + mu)) > 1e-12:
                failures.append(f"boundary identity at {(mu, theta)}")
        v = psi(ModulusQuery(1.0, 1.0, d2))
        if abs(v - math.sqrt(2.0 * d2)) > 1e-12:
            failures.append(f"sqrt(2 delta) at {d2}")
        if theta > 1e-6 and d1 < min(1.0 + mu ** 2, 1.0 + theta ** 2):
            k, eta = k_eta_auxiliaries(q1)
            if abs(eta / k + 1.0 - mu - v1) > 1e-10:
                failures.append(f"eta/k identity at {(mu, theta, d1)}")
            if abs(2.0 * k * theta + 1.0 - theta - v1) > 1e-10:
                failures.append(f"2k theta identity at {(mu, theta, d1)}")
        if failures:
            break
    report(1, "psi algebra (10^4 random valid queries)", failures)


def test_criterion_02_linf2_sharpness():
    results = sharpness_suite(resolution=2000, mut_resolution=512)
    report(2, "max-norm plane sharpness matrix", suite_failures(results))


def test_criterion_03_hilbert_closed_form():
    results = hilbert_suite(resolution=4000)
    report(3, "euclidean distance formula vs circle oracle", suite_failures(results))


def test_criterion_04_hilbert_modulus():
    space = Lp(2.0, 2)
    cfg = EstimatorConfig(resolution=512)
    failures = []
    for mu, theta, delta in [(1, 1, 0.2), (1, 0.5, 0.45), (1, 1, 0.4)]:
        q = ModulusQuery(mu, theta, delta)
        closed = hilbert_modulus(q)
        est = estimate_phi_mut(space, q, cfg)
        if abs(est.value - closed) > 1e-2:
            failures.append(f"{(mu, theta, delta)}: estimate {est.value:.6f} "
                            f"vs closed form {closed:.6f}")
    anchor = hilbert_modulus(ModulusQuery(1, 1, 0.2))
    if abs(anchor - 0.3203) > 1e-3:
        failures.append(f"anchor value {anchor:.7f} not within 1e-3 of 0.3203")
    report(4, "euclidean modulus closed form vs grid estimate", failures)


def test_criterion_05_universal_and_lower_bounds():
    cfg = EstimatorConfig(resolution=160)
    deltas = [round(0.1 * k, 10) for k in range(1, 20)]
    norm_pairs = [(1.0, 1.0), (0.8, 0.6), (0.6, 1.0)]
    failures = []
    for name, space in standard_test_spaces().items():
        for delta in deltas:
            est = estimate_phi(space, delta, "sphere", cfg, refine_rounds=0)
            if est.value > math.sqrt(2.0 * delta) + 1e-2:
                failures.append(f"{name} sphere delta={delta}: {est.value:.4f} "
                                f"> sqrt(2 delta) + 1e-2")
            for mu, theta in norm_pairs:
                q = ModulusQuery(mu, theta, delta)
                if not q.regime_psi:
                    continue
                est = estimate_phi_mut(space, q, cfg, refine_rounds=0)
                upper = phi_upper_bound(q) + 1e-2
                lower = phi_lower_bound(q).value - 1e-2
                if not (lower <= est.value <= upper):
                    failures.append(
                        f"{name} {(mu, theta, delta)}: {est.value:.4f} "
                        f"outside [{lower:.4f}, {upper:.4f}]")
    report(5, "universal and lower bounds across test spaces", failures)


def test_criterion_06_nonsquareness():
    results = alpha_suite(resolution=400)
    report(6, "non-squareness parameters and convexity ceiling",
           suite_failures(results))


def test_criterion_07_nonsquare_modulus_bound():
    results = nonsquare_suite(resolution=400)
    report(7, "non-square spherical modulus bound", suite_failures(results))


def test_criterion_08_corrector():
    space = Lp(2.0, 2)
    cfg = EstimatorConfig(resolution=400)
    rng = np.random.default_rng(20240808)
    alpha_tilde = 0.58
    failures = []
    for trial in range(50):
        delta = float(rng.uniform(0.05, 1.9))
        k = float(rng.uniform(0.05, 0.5))
        phi0 = float(rng.uniform(0.0, 2.0 * math.pi))
        beta = 0.999 * float(rng.uniform(0.0, 1.0)) * math.acos(max(-1.0, 1.0 - delta))
        x = np.array([math.cos(phi0), math.sin(phi0)])
        f = np.array([math.cos(phi0 + beta), math.sin(phi0 + beta)])
        p = pair_state(space, x, f)
        try:
            res = bpb_corrector(space, p, delta, k, alpha_tilde, cfg)
        except Exception as exc:  # zero search failures allowed
            failures.append(f"trial {trial}: {type(exc).__name__}: {exc}")
            continue
        b1 = delta / k
        b2 = 2.0 * k - (2.0 / 3.0) * k * alpha_tilde
        w = res.witness
        if not is_in_pi(pair_state(space, w.y, w.g)):
            failures.append(f"trial {trial}: witness not attaining")
        if space.norm(p.x - w.y) > b1 + 1e-9:
            failures.append(f"trial {trial}: point bound violated")
        if space.dual_norm(p.f - w.g) > b2 + 1e-9:
            failures.append(f"trial {trial}: functional bound violated")
    report(8, "corrector meets both bounds on 50 seeded instances", failures)


def test_criterion_09_direct_sum_witnesses():
    cfg = EstimatorConfig(resolution=2000)
    q = ModulusQuery(0.9, 0.9, 0.4)
    failures = []
    expected = psi(q)
    pair, predicted = sum1_witness(R1, R1, q)
    w = distance_to_pi(Sum1(R1, R1), pair, cfg)
    if abs(w.distance - expected) > 5e-3 or abs(predicted - expected) > 1e-12:
        failures.append(f"sum1 distance {w.distance:.6f} vs psi {expected:.6f}")
    pair, predicted = suminf_witness(R1, R1, q)
    w = distance_to_pi(SumInf(R1, R1), pair, cfg)
    if abs(w.distance - expected) > 5e-3 or abs(predicted - expected) > 1e-12:
        failures.append(f"suminf distance {w.distance:.6f} vs psi {expected:.6f}")
    report(9, "direct-sum witnesses attain psi", failures)


def test_criterion_10_real_line():
    grid = np.linspace(-1.0, 1.0, 201)
    failures = []
    for x in grid:
        for f in grid:
            d = real_line_distance(float(x), float(f))
            if d != real_line_oracle(float(x), float(f)):
                failures.append(f"enumeration mismatch at {(x, f)}")
                break
        if failures:
            break
    for delta in (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 1.999):
        for x in grid:
            for f in grid:
                if x * f > 1.0 - delta:
                    bound = (1.0 - min(abs(x), abs(f)) if delta <= 1.0
                             else 1.0 + min(abs(x), abs(f)))
                    if real_line_distance(float(x), float(f)) > bound + 1e-15:
                        failures.append(f"bound violated at {(x, f, delta)}")
                        break
            if failures:
                break
        if failures:
            break
    report(10, "real-line distance equals enumeration with piecewise bound",
           failures)

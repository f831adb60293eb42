import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bpbmod import (HilbertPair, ModulusQuery, RegimeError, hilbert_distance,
                    hilbert_modulus, k_eta_auxiliaries, nonsquare_phi_bound,
                    phi_lower_bound, phi_upper_bound, psi, real_line_distance)
from bpbmod.verify import circle_minimax_oracle, real_line_oracle, run_suite

RNG = np.random.default_rng(20240810)


def q(mu, theta, delta):
    return ModulusQuery(mu, theta, delta)


# ---------------------------------------------------------------------------
# psi and the general bounds


def test_psi_values():
    assert psi(q(1, 1, 0.5)) == pytest.approx(1.0, abs=1e-15)
    assert psi(q(0.5, 0.8, 1.25)) == pytest.approx(1.5, abs=1e-12)
    # direct evaluation: (1 + sqrt(0.4)) / 2
    assert psi(q(0.5, 0.5, 0.8)) == pytest.approx((1 + math.sqrt(0.4)) / 2, abs=1e-15)
    assert psi(q(0.5, 0.5, 0.8)) == pytest.approx(0.8162277660, abs=1e-9)


def test_psi_regime_violation():
    with pytest.raises(RegimeError):
        psi(q(0.1, 0.1, 0.2))


def test_phi_upper_bound_values():
    assert phi_upper_bound(q(1, 0.5, 1.5)) == pytest.approx(1.5, abs=1e-12)
    assert phi_upper_bound(q(1, 1, 0.5)) == pytest.approx(1.0, abs=1e-15)
    assert phi_upper_bound(q(0.5, 1, 1.25)) == pytest.approx(1.5, abs=1e-12)


def test_phi_lower_bound_values():
    lb = phi_lower_bound(q(0.5, 0.8, 0.6))  # mu*theta = 0.4 = 1 - delta
    assert lb.value == pytest.approx(1.0 - min(0.5, 0.8), abs=1e-15)
    assert lb.exact
    lb = phi_lower_bound(q(1, 1, 0.7))
    assert lb.value == 0.0 and not lb.exact
    lb = phi_lower_bound(q(0, 0.7, 1.0))  # mu*theta = 0 = 1 - delta
    assert lb.value == pytest.approx(1.0 - min(0.0, 0.7), abs=1e-15)
    assert lb.exact


def test_k_eta_values():
    k, eta = k_eta_auxiliaries(q(1, 1, 0.5))
    assert (k, eta) == (pytest.approx(0.5, abs=1e-15), pytest.approx(0.5, abs=1e-15))
    # sqrt(0.09 + 1.6) = 1.3 exactly, so k = (0.3 + 1.3) / 3.2 = 0.5
    k, eta = k_eta_auxiliaries(q(0.5, 0.8, 0.8))
    assert k == pytest.approx(0.5, abs=1e-12)
    assert eta == pytest.approx(0.25, abs=1e-15)


def test_k_eta_identity_random():
    count = 0
    while count < 300:
        mu, theta = RNG.uniform(0, 1), RNG.uniform(1e-3, 1)
        delta = RNG.uniform(0, 2)
        query = ModulusQuery(mu, theta, delta)
        if not query.regime_psi or delta >= min(1 + mu ** 2, 1 + theta ** 2):
            continue
        count += 1
        k, eta = k_eta_auxiliaries(query)
        assert 0.0 < k < 1.0
        value = psi(query)
        assert eta / k + 1 - mu == pytest.approx(value, abs=1e-10)
        assert 2 * k * theta + 1 - theta == pytest.approx(value, abs=1e-10)


@given(mu=st.floats(0, 1), theta=st.floats(0, 1),
       d1=st.floats(0.001, 1.999), d2=st.floats(0.001, 1.999))
@settings(max_examples=200, deadline=None)
def test_psi_monotone_and_symmetric(mu, theta, d1, d2):
    lo, hi = min(d1, d2), max(d1, d2)
    assume(mu * theta > 1 - lo)
    assert psi(q(mu, theta, lo)) <= psi(q(mu, theta, hi)) + 1e-12
    assert psi(q(mu, theta, hi)) == psi(q(theta, mu, hi))


@given(mu=st.floats(0.01, 0.99), theta=st.floats(0, 1))
@settings(max_examples=200, deadline=None)
def test_psi_boundary_identity(mu, theta):
    # radicand collapses to (3 mu + theta)^2 at delta = 1 + mu^2
    assert psi(q(mu, theta, 1 + mu ** 2)) == pytest.approx(1 + mu, abs=1e-12)


@given(mu=st.floats(0.001, 1), theta=st.floats(0.001, 1), t=st.floats(0.001, 1))
@settings(max_examples=200, deadline=None)
def test_psi_below_one_plus_norms_for_small_delta(mu, theta, t):
    # delta in (1 - mu*theta, 1]: inside the regime and at most 1
    delta = 1 - mu * theta * (1 - t)
    assume(mu * theta > 1 - delta)
    value = psi(q(mu, theta, delta))
    assert value <= 1 + mu + 1e-12
    assert value <= 1 + theta + 1e-12


# ---------------------------------------------------------------------------
# real line


def test_real_line_values():
    assert real_line_distance(1.0, 1.0) == 0.0
    assert real_line_distance(0.5, 0.9) == pytest.approx(0.5, abs=1e-15)
    assert real_line_distance(0.3, -0.2) == pytest.approx(1.2, abs=1e-15)


def test_real_line_rejects_out_of_ball():
    with pytest.raises(RegimeError):
        real_line_distance(1.5, 0.0)


def test_real_line_matches_enumeration():
    grid = np.linspace(-1, 1, 41)
    for x in grid:
        for f in grid:
            assert real_line_distance(x, f) == real_line_oracle(x, f)


def test_real_line_piecewise_bound():
    grid = np.linspace(-1, 1, 41)
    for delta in (0.25, 0.75, 1.0, 1.25, 1.75):
        for x in grid:
            for f in grid:
                if x * f > 1 - delta:
                    bound = (1 - min(abs(x), abs(f)) if delta <= 1
                             else 1 + min(abs(x), abs(f)))
                    assert real_line_distance(x, f) <= bound + 1e-15


# ---------------------------------------------------------------------------
# Hilbert distance


def H(x, y):
    return HilbertPair(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def test_hilbert_distance_values():
    assert hilbert_distance(H([1, 0], [0.5, 0])) == pytest.approx(0.5, abs=1e-12)
    assert hilbert_distance(H([1, 0], [0, 1])) == pytest.approx(
        math.sqrt(2 - math.sqrt(2)), abs=1e-12)
    assert hilbert_distance(H([0.8, 0], [0, 0])) == pytest.approx(1.0, abs=1e-15)


def test_hilbert_distance_coincident_points():
    assert hilbert_distance(H([0.25, 0.25], [0.25, 0.25])) == pytest.approx(
        1 - math.sqrt(0.125), abs=1e-12)
    assert hilbert_distance(H([0, 0], [0, 0])) == 1.0


def test_hilbert_distance_ordering_normalized():
    # construction swaps the arguments so that |x| >= |y|
    assert hilbert_distance(H([0.5, 0], [1, 0])) == pytest.approx(0.5, abs=1e-12)


def test_hilbert_distance_out_of_ball():
    with pytest.raises(RegimeError):
        H([1.5, 0], [0, 0])


def test_hilbert_distance_vs_circle_oracle():
    for _ in range(60):
        x = RNG.standard_normal(2)
        x *= RNG.uniform() ** 0.5 / np.linalg.norm(x)
        y = RNG.standard_normal(2)
        y *= RNG.uniform() ** 0.5 / np.linalg.norm(y)
        closed = hilbert_distance(H(x, y))
        assert closed == pytest.approx(circle_minimax_oracle(x, y, 2000), abs=2e-5)


@pytest.mark.parametrize("resolution", [8, 16])
def test_hilbert_suite_passes_on_coarse_oracle_grids(resolution):
    # the objective can have two basins; a coarse grid may rank the wrong
    # one first, so the oracle refines every near-minimal local minimum
    results = run_suite("hilbert", resolution)
    assert all(r.passed for r in results), [(r.name, r.measured) for r in results if not r.passed]


def test_hilbert_distance_rotation_invariance():
    for _ in range(25):
        x = RNG.standard_normal(2)
        x *= RNG.uniform() ** 0.5 / np.linalg.norm(x)
        y = RNG.standard_normal(2)
        y *= RNG.uniform() ** 0.5 / np.linalg.norm(y)
        t = RNG.uniform(0, 2 * math.pi)
        rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        assert hilbert_distance(H(rot @ x, rot @ y)) == pytest.approx(
            hilbert_distance(H(x, y)), abs=1e-12)


def test_hilbert_distance_higher_dimension_reduces_to_plane():
    x3 = np.array([0.6, 0.3, 0.2])
    y3 = np.array([0.1, -0.4, 0.5])
    # distance depends only on norms and inner product
    a, b = np.linalg.norm(x3), np.linalg.norm(y3)
    s = float(np.dot(x3, y3))
    cos = s / (a * b)
    x2 = np.array([a, 0.0])
    y2 = b * np.array([cos, math.sqrt(1 - cos ** 2)])
    assert hilbert_distance(H(x3, y3)) == pytest.approx(
        hilbert_distance(H(x2, y2)), abs=1e-12)


# ---------------------------------------------------------------------------
# Hilbert modulus


def test_hilbert_modulus_values():
    assert hilbert_modulus(q(1, 1, 0.2)) == pytest.approx(0.3203644860139338, abs=1e-12)
    assert hilbert_modulus(q(1, 0.5, 0.45)) == pytest.approx(0.5, abs=1e-15)
    # vanishes as the constraint tightens onto the attainment set
    values = [hilbert_modulus(q(1, 1, d)) for d in (0.1, 0.01, 0.001, 1e-6)]
    assert all(values[i] > values[i + 1] for i in range(len(values) - 1))
    assert values[-1] < 2e-3


def test_hilbert_modulus_requires_ordering():
    with pytest.raises(RegimeError):
        hilbert_modulus(q(0.5, 1, 0.8))


def test_hilbert_modulus_saturates_beyond_antipodal():
    # the constraint set is everything once delta >= 1 + mu*theta
    v1 = hilbert_modulus(q(0.4, 0.3, 1.12))
    v2 = hilbert_modulus(q(0.4, 0.3, 1.9))
    assert v1 == pytest.approx(math.sqrt(1 + 0.12), abs=1e-12)
    assert v2 == pytest.approx(v1, abs=1e-12)


def test_hilbert_modulus_matches_distance_sup():
    # brute-force the sup over constrained pairs via the closed-form distance
    mu, theta, delta = 0.9, 0.7, 0.6
    worst = 0.0
    for beta in np.linspace(0, math.acos(max(-1, (1 - delta) / (mu * theta))), 2000):
        x = np.array([mu, 0.0])
        y = theta * np.array([math.cos(beta), math.sin(beta)])
        worst = max(worst, hilbert_distance(H(x, y)))
    assert hilbert_modulus(q(mu, theta, delta)) == pytest.approx(worst, abs=1e-6)


# ---------------------------------------------------------------------------
# non-square bound


def test_nonsquare_values():
    assert nonsquare_phi_bound(0.2, 0.5858) == pytest.approx(
        math.sqrt(0.4) * math.sqrt(1 - 0.5858 / 3), abs=1e-12)
    assert nonsquare_phi_bound(0.45, 0.5858) == pytest.approx(0.9, abs=1e-15)
    assert nonsquare_phi_bound(0.3, 1e-9) == pytest.approx(math.sqrt(0.6), rel=1e-6)


def test_nonsquare_below_universal():
    for delta in (0.05, 0.2, 0.35, 0.49):
        for alpha in (0.1, 0.3, 0.5857):
            assert nonsquare_phi_bound(delta, alpha) < math.sqrt(2 * delta)


def test_nonsquare_range_checks():
    with pytest.raises(RegimeError):
        nonsquare_phi_bound(0.6, 0.3)
    with pytest.raises(RegimeError):
        nonsquare_phi_bound(0.2, 0.7)

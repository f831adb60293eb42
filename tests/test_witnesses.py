import math

import numpy as np
import pytest

from bpbmod import (EstimatorConfig, ModulusQuery, RegimeError, Sum1, SumInf,
                    distance_to_pi, is_in_pi, pair_state, phi_upper_bound, psi,
                    real_line_distance)
from bpbmod.witnesses import (canonical_pin, linf2_witness, real_witness,
                              sum1_witness, suminf_witness)

IDENT_TOL = 1e-10


def q(mu, theta, delta):
    return ModulusQuery(mu, theta, delta)


def check_identities(pair, mu, theta, delta):
    assert abs(pair.norm_x - mu) <= IDENT_TOL
    assert abs(pair.norm_f - theta) <= IDENT_TOL
    assert pair.action >= 1 - delta - IDENT_TOL


# ---------------------------------------------------------------------------
# max-norm plane


def test_linf2_psi_branch():
    pair, predicted = linf2_witness(q(1, 1, 0.5))
    np.testing.assert_allclose(pair.x, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(pair.f, [0.5, 0.5], atol=1e-12)
    assert predicted == pytest.approx(1.0, abs=1e-12)
    assert pair.action == pytest.approx(0.5, abs=1e-12)  # exactly 1 - delta


def test_linf2_one_plus_theta_branch():
    pair, predicted = linf2_witness(q(1, 0.5, 1.5))
    np.testing.assert_allclose(pair.x, [1.0, -0.5], atol=1e-12)
    np.testing.assert_allclose(pair.f, [0.0, 0.5], atol=1e-12)
    assert predicted == pytest.approx(1.5, abs=1e-12)


def test_linf2_one_plus_mu_branch():
    pair, predicted = linf2_witness(q(0.5, 1, 1.3))
    np.testing.assert_allclose(pair.x, [0.5, -0.5], atol=1e-12)
    np.testing.assert_allclose(pair.f, [0.25, 0.75], atol=1e-12)
    assert predicted == pytest.approx(1.5, abs=1e-12)


def test_linf2_identities_across_matrix():
    for mu in (0.5, 0.8, 1.0):
        for theta in (0.5, 0.8, 1.0):
            for delta in (0.3, 0.8, 1.5):
                query = q(mu, theta, delta)
                if not query.regime_psi:
                    continue
                pair, predicted = linf2_witness(query)
                check_identities(pair, mu, theta, delta)
                assert predicted == pytest.approx(phi_upper_bound(query), abs=1e-15)


def test_linf2_consistency_sqrt2delta():
    for delta in (0.1, 0.5, 1.0, 1.5, 1.99):
        _, predicted = linf2_witness(q(1, 1, delta))
        assert predicted == pytest.approx(min(math.sqrt(2 * delta), 2.0), abs=1e-12)


def test_linf2_regime_violation():
    with pytest.raises(RegimeError):
        linf2_witness(q(0.2, 0.2, 0.3))


# ---------------------------------------------------------------------------
# direct sums


def test_sum1_witness_values(r1):
    pair, predicted = sum1_witness(r1, r1, q(1, 1, 0.5))
    np.testing.assert_allclose(pair.x, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(pair.f, [0.0, 1.0], atol=1e-12)
    assert predicted == pytest.approx(1.0, abs=1e-12)
    assert pair.action == pytest.approx(0.5, abs=1e-12)


def test_sum1_witness_regime_boundary(r1):
    # mu * theta = 2 (1 - delta) is accepted
    pair, predicted = sum1_witness(r1, r1, q(1, 1, 0.5))
    assert predicted == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(RegimeError):
        sum1_witness(r1, r1, q(1, 1, 0.51))  # just beyond the boundary
    with pytest.raises(RegimeError):
        sum1_witness(r1, r1, q(0.9, 0.9, 0.05))  # below the regime


def test_sum1_witness_distance(r1):
    query = q(0.9, 0.9, 0.4)
    pair, predicted = sum1_witness(r1, r1, query)
    assert predicted == pytest.approx(psi(query), abs=1e-15)
    assert predicted == pytest.approx(0.7480740698407862, abs=1e-12)
    space = Sum1(r1, r1)
    w = distance_to_pi(space, pair, EstimatorConfig(resolution=2000))
    assert w.distance == pytest.approx(predicted, abs=5e-3)


def test_suminf_witness_values(r1):
    pair, predicted = suminf_witness(r1, r1, q(1, 1, 0.5))
    np.testing.assert_allclose(pair.x, [0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(pair.f, [0.5, 0.5], atol=1e-12)
    assert predicted == pytest.approx(1.0, abs=1e-12)


def test_suminf_witness_distance(r1):
    query = q(0.9, 0.9, 0.4)
    pair, predicted = suminf_witness(r1, r1, query)
    space = SumInf(r1, r1)
    w = distance_to_pi(space, pair, EstimatorConfig(resolution=2000))
    assert w.distance == pytest.approx(predicted, abs=5e-3)


def test_suminf_witness_mixed_components(l2, r1):
    query = q(1, 1, 0.3)
    pair, predicted = suminf_witness(l2, r1, query)
    check_identities(pair, 1.0, 1.0, 0.3)
    assert pair.action == pytest.approx(0.7, abs=1e-12)
    assert predicted == pytest.approx(math.sqrt(0.6), abs=1e-12)


def test_canonical_pins(l2, hexagon, r1):
    for space in (l2, hexagon, r1):
        y, g = canonical_pin(space)
        assert is_in_pi(pair_state(space, y, g))


# ---------------------------------------------------------------------------
# real line


def test_real_witness_branches():
    pair, predicted = real_witness(q(0.5, 0.9, 0.8))
    assert (pair.x[0], pair.f[0]) == (0.5, 0.9)
    assert predicted == pytest.approx(0.5, abs=1e-15)

    pair, predicted = real_witness(q(0.8, 0.9, 1.2))
    assert pair.x[0] == 0.8
    assert pair.f[0] == pytest.approx(-0.25, abs=1e-15)
    assert predicted == pytest.approx(1.25, abs=1e-15)

    pair, predicted = real_witness(q(0.6, 0.7, 1.9))
    assert (pair.x[0], pair.f[0]) == (0.6, -0.7)
    assert predicted == pytest.approx(1.6, abs=1e-15)


def test_real_witness_predictions_match_distance(r1):
    cfg = EstimatorConfig(resolution=64)
    for mu, theta, delta in [(0.5, 0.9, 0.8), (0.8, 0.9, 1.2), (0.6, 0.7, 1.9),
                             (1.0, 1.0, 0.5), (0.3, 0.8, 1.0)]:
        query = q(mu, theta, delta)
        if query.slack < 0:
            continue
        pair, predicted = real_witness(query)
        w = distance_to_pi(r1, pair, cfg)
        assert w.distance == pytest.approx(predicted, abs=1e-12)
        assert predicted == pytest.approx(
            real_line_distance(float(pair.x[0]), float(pair.f[0])), abs=1e-15)


def test_real_witness_regime():
    with pytest.raises(RegimeError):
        real_witness(q(0.1, 0.1, 0.5))

"""Reproducers of the open defects listed in ROADMAP.md, one test per defect.

Each asserts the right behaviour and fails today, so it is a strict xfail
named for its defect: the change that mends a defect sees an XPASS, which
fails the suite, and deletes the marker.  The guard at the end holds today
and keeps a mend from trading containment for width.
"""

import itertools
import math

import numpy as np
import pytest

from bpbmod import EstimatorConfig, hausdorff_modulus_set, parse_space
from bpbmod import pi_set


def _bracket(spec, delta, resolution):
    """value -+ mesh_error of the sphere modulus."""
    est = hausdorff_modulus_set(parse_space(spec), delta, "sphere",
                                EstimatorConfig(resolution=resolution))
    return est.value - est.mesh_error, est.value + est.mesh_error


def _meet(a, b):
    return max(a[0], b[0]) <= min(a[1], b[1])


@pytest.mark.xfail(strict=True, reason="defect 1: the 2-d Pi sample is dense in the point only")
def test_defect_1_refined_brackets_meet():
    # res 128 gives [0.074, 0.223] and res 400 [0.319, 0.368]
    brackets = [_bracket("lp:2:p=1.1", 0.1, res) for res in (64, 128, 400)]
    for a, b in itertools.combinations(brackets, 2):
        assert _meet(a, b), (a, b)


@pytest.mark.xfail(strict=True, reason="defect 2: dim >= 3 sphere estimates exceed sqrt(2 delta)")
@pytest.mark.parametrize("spec, resolution", [("linf:3", 24), ("l1:3", 24),
                                              ("sum1(l2:2,r:1)", 40)])
def test_defect_2_sphere_estimate_respects_the_universal_bound(spec, resolution):
    # Phi^S(delta) <= sqrt(2 delta) on every space, so the lower end of the
    # bracket must lie below it
    delta = 0.2
    lower, _ = _bracket(spec, delta, resolution)
    assert lower <= math.sqrt(2.0 * delta)


@pytest.mark.xfail(strict=True, reason="defect 4: the 3-d/4-d mesh_gap is not a bound")
def test_defect_4_mesh_gap_bounds_the_probe_radius():
    # the gap is twice a covering radius; 20,000 probes see a larger one
    # (0.3755 against 0.5191)
    space = parse_space("linf:3")
    mesh = pi_set._sphere_mesh(space, EstimatorConfig(resolution=16))
    probes = np.random.default_rng(7).standard_normal((20000, 3))
    probes /= space.norm_rows(probes)[:, None]
    worst = 0.0
    for lo in range(0, len(probes), 500):
        chunk = probes[lo : lo + 500]
        diff = (chunk[:, None, :] - mesh.points).reshape(-1, 3)
        worst = max(worst, float(space.norm_rows(diff).reshape(len(chunk), -1).min(axis=1).max()))
    assert mesh.gap >= 2.0 * worst


@pytest.mark.xfail(strict=True, reason="defect 8: X and X* give disjoint brackets")
def test_defect_8_dual_brackets_meet():
    # the swap (x, f) -> (f, x) carries Pi(X) onto Pi(X*), so both spaces
    # have one sphere modulus; res 128 gives [0.074, 0.223] and [0.261, 0.410]
    a = _bracket("lp:2:p=1.1", 0.1, 128)
    b = _bracket("lp:2:p=11", 0.1, 128)
    assert _meet(a, b), (a, b)


@pytest.mark.parametrize("spec", ["linf:2", "l1:2"])
@pytest.mark.parametrize("delta", [0.1, 0.3, 0.5])
def test_square_sphere_brackets_contain_the_exact_modulus(spec, delta):
    # Phi^S(delta) = sqrt(2 delta) on the square and the diamond
    exact = math.sqrt(2.0 * delta)
    for res in (64, 128, 400):
        lower, upper = _bracket(spec, delta, res)
        assert lower <= exact <= upper, (res, lower, upper)

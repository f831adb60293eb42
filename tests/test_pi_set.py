import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpbmod import (EstimatorConfig, HilbertPair, distance_to_pi,
                    hausdorff_modulus_set, hilbert_distance, is_in_pi,
                    pair_state, parse_space, sample_pi)
from bpbmod import pi_set
from bpbmod.pi_set import EmptyConstraintError, build_pi_sample

RNG = np.random.default_rng(20240810)


# ---------------------------------------------------------------------------
# membership


def test_is_in_pi_hilbert_unit_pair(l2):
    assert is_in_pi(l2, pair_state(l2, [1, 0], [1, 0]))


def test_is_in_pi_linf_facet_vertex_pair(linf):
    assert is_in_pi(linf, pair_state(linf, [1, 1], [1, 0]))


def test_is_in_pi_rejects_zero_action(l2):
    assert not is_in_pi(l2, pair_state(l2, [1, 0], [0, 1]))


# ---------------------------------------------------------------------------
# sampling


def test_sample_pi_hilbert_is_diagonal(l2):
    pairs = sample_pi(l2, EstimatorConfig(resolution=8))
    for y, g in pairs:
        np.testing.assert_allclose(y, g, atol=1e-12)
        assert is_in_pi(l2, pair_state(l2, y, g), tol=1e-9)
    pts = np.array([y for y, _ in pairs])
    assert any(np.allclose(p, [1, 0], atol=1e-12) for p in pts)
    assert any(np.allclose(p, [0, 1], atol=1e-12) for p in pts)


def test_sample_pi_linf_covers_vertex_face(linf):
    pairs = sample_pi(linf, EstimatorConfig(resolution=64))
    face = [(y, g) for y, g in pairs if np.allclose(y, [1, 1], atol=1e-12)]
    assert len(face) >= 17
    ts = sorted(g[0] for _, g in face)
    # functionals (t, 1-t) sweep the dual facet from one endpoint to the other
    assert ts[0] == pytest.approx(0.0, abs=1e-9)
    assert ts[-1] == pytest.approx(1.0, abs=1e-9)
    for _, g in face:
        assert g[0] + g[1] == pytest.approx(1.0, abs=1e-9)


def test_sample_pi_l1_covers_vertex_face(l1):
    pairs = sample_pi(l1, EstimatorConfig(resolution=64))
    face = [(y, g) for y, g in pairs if np.allclose(y, [1, 0], atol=1e-12)]
    ts = sorted(g[1] for _, g in face)
    assert ts[0] == pytest.approx(-1.0, abs=1e-9)
    assert ts[-1] == pytest.approx(1.0, abs=1e-9)
    for _, g in face:
        assert g[0] == pytest.approx(1.0, abs=1e-9)


def test_sample_pi_all_members(linf, hexagon, sum1_rr):
    for space in (linf, hexagon, sum1_rr):
        for y, g in sample_pi(space, EstimatorConfig(resolution=32)):
            assert is_in_pi(space, pair_state(space, y, g), tol=1e-9)


# ---------------------------------------------------------------------------
# distance to the attainment set


def test_distance_zero_on_pi(l2, cfg):
    w = distance_to_pi(l2, pair_state(l2, [1, 0], [1, 0]), cfg)
    assert w.distance == pytest.approx(0.0, abs=1e-12)


def test_distance_hilbert_orthogonal_pair(l2, cfg):
    w = distance_to_pi(l2, pair_state(l2, [1, 0], [0, 1]), cfg)
    assert w.distance == pytest.approx(math.sqrt(2 - math.sqrt(2)), abs=1e-9)
    m = np.array([1, 1]) / math.sqrt(2)
    np.testing.assert_allclose(w.y, m, atol=1e-6)
    np.testing.assert_allclose(w.g, m, atol=1e-6)


def test_distance_linf_far_pair(linf, cfg):
    w = distance_to_pi(linf, pair_state(linf, [1, -0.5], [0, 0.5]), cfg)
    assert w.distance == pytest.approx(1.5, abs=1e-9)


def test_distance_matches_hilbert_closed_form(l2, cfg):
    for _ in range(25):
        x = RNG.standard_normal(2)
        x *= RNG.uniform() ** 0.5 / np.linalg.norm(x)
        f = RNG.standard_normal(2)
        f *= RNG.uniform() ** 0.5 / np.linalg.norm(f)
        w = distance_to_pi(l2, pair_state(l2, x, f), cfg)
        assert w.distance == pytest.approx(hilbert_distance(HilbertPair(x, f)),
                                           abs=1e-9)


def test_distance_witness_consistency(linf, cfg):
    p = pair_state(linf, [0.9, 0.2], [0.8, 0.1])
    w = distance_to_pi(linf, p, cfg)
    assert w.distance == pytest.approx(
        max(linf.norm(p.x - w.y), linf.dual_norm(p.f - w.g)), abs=1e-12)
    assert is_in_pi(linf, pair_state(linf, w.y, w.g), tol=1e-9)


def test_distance_lower_bound_all_pairs(linf, l1, hexagon, cfg_fast):
    # any witness is a unit-sphere pair, so d >= 1 - min(|x|, |f|*)
    for space in (linf, l1, hexagon):
        for _ in range(10):
            x = RNG.standard_normal(2) * 0.8
            f = RNG.standard_normal(2) * 0.8
            p = pair_state(space, x, f)
            w = distance_to_pi(space, p, cfg_fast)
            assert w.distance >= max(0.0, 1 - min(p.norm_x, p.norm_f)) - 1e-9


def test_distance_zero_iff_in_pi(hexagon, cfg):
    for _ in range(12):
        x = RNG.standard_normal(2)
        p = pair_state(hexagon, x / hexagon.norm(x),
                       hexagon.support(x / hexagon.norm(x)))
        w = distance_to_pi(hexagon, p, cfg)
        assert w.distance <= 1e-9
        assert is_in_pi(hexagon, p, tol=1e-9)


def test_distance_refinement_improves_with_resolution(hexagon):
    p = pair_state(hexagon, [0.77, 0.31], [0.3, 0.55])
    coarse = distance_to_pi(hexagon, p, EstimatorConfig(resolution=200)).distance
    fine = distance_to_pi(hexagon, p, EstimatorConfig(resolution=400)).distance
    assert fine <= coarse + 1e-9


def test_distance_refines_every_low_basin(cfg):
    # the best sweep sample sits in the wrong basin: a brute force over
    # 32,768 attainment pairs finds 1.027198 near angle -3.102, while a
    # refinement of that sample's basin alone stops at 1.028440 near 0.595
    space = parse_space("lp:2:p=1.5")
    p = pair_state(space, [0.02849297, -0.07210207], [-0.1653306, 0.59920069])
    assert distance_to_pi(space, p, cfg).distance <= 1.027198


def test_distance_real_line(r1, cfg):
    w = distance_to_pi(r1, pair_state(r1, [0.5], [0.9]), cfg)
    assert w.distance == pytest.approx(0.5, abs=1e-15)
    w = distance_to_pi(r1, pair_state(r1, [0.3], [-0.2]), cfg)
    assert w.distance == pytest.approx(1.2, abs=1e-15)


# ---------------------------------------------------------------------------
# modulus estimation over grid constraint sets


def test_hausdorff_linf_sphere_sharp(linf, cfg):
    est = hausdorff_modulus_set(linf, 0.5, "sphere", cfg)
    assert est.value == pytest.approx(1.0, abs=1e-3)
    assert est.mesh_error > 0


def test_hausdorff_l2_sphere_matches_closed_form(l2, cfg):
    est = hausdorff_modulus_set(l2, 0.2, "sphere", cfg)
    assert est.value == pytest.approx(0.3203644860139338, abs=2e-3)


def test_hausdorff_ball_capped_by_diameter(l1, cfg_fast):
    est = hausdorff_modulus_set(l1, 1.9, "ball", cfg_fast)
    assert est.value <= 2.0 + 1e-9


def test_hausdorff_monotone_in_delta(linf, cfg_fast):
    values = [hausdorff_modulus_set(linf, d, "ball", cfg_fast,
                                    refine_rounds=1).value
              for d in (0.3, 0.8, 1.3, 1.8)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-9


def test_hausdorff_sphere_below_ball(l2, cfg_fast):
    sphere = hausdorff_modulus_set(l2, 0.6, "sphere", cfg_fast).value
    ball = hausdorff_modulus_set(l2, 0.6, "ball", cfg_fast).value
    assert sphere <= ball + 1e-9


def test_universal_sqrt_bound_on_sampled_pairs(linf, l1, cfg_fast):
    # constrained pairs sit within sqrt(2 delta) of the attainment set
    for space in (linf, l1):
        for delta in (0.3, 0.8, 1.5):
            est = hausdorff_modulus_set(space, delta, "ball", cfg_fast,
                                        refine_rounds=1)
            assert est.value <= math.sqrt(2 * delta) + est.mesh_error + 1e-9


def test_hausdorff_rejects_bad_arguments(l2, cfg_fast):
    with pytest.raises(ValueError):
        hausdorff_modulus_set(l2, 2.5, "sphere", cfg_fast)
    with pytest.raises(ValueError):
        hausdorff_modulus_set(l2, 0.5, "disk", cfg_fast)


def test_argmax_pair_is_feasible(linf, cfg_fast):
    est = hausdorff_modulus_set(linf, 0.7, "sphere", cfg_fast)
    assert est.pair.action >= 1 - 0.7 - 1e-9
    assert abs(est.pair.norm_x - 1) <= 1e-9
    assert abs(est.pair.norm_f - 1) <= 1e-9


def test_pi_sample_gap_positive(hexagon):
    pi = build_pi_sample(hexagon, EstimatorConfig(resolution=64))
    assert pi.gap > 0
    assert pi.sweep_count == 64
    assert len(pi.faces) == 6


# ---------------------------------------------------------------------------
# the streamed pair sweep


def _dense_scan(space, dual, xs, fs, floor, pi):
    """Whole-matrix form of ``_scan_pairs``: the full action matrix, both
    distance matrices and a per-row loop.  Test oracle."""
    act = xs @ fs.T
    feasible = act >= floor - 1e-12
    if not feasible.any():
        return None
    dim = space.dim
    dx = space.norm_rows((xs[:, None, :] - pi.points[None, :, :]).reshape(-1, dim))
    df = dual.norm_rows((fs[:, None, :] - pi.functionals[None, :, :]).reshape(-1, dim))
    dx, df = dx.reshape(len(xs), -1), df.reshape(len(fs), -1)
    best_val = np.full(len(xs), -np.inf)
    best_j = np.zeros(len(xs), dtype=int)
    for i in range(len(xs)):
        js = np.nonzero(feasible[i])[0]
        if js.size == 0:
            continue
        vals = np.maximum(dx[i][None, :], df[js]).min(axis=1)
        k = int(np.argmax(vals))
        best_val[i] = vals[k]
        best_j[i] = js[k]
    return best_val, best_j


def _ball_rows(space, rng, n):
    """n points of the unit ball, about a third of them on the sphere."""
    rows = rng.standard_normal((n, space.dim))
    rows /= space.norm_rows(rows)[:, None]
    return rows * np.where(rng.random(n) < 1.0 / 3.0, 1.0, rng.random(n))[:, None]


@pytest.mark.parametrize("tile_rows", [1, 7, 64])
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), nx=st.integers(1, 40),
       nf=st.integers(1, 40), floor=st.floats(-1.2, 1.2))
@settings(max_examples=40, deadline=None)
def test_scan_pairs_matches_dense_oracle(sweep_spaces, tile_rows, data, seed, nx, nf, floor):
    # floors below -1 make every pair feasible, floors above 1 none; tiles
    # of a few Pi-width rows make the x tiles ragged and chunk the feasible j
    space = sweep_spaces[data.draw(st.sampled_from(sorted(sweep_spaces)))]
    pi = pi_set._cached_pi_sample(space, EstimatorConfig(resolution=8 if space.dim == 3 else 24))
    rng = np.random.default_rng(seed)
    xs, fs = _ball_rows(space, rng, nx), _ball_rows(pi.dual, rng, nf)
    want = _dense_scan(space, pi.dual, xs, fs, floor, pi)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pi_set, "_TILE_ELEMS", tile_rows * len(pi.points))
        if want is None:
            with pytest.raises(EmptyConstraintError):
                pi_set._scan_pairs(space, pi.dual, xs, fs, floor, pi)
            return
        best_val, best_j = pi_set._scan_pairs(space, pi.dual, xs, fs, floor, pi)
    assert np.array_equal(best_val, want[0])
    assert np.array_equal(best_j, want[1])


def _peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind, delta, mode, resolution, limit_mib", [
    ("hexagon", 0.3, "ball", 400, 48),
    ("l2:3", 0.2, "sphere", 40, 64),
])
def test_modulus_sweep_memory_is_bounded(sweep_spaces, kind, delta, mode, resolution,
                                         limit_mib):
    # the whole-matrix sweep peaked at 257 and 256 MiB on these two
    space = sweep_spaces[kind]
    cfg = EstimatorConfig(resolution=resolution)
    pi_set._cached_pi_sample(space, cfg)  # warm: the Pi sample is not the sweep's
    assert _peak_mib(lambda: hausdorff_modulus_set(space, delta, mode, cfg)) < limit_mib


import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bpbmod import (CorrectorSearchError, EmptyConstraintError, EstimatorConfig, Lp,
                    ModulusQuery, Polytope, RegimeError, bpb_corrector,
                    check_alpha_self_dual, collapse_k, estimate_alpha, estimate_phi,
                    estimate_phi_mut, hilbert_modulus, is_in_pi, pair_state, parse_space,
                    phi_lower_bound, phi_upper_bound)
from bpbmod import moduli, pi_set
from bpbmod.moduli import audit_alpha_interior, convexity_profile
from bpbmod.pi_set import Mesh
from bpbmod.spaces import mesh_gap

RNG = np.random.default_rng(20240810)
SQRT2 = math.sqrt(2.0)
# polygons with vertices off the sweep angles
OCTAGON = np.array([[1, 0.1], [0.7, 0.8], [-0.2, 1.1], [-0.9, 0.5], [-1, -0.1],
                    [-0.7, -0.8], [0.2, -1.1], [0.9, -0.5]])
HEXAGON = np.array([[math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)] for k in range(6)])
HEXAGON_ROTATED = np.array([[math.cos(k * math.pi / 3 + 0.1), math.sin(k * math.pi / 3 + 0.1)]
                            for k in range(6)])


def q(mu, theta, delta):
    return ModulusQuery(mu, theta, delta)


# ---------------------------------------------------------------------------
# refined modulus


def test_phi_mut_linf_sharp(linf, cfg):
    est = estimate_phi_mut(linf, q(1, 1, 0.5), cfg)
    assert est.value == pytest.approx(1.0, abs=1e-3)


def test_phi_mut_l2_matches_closed_form(l2, cfg):
    est = estimate_phi_mut(l2, q(1, 1, 0.2), cfg)
    assert est.value == pytest.approx(hilbert_modulus(q(1, 1, 0.2)), abs=2e-3)


def test_phi_mut_boundary_regime_is_lower_bound(linf, l1, cfg_fast):
    # at mu*theta = 1 - delta the modulus equals 1 - min(mu, theta)
    query = q(0.5, 0.8, 0.6)
    for space in (linf, l1):
        est = estimate_phi_mut(space, query, cfg_fast)
        assert est.value == pytest.approx(phi_lower_bound(query).value,
                                          abs=est.mesh_error + 1e-9)


def test_phi_mut_within_general_bounds(hexagon, cfg_fast):
    for mu, theta, delta in [(1, 1, 0.4), (0.9, 0.7, 0.6), (0.8, 1, 1.2)]:
        query = q(mu, theta, delta)
        est = estimate_phi_mut(hexagon, query, cfg_fast, refine_rounds=1)
        assert est.value <= phi_upper_bound(query) + 1e-2
        assert est.value >= phi_lower_bound(query).value - 1e-2


def test_phi_sphere_delegates(linf, cfg):
    est = estimate_phi(linf, 0.18, "sphere", cfg)
    assert est.value == pytest.approx(0.6, abs=1e-3)


def test_phi_sphere_below_ball(l2, cfg_fast):
    sphere = estimate_phi(l2, 0.5, "sphere", cfg_fast).value
    ball = estimate_phi(l2, 0.5, "ball", cfg_fast).value
    assert sphere <= ball + 1e-9


def test_phi_sphere_l2_dim4_bracket_holds_limit():
    # the random 4-d sphere mesh must not double as the mesh-gap probes,
    # or the gap reads 0 and the bracket collapses onto a mesh value
    est = estimate_phi(Lp(2.0, 4), 0.2, "sphere", EstimatorConfig(resolution=10))
    exact = hilbert_modulus(q(1, 1, 0.2))
    assert est.mesh_error > 0.0
    assert est.value - est.mesh_error <= exact <= est.value + est.mesh_error


def test_phi_sphere_under_estimated_alpha_bound(l2, hexagon, cfg_fast):
    from bpbmod import nonsquare_phi_bound
    for space in (l2, hexagon):
        alpha_hat = estimate_alpha(space.dual(), cfg_fast).alpha
        for delta in (0.1, 0.3):
            est = estimate_phi(space, delta, "sphere", cfg_fast, refine_rounds=1)
            bound = nonsquare_phi_bound(delta, alpha_hat - 0.01)
            assert est.value <= bound + est.mesh_error + 1e-9


@pytest.mark.parametrize("verts", [OCTAGON, HEXAGON_ROTATED], ids=["octagon", "hexagon_rotated"])
def test_phi_mut_saturated_regime_off_the_sweep(verts):
    # mu * theta < 1 - delta admits only exactly aligned pairs; no sweep
    # angle hits these vertices, but the Pi sample holds them; the supremum
    # is 1 - min(mu, theta)
    est = estimate_phi_mut(Polytope(verts), q(0.5, 1, 0.3), EstimatorConfig(resolution=400))
    assert est.value == pytest.approx(0.5, abs=1e-12)
    assert est.mesh_error <= 0.021


def test_phi_mut_3d_gap_is_the_scaled_mesh_gap():
    # a mesh scaled by mu has mu times the unit gap; unit-sphere probes
    # against the scaled mesh read 0.557 here
    est = estimate_phi_mut(parse_space("l2:3"), q(0.5, 1, 0.6), EstimatorConfig(resolution=40))
    assert est.mesh_error < 0.2
    assert abs(est.value - hilbert_modulus(q(1, 0.5, 0.6))) <= est.mesh_error


def test_phi_mut_empty_constraint_set():
    # no mesh pair aligns exactly on the rotated hexagon; the diagonal value
    # stands, bracketed by the universal upper bound
    query = q(1, 1, 1e-12)
    est = estimate_phi_mut(Polytope(HEXAGON_ROTATED), query, EstimatorConfig(resolution=64))
    assert est.value == 0.0
    assert est.mesh_error == phi_upper_bound(query) == pytest.approx(1.41e-6, rel=1e-2)


@functools.lru_cache(maxsize=None)
def mut_space(name):
    # one instance per name, so that a polytope's meshes stay cached
    polygons = {"hexagon": HEXAGON, "hexagon_rotated": HEXAGON_ROTATED, "octagon": OCTAGON}
    return Polytope(polygons[name]) if name in polygons else parse_space(name)


# (space, (mu, theta, delta), resolution, mesh_error); None marks the bracket
# phi_upper_bound - (1 - min(mu, theta)) of a sweep with no feasible pair.
# test_phi_mut_empty_constraint_set holds the row (1, 1, 1e-12), res 64
@pytest.mark.parametrize("name, query, res, error", [
    ("hexagon_rotated", (0.5, 1, 0.5 + 1e-9), 400, None),
    ("hexagon_rotated", (0.5, 1, 0.5 + 1e-6), 400, None),
    ("hexagon_rotated", (0.5, 1, 0.5 + 1e-4), 400, 0.0190),
    ("linf:3", (1, 0.7, 0.3), 12, 0.0),
    ("sum1(l2:2,r:1)", (1, 0.7, 0.3), 16, 0.0),
    ("octagon", (0.5, 1, 0.3), 400, 0.0),
    ("linf:2", (0.5, 0.8, 0.6), 160, 0.0),
    ("l2:2", (0, 0.8, 1.2), 160, 0.0),
])
def test_phi_mut_diagonal_cases(name, query, res, error):
    # saturated, boundary, zero-norm and near-saturated queries all take the
    # diagonal value 1 - min(mu, theta), attained at (mu y, theta g)
    query = q(*query)
    est = estimate_phi_mut(mut_space(name), query, EstimatorConfig(resolution=res))
    low = 1.0 - min(query.mu, query.theta)
    assert est.value == est.witness.distance == low
    if error is None:
        assert 0.0 < est.mesh_error == phi_upper_bound(query) - low
    else:
        assert est.mesh_error == pytest.approx(error, abs=5e-4)
    p = est.pair
    assert (p.norm_x, p.norm_f, p.action) == pytest.approx((query.mu, query.theta, query.mu * query.theta),
                                                         abs=1e-12)
    assert is_in_pi(pair_state(mut_space(name), est.witness.y, est.witness.g))


MUT_SPACES = ["l1:2", "linf:2", "l2:2", "hexagon", "hexagon_rotated", "octagon"]


@st.composite
def mut_queries(draw):
    mu, theta = draw(st.floats(0, 1)), draw(st.floats(0, 1))
    # free deltas, and deltas at and just off saturation mu * theta = 1 - delta
    slack = draw(st.one_of(st.none(), st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-4, -1e-9])))
    delta = draw(st.floats(0, 2, exclude_min=True, exclude_max=True)) if slack is None \
        else 1.0 - mu * theta + slack
    assume(0.0 < delta < 2.0)
    return ModulusQuery(mu, theta, delta)


@given(name=st.sampled_from(MUT_SPACES), query=mut_queries(), res=st.sampled_from([32, 48, 64]))
@settings(max_examples=80, deadline=None)
def test_phi_mut_invariants(name, query, res):
    est = estimate_phi_mut(mut_space(name), query, EstimatorConfig(resolution=res), refine_rounds=0)
    low = 1.0 - min(query.mu, query.theta)
    assert est.value >= low
    if not query.regime_psi or query.mu * query.theta == 0.0:
        assert (est.value, est.mesh_error) == (low, 0.0)
    else:
        assert est.value <= phi_upper_bound(query) + est.mesh_error + 1e-9


@pytest.mark.parametrize("name", MUT_SPACES)
@pytest.mark.parametrize("delta", [0.1, 0.5, 1.5])
def test_phi_mut_unit_norms_is_the_sphere_modulus(name, delta):
    space, cfg = mut_space(name), EstimatorConfig(resolution=64)
    a, b = estimate_phi(space, delta, "sphere", cfg), estimate_phi_mut(space, q(1, 1, delta), cfg)
    assert (a.value, a.mesh_error, a.witness.distance) == (b.value, b.mesh_error, b.witness.distance)
    for u, v in [(a.pair.x, b.pair.x), (a.pair.f, b.pair.f), (a.witness.y, b.witness.y),
                 (a.witness.g, b.witness.g)]:
        assert u.tobytes() == v.tobytes()


# ---------------------------------------------------------------------------
# non-squareness


def test_alpha_l1_linf_exact_zero(l1, linf, cfg):
    assert abs(estimate_alpha(l1, cfg).alpha) <= 1e-9
    assert abs(estimate_alpha(linf, cfg).alpha) <= 1e-9


def test_alpha_l2(l2, cfg):
    rep = estimate_alpha(l2, cfg)
    assert rep.alpha == pytest.approx(2 - SQRT2, abs=1e-6)
    x, y = rep.maximizer
    # maximizing pairs are orthonormal
    assert abs(float(np.dot(x, y))) <= 1e-3


def test_alpha_l2_dim3():
    rep = estimate_alpha(Lp(2.0, 3), EstimatorConfig(resolution=48))
    assert rep.alpha == pytest.approx(2 - SQRT2, abs=rep.mesh_error)


def test_alpha_ceiling(hexagon, l1, l2, linf, cfg_fast):
    for space in (hexagon, l1, l2, linf):
        rep = estimate_alpha(space, cfg_fast)
        assert -1e-9 <= rep.alpha <= 2 - SQRT2 + rep.mesh_error


def test_alpha_interior_audit(l2, hexagon, cfg_fast):
    for space in (l2, hexagon):
        rep = estimate_alpha(space, cfg_fast)
        worst = audit_alpha_interior(space)
        assert worst <= 2 - rep.alpha + 1e-9


def test_alpha_self_dual(l1, l2, hexagon, cfg):
    ra, rd = check_alpha_self_dual(l1, cfg)
    assert abs(ra.alpha) <= 1e-9 and abs(rd.alpha) <= 1e-9
    ra, rd = check_alpha_self_dual(l2, cfg)
    assert abs(ra.alpha - rd.alpha) <= 2e-2
    ra, rd = check_alpha_self_dual(hexagon, cfg)
    assert abs(ra.alpha - rd.alpha) <= 2e-2


def test_alpha_self_dual_reuses_one_polytope_dual():
    # a polytope hashes by identity, so a fresh dual at every call missed the
    # mesh cache and parked one more dead mesh in it
    hexa = Polytope(np.array([[math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0)]
                              for k in range(6)]))
    assert hexa.dual() is hexa.dual()
    cfg = EstimatorConfig(resolution=64)
    first = check_alpha_self_dual(hexa, cfg)
    misses = pi_set._sphere_mesh.cache_info().misses
    for _ in range(2):
        again = check_alpha_self_dual(hexa, cfg)
        assert pi_set._sphere_mesh.cache_info().misses == misses
        assert [r.alpha for r in again] == [r.alpha for r in first]


# ---------------------------------------------------------------------------
# modulus of convexity


def test_convexity_l2_antipodal(l2, cfg):
    (rep,) = convexity_profile(l2, [2.0], cfg)
    assert rep.delta_x == pytest.approx(1.0, abs=1e-12)


def test_convexity_l2_midlevel(l2):
    (rep,) = convexity_profile(l2, [1.0], EstimatorConfig(resolution=2000))
    assert rep.delta_x == pytest.approx(1 - math.sqrt(3) / 2, abs=5e-3)


def test_convexity_l1_flat(l1, cfg):
    (rep,) = convexity_profile(l1, [1.0], cfg)
    assert rep.delta_x == pytest.approx(0.0, abs=1e-12)


def test_convexity_day_nordlander(l1, l2, linf, hexagon, sum1_rr, suminf_rr, cfg_fast):
    eps_grid = [0.25 * k for k in range(1, 9)]
    for space in (l1, l2, linf, hexagon, sum1_rr, suminf_rr):
        for rep in convexity_profile(space, eps_grid, cfg_fast):
            ceiling = 1 - math.sqrt(max(0.0, 1 - rep.eps ** 2 / 4))
            assert 0.0 <= rep.delta_x <= ceiling + rep.mesh_error


def test_convexity_rejects_bad_eps(l2, cfg_fast):
    with pytest.raises(ValueError):
        convexity_profile(l2, [2.5], cfg_fast)


# ---------------------------------------------------------------------------
# the streamed pair sweeps of alpha and convexity


@pytest.mark.parametrize("tile_rows", [1, 7, 64])
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40))
@settings(max_examples=30, deadline=None)
def test_pair_sweeps_match_dense_oracle(sweep_spaces, tile_rows, data, seed, n):
    # the dense sums/diffs matrices, reduced whole, are the oracle; without
    # sweep angles alpha reports its mesh argmax unrefined
    space = sweep_spaces[data.draw(st.sampled_from(sorted(sweep_spaces)))]
    pts = np.random.default_rng(seed).standard_normal((n, space.dim))
    pts /= space.norm_rows(pts)[:, None]
    dim = space.dim
    sums = space.norm_rows((pts[:, None, :] + pts[None, :, :]).reshape(-1, dim)).reshape(n, n)
    diffs = space.norm_rows((pts[:, None, :] - pts[None, :, :]).reshape(-1, dim)).reshape(n, n)
    obj = (sums + diffs) / 2.0
    i0, j0 = divmod(int(np.argmax(obj)), n)
    cfg = EstimatorConfig()
    band = 2.0 * mesh_gap(space, pts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pi_set, "_TILE_ELEMS", tile_rows * n * dim)
        mp.setattr(moduli, "_alpha_points",
                   lambda space, config: Mesh(pts, None, None, mesh_gap(space, pts)))
        rep = estimate_alpha(space, cfg)
        assert type(rep.alpha) is float
        assert rep.alpha == 2.0 - float(obj[i0, j0])
        assert np.array_equal(rep.maximizer[0], pts[i0])
        assert np.array_equal(rep.maximizer[1], pts[j0])
        for eps in (0.3, 1.0, 1.7, 2.0):
            mask = (diffs >= eps - 1e-12) & (diffs <= eps + band)
            if not mask.any():
                with pytest.raises(EmptyConstraintError):
                    convexity_profile(space, [eps], cfg)
                continue
            (got,) = convexity_profile(space, [eps], cfg)
            assert type(got.delta_x) is float
            assert got.delta_x == max(0.0, 1.0 - float((sums[mask] / 2.0).max()))


@pytest.mark.parametrize("sweep", [
    lambda space, cfg: estimate_alpha(space, cfg),
    lambda space, cfg: convexity_profile(space, [0.5, 1.0, 1.5], cfg),
], ids=["alpha", "convexity"])
def test_pair_sweeps_take_the_upper_triangle(sweep_spaces, sweep):
    # every pair of the whole matrix costs 2 n**2 norm rows; the triangle
    # tiles hold the pairs i <= j and the lower part of each diagonal block
    space, n, step = sweep_spaces["l2:3"], 60, 7
    pts = np.random.default_rng(5).standard_normal((n, space.dim))
    pts /= space.norm_rows(pts)[:, None]
    mesh = Mesh(pts, None, None, mesh_gap(space, pts))
    rows = []
    norm_rows = type(space).norm_rows

    def counted(self, a):
        rows.append(len(a))
        return norm_rows(self, a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pi_set, "_TILE_ELEMS", step * n * space.dim)
        mp.setattr(moduli, "_alpha_points", lambda space, config: mesh)
        mp.setattr(type(space), "norm_rows", counted)
        sweep(space, EstimatorConfig())
    assert 0 < sum(rows) <= n * (n + 1) + 2 * step * n < 2 * n * n


@pytest.mark.parametrize("sweep", [
    lambda space, cfg: estimate_alpha(space, cfg),
    lambda space, cfg: convexity_profile(space, [0.5, 1.0, 1.5], cfg),
], ids=["alpha", "convexity"])
def test_pair_sweep_memory_is_bounded(sweep):
    # the whole-matrix sweep peaked at 238 MiB here
    tracemalloc.start()
    try:
        sweep(parse_space("l2:3"), EstimatorConfig(resolution=40))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# corrector


def test_corrector_pair_already_attaining(l2, cfg):
    p = pair_state(l2, [1, 0], [1, 0])
    res = bpb_corrector(l2, p, 0.1, 0.5, 0.58, cfg)
    assert res.witness.distance == pytest.approx(0.0, abs=1e-12)
    assert res.slack_x == pytest.approx(0.2, abs=1e-12)
    assert res.slack_f == pytest.approx(2 * 0.5 - (2 / 3) * 0.5 * 0.58, abs=1e-12)


def test_corrector_near_pair(l2, cfg):
    t = math.acos(0.81)
    p = pair_state(l2, [1, 0], [math.cos(t), math.sin(t)])
    res = bpb_corrector(l2, p, 0.2, 0.5, 0.58, cfg)
    assert l2.norm(p.x - res.witness.y) <= 0.4 + 1e-9
    assert l2.dual_norm(p.f - res.witness.g) <= 1 - 0.58 / 3 + 1e-9
    assert is_in_pi(pair_state(l2, res.witness.y, res.witness.g))


def test_corrector_balanced_step():
    for delta, alpha in [(0.1, 0.58), (0.3, 0.2), (0.05, 0.5)]:
        k = collapse_k(delta, alpha)
        both = math.sqrt(2 * delta) * math.sqrt(1 - alpha / 3)
        assert delta / k == pytest.approx(both, abs=1e-12)
        assert 2 * k - (2 / 3) * k * alpha == pytest.approx(both, abs=1e-12)
        assert k < 0.5


def test_corrector_validates_parameters(l2, cfg_fast):
    p = pair_state(l2, [1, 0], [1, 0])
    with pytest.raises(RegimeError):
        bpb_corrector(l2, p, 0.1, 0.7, 0.58, cfg_fast)  # k > 1/2
    with pytest.raises(RegimeError):
        bpb_corrector(l2, p, 0.1, 0.5, 0.9, cfg_fast)  # alpha above ceiling
    with pytest.raises(ValueError):
        bpb_corrector(l2, pair_state(l2, [0.5, 0], [1, 0]), 0.1, 0.5, 0.58,
                      cfg_fast)  # off the sphere
    with pytest.raises(ValueError):
        bpb_corrector(l2, pair_state(l2, [1, 0], [0, 1]), 0.1, 0.5, 0.58,
                      cfg_fast)  # action below 1 - delta


def test_corrector_search_failure_diagnostics():
    # coarse 3-d mesh: the point bound is tighter than the covering radius
    space = Lp(math.inf, 3)
    cfg = EstimatorConfig(resolution=8)
    x = np.array([0.3, 0.7, 0.648074069840786]) / 0.7
    p = pair_state(space, x, [1e-4, 0.9998, 1e-4])
    assert not is_in_pi(p)
    with pytest.raises(CorrectorSearchError) as err:
        bpb_corrector(space, p, 0.0002, 0.01, 0.58, cfg)
    assert len(err.value.best_slacks) == 2
    assert min(err.value.best_slacks) < 0


def test_corrector_returns_a_pair_already_in_pi():
    # no sample of the coarse 3-d mesh meets both bounds, but the query does
    space = Lp(2.0, 3)
    x = np.array([0.3, 0.7, 0.648074069840786])
    x = x / np.linalg.norm(x)
    p = pair_state(space, x, x)
    res = bpb_corrector(space, p, 0.0002, 0.01, 0.58, EstimatorConfig(resolution=8))
    np.testing.assert_array_equal(res.witness.y, p.x)
    np.testing.assert_array_equal(res.witness.g, p.f)
    assert res.witness.distance == 0.0
    assert res.slack_x == 0.0002 / 0.01
    assert res.slack_f == 2 * 0.01 - (2 / 3) * 0.01 * 0.58


@pytest.mark.parametrize("k", [0.3, 0.0003])
@pytest.mark.parametrize("name", ["linf:2", "l1:2", "hexagon", "octagon", "sum1(r:1,r:1)",
                                  "suminf(r:1,r:1)", "lp:2:p=1.5"])
def test_corrector_battery(name, k, hexagon, cfg_fast):
    # the small k needs the functional within 5.4e-4, so the faces or the
    # sweep zoom must find it
    space = {"hexagon": hexagon, "octagon": Polytope(OCTAGON)}.get(name) or parse_space(name)
    dual = space.dual()
    alpha = 0.3
    b2 = 2 * k - (2 / 3) * k * alpha
    rng = np.random.default_rng(5)
    for _ in range(6):
        x = space.unit(rng.standard_normal(2))
        f = space.support(x) + 0.2 * rng.standard_normal(2)
        p = pair_state(space, x, f / dual.norm(f))
        delta = 1.0 - p.action + 0.02
        res = bpb_corrector(space, p, delta, k, alpha, cfg_fast)
        w = res.witness
        assert is_in_pi(pair_state(space, w.y, w.g))
        a, b = space.norm(p.x - w.y), dual.norm(p.f - w.g)
        assert a <= delta / k and b <= b2
        assert (res.slack_x, res.slack_f, w.distance) == (delta / k - a, b2 - b, max(a, b))


def test_corrector_deterministic(l2, cfg_fast):
    t = math.acos(0.9)
    p = pair_state(l2, [1, 0], [math.cos(t), math.sin(t)])
    a = bpb_corrector(l2, p, 0.15, 0.4, 0.5, cfg_fast)
    b = bpb_corrector(l2, p, 0.15, 0.4, 0.5, cfg_fast)
    np.testing.assert_array_equal(a.witness.y, b.witness.y)
    assert a.slack_x == b.slack_x

import importlib
import math
import pkgutil
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpbmod import (EstimatorConfig, HilbertPair, Polytope, distance_to_pi,
                    hausdorff_modulus_set, hilbert_distance, is_in_pi,
                    pair_state, parse_space, sample_pi)
import bpbmod
from bpbmod import moduli, pi_set
from bpbmod.pi_set import EmptyConstraintError, SweepTooLargeError, build_pi_sample

RNG = np.random.default_rng(20240810)


# ---------------------------------------------------------------------------
# membership


def test_is_in_pi_hilbert_unit_pair(l2):
    assert is_in_pi(pair_state(l2, [1, 0], [1, 0]))


def test_is_in_pi_linf_facet_vertex_pair(linf):
    assert is_in_pi(pair_state(linf, [1, 1], [1, 0]))


def test_is_in_pi_rejects_zero_action(l2):
    assert not is_in_pi(pair_state(l2, [1, 0], [0, 1]))


# ---------------------------------------------------------------------------
# sampling


def test_sample_pi_hilbert_is_diagonal(l2):
    pairs = sample_pi(l2, EstimatorConfig(resolution=8))
    for y, g in pairs:
        np.testing.assert_allclose(y, g, atol=1e-12)
        assert is_in_pi(pair_state(l2, y, g))
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
            assert is_in_pi(pair_state(space, y, g))


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
    assert is_in_pi(pair_state(linf, w.y, w.g))


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
        assert is_in_pi(p)


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


def test_distance_on_a_one_dimensional_polytope():
    # the 1-d mesh is scaled onto the unit sphere of the norm, here +-2
    space = Polytope(np.array([[2.0], [-2.0]]))
    w = distance_to_pi(space, pair_state(space, [1.9], [0.5]), EstimatorConfig(resolution=64))
    assert w.distance == pytest.approx(0.05, abs=1e-12)
    assert w.y.tolist() == [2.0] and w.g.tolist() == [0.5]
    assert is_in_pi(pair_state(space, w.y, w.g))


# ---------------------------------------------------------------------------
# the batched attainment-pair search: lanes are independent


SEARCH_SPACES = ["linf:2", "l2:2", "lp:2:p=1.5", "l1:2", "hexagon", "sum1(r:1,r:1)",
                 "suminf(r:1,r:1)", "l2:3"]
HEXAGON = np.array([[math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0)] for k in range(6)])


def _search_space(name):
    return bpbmod.Polytope(HEXAGON) if name == "hexagon" else parse_space(name)


def _query_rows(space, pi, rng, n):
    """Ball pairs, unit pairs near attainment and attainment pairs off the sample."""
    x, f = _ball_rows(space, rng, n), _ball_rows(pi.dual, rng, n)
    y = rng.standard_normal((n, space.dim))
    y /= space.norm_rows(y)[:, None]
    g = space.support_rows(y)
    kind = rng.integers(0, 3, n)[:, None]
    near = g + 0.05 * rng.standard_normal(g.shape)
    near /= pi.dual.norm_rows(near)[:, None]
    return np.where(kind == 0, x, y), np.where(kind == 0, f, np.where(kind == 1, near, g))


@pytest.mark.parametrize("name", SEARCH_SPACES)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9), level=st.sampled_from([0, 1, 2]),
       bounds=st.one_of(st.none(), st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))))
@settings(max_examples=25, deadline=None)
def test_distance_core_batch_matches_one_row_calls(name, seed, n, level, bounds):
    # bounds give the corrector's violation score in place of the distance
    space = _search_space(name)
    pi = pi_set._cached_pi_sample(space, EstimatorConfig(resolution=8 if space.dim == 3 else 64))
    x, f = _query_rows(space, pi, np.random.default_rng(seed), n)
    in_pi = pi_set._in_pi(space.norm_rows(x), pi.dual.norm_rows(f), pi_set._actions(x, f))
    score = np.maximum
    if bounds is not None:
        b1, b2 = bounds
        score = lambda a, b: np.maximum(a - b1, 0.0) + np.maximum(b - b2, 0.0)  # noqa: E731
    batch = pi_set._distance_core(space, x, f, in_pi, pi, level, score)
    for q in range(n):
        one = pi_set._distance_core(space, x[q : q + 1], f[q : q + 1], in_pi[q : q + 1],
                                    pi, level, score)
        for got, want in zip(batch, one):
            np.testing.assert_array_equal(got[q], want[0])
    # each level starts from the one below and keeps only what beats it
    if level > 0:
        below = pi_set._distance_core(space, x, f, in_pi, pi, level - 1, score)
        assert (batch[0] <= below[0]).all()


@pytest.mark.parametrize("name", ["linf:2", "l1:2", "hexagon"])
def test_dual_face_zoom_reaches_the_face_minimum(name):
    # at a ball vertex, with f near its dual face, the level-1 distance is
    # the least functional gap over that face; a brute force over 10,001
    # points of the face finds the same value, since on these polygons the
    # gap is flat around its minimum
    space = _search_space(name)
    pi = pi_set._cached_pi_sample(space, EstimatorConfig(resolution=64))
    rng = np.random.default_rng(11)
    ts = np.linspace(0.0, 1.0, 10001)[:, None]
    assert len(pi.face_y) > 0
    for y, lo, hi in zip(pi.face_y, *pi.face_g):
        t0, r = rng.uniform(size=(2, 25, 1))
        u = rng.standard_normal((25, 2))
        f = (1.0 - t0) * lo + t0 * hi + 0.3 * r * u / pi.dual.norm_rows(u)[:, None]
        x = np.repeat(y[None], 25, axis=0)
        in_pi = pi_set._in_pi(space.norm_rows(x), pi.dual.norm_rows(f), pi_set._actions(x, f))
        d = pi_set._distance_core(space, x, f, in_pi, pi, level=1)[0]
        face = (1.0 - ts) * lo + ts * hi
        brute = [pi.dual.norm_rows(fq - face).min() for fq in f]
        np.testing.assert_allclose(d, brute, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("k", [1, 2])
@given(seed=st.integers(0, 2**32 - 1), lanes=st.integers(1, 5), rounds=st.integers(0, 4))
@settings(max_examples=30, deadline=None)
def test_zoom_lanes_match_per_lane_calls(k, seed, lanes, rounds):
    rng = np.random.default_rng(seed)
    center = rng.uniform(-4.0, 4.0, (lanes, k))
    width = rng.uniform(1e-3, 1.0, (lanes, k))
    best = np.where(rng.random(lanes) < 0.3, np.inf, rng.uniform(-1.0, 2.0, lanes))

    def score(*axes):
        # kinked, with ties between grid points
        return sum(np.round(np.abs(np.sin((j + 2) * a)), 2) for j, a in enumerate(axes))

    got_c, got_v = pi_set._zoom(score, center, width, best, rounds=rounds, npts=5, shrink=0.35)
    for i in range(lanes):
        c, v = pi_set._zoom(score, center[i : i + 1], width[i : i + 1], best[i : i + 1],
                            rounds=rounds, npts=5, shrink=0.35)
        np.testing.assert_array_equal(got_c[i], c[0])
        assert got_v[i] == v[0]


LIPSCHITZ_SPACES = ["l2:2", "linf:2", "l1:2", "lp:2:p=1.5", "lp:2:p=1.1", "hexagon",
                    "sum1(r:1,r:1)", "suminf(r:1,r:1)"]


@pytest.mark.parametrize("name", LIPSCHITZ_SPACES)
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_distance_is_1_lipschitz_in_the_max_metric(name, seed):
    # |d(p) - d(p')| <= max(|x - x'|, |f - f'|*) for p' at offsets up to 1e-1, 1e-3, 1e-6.
    # Derandomized: about 1 in 3,000 draws puts p inside the 1e-9 tolerance
    # of Pi but 1e-5 off it, which defect 11 (tests/test_defects.py) pins
    space = _search_space(name)
    pi = pi_set._cached_pi_sample(space, EstimatorConfig(resolution=400))
    rng = np.random.default_rng(seed)
    x, f = _query_rows(space, pi, rng, 1)
    u, v = rng.standard_normal((2, 3, 2))
    step = np.array([1e-1, 1e-3, 1e-6])[:, None] * rng.uniform(size=(2, 3, 1))
    x = np.concatenate([x, x + step[0] * u / space.norm_rows(u)[:, None]])
    f = np.concatenate([f, f + step[1] * v / pi.dual.norm_rows(v)[:, None]])
    in_pi = pi_set._in_pi(space.norm_rows(x), pi.dual.norm_rows(f), pi_set._actions(x, f))
    d = pi_set._distance_core(space, x, f, in_pi, pi)[0]
    moved = np.maximum(space.norm_rows(x[1:] - x[0]), pi.dual.norm_rows(f[1:] - f[0]))
    assert (np.abs(d[1:] - d[0]) <= moved + 1e-9).all(), (d, moved)


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
    assert len(pi.sweep.points) == 64
    assert len(pi.face_y) == 6


def test_sphere_mesh_is_built_once_and_read_only(l2, hexagon):
    cfg = EstimatorConfig(resolution=32)
    mesh = pi_set._sphere_mesh(l2, cfg)
    # one array serves the Pi sample, the pair sweeps, alpha and convexity
    assert pi_set._cached_pi_sample(l2, cfg).points is mesh.points
    assert moduli._alpha_points(l2, cfg) is mesh
    # a warm sweep builds no mesh: the dual mesh is keyed on the Pi sample's
    # dual, not on a fresh polytope dual, which hashes by identity
    hausdorff_modulus_set(hexagon, 0.5, "ball", cfg)
    misses = pi_set._sphere_mesh.cache_info().misses
    hausdorff_modulus_set(hexagon, 0.5, "ball", cfg)
    assert pi_set._sphere_mesh.cache_info().misses == misses
    for a in (mesh.points, mesh.angles):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_program_caches_are_private():
    # perfbench finds the caches to clear by their cache_clear, and its tracer
    # rebinds every public function, which would hide a public cache
    for info in pkgutil.iter_modules(bpbmod.__path__):
        mod = importlib.import_module(f"bpbmod.{info.name}")
        for name, obj in vars(mod).items():
            if callable(getattr(obj, "cache_clear", None)):
                assert name.startswith("_"), f"{mod.__name__}.{name}"


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


def _check_seeds(space, pi, xs, fs, floor, tile_rows):
    """The best-first scan's seeds are the dense oracle's stable top rows,
    bitwise, whether every pair min-max run reduces over the Pi samples
    within its bound (``_CUT_PAIRS`` 1, ``_CUT_SHARE`` 1) or none does (no
    run has more pairs than there are functionals)."""
    want = _dense_scan(space, pi.dual, xs, fs, floor, pi)
    for cut_pairs in (1, len(fs) + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pi_set, "_TILE_ELEMS", tile_rows * len(pi.points))
            mp.setattr(pi_set, "_CUT_PAIRS", cut_pairs)
            mp.setattr(pi_set, "_CUT_SHARE", 1.0)
            if want is None:
                with pytest.raises(EmptyConstraintError):
                    pi_set._scan_pairs(space, pi.dual, xs, fs, floor, pi)
                return
            rows, vals, cols = pi_set._scan_pairs(space, pi.dual, xs, fs, floor, pi)
        best_val, best_j = want
        order = np.argsort(-best_val, kind="stable")[: pi_set._TOP_K]
        order = order[np.isfinite(best_val[order])]
        np.testing.assert_array_equal(rows, order)
        np.testing.assert_array_equal(vals, best_val[order])
        np.testing.assert_array_equal(cols, best_j[order])


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
    _check_seeds(space, pi, xs, fs, floor, tile_rows)


@pytest.mark.parametrize("tile_rows", [1, 7, 64])
@pytest.mark.parametrize("case", ["l2 sweep", "ball with origin", "few feasible rows"])
@pytest.mark.parametrize("floor", [-0.5, 0.3, 0.9])
def test_scan_pairs_matches_dense_oracle_on_meshes(sweep_spaces, tile_rows, case, floor):
    # the sweep meshes of l2:2 make near-ties everywhere; a ball mesh has the
    # origin row, feasible for floors up to 0; a floor between the second and
    # third best rows' best actions leaves fewer feasible rows than seeds
    cfg = EstimatorConfig(resolution=64)
    space = sweep_spaces["l2:2" if case == "l2 sweep" else "hexagon"]
    pi = pi_set._cached_pi_sample(space, cfg)
    xm, fm = pi_set._sphere_mesh(space, cfg), pi_set._sphere_mesh(pi.dual, cfg)
    if case == "ball with origin":
        xm, fm = pi_set._ball_mesh(cfg, xm), pi_set._ball_mesh(cfg, fm)
    xs, fs = xm.points, fm.points
    if case == "few feasible rows":
        rng = np.random.default_rng(int(10 * floor) + 5)
        xs = xm.points[rng.permutation(len(xm.points))[:40]] * np.linspace(0.2, 0.95, 40)[:, None]
        best = np.sort((xs @ fs.T).max(axis=1))
        floor = float(best[-3] + best[-2]) / 2.0
        assert 0 < (best >= floor).sum() < pi_set._TOP_K
    _check_seeds(space, pi, xs, fs, floor, tile_rows)


def test_scan_pairs_refuses_past_the_ceiling_before_any_distance_row(monkeypatch):
    cfg = EstimatorConfig(resolution=64)
    space = parse_space("l2:2")
    pi = pi_set._cached_pi_sample(space, cfg)
    xs = pi_set._sphere_mesh(space, cfg).points
    fs = pi_set._sphere_mesh(pi.dual, cfg).points
    need = len(fs) * len(pi.points) * 8
    # at the ceiling the sweep runs
    monkeypatch.setattr(pi_set, "_DF_BYTES_MAX", need)
    assert len(pi_set._scan_pairs(space, pi.dual, xs, fs, 0.5, pi)[0]) > 0

    def no_rows(*args):
        raise AssertionError("a distance row was built")

    monkeypatch.setattr(pi_set, "_distance_rows", no_rows)
    monkeypatch.setattr(pi_set, "_nearest_anchors", no_rows)
    monkeypatch.setattr(pi_set, "_DF_BYTES_MAX", need - 1)
    with pytest.raises(SweepTooLargeError, match="lower --resolution"):
        pi_set._scan_pairs(space, pi.dual, xs, fs, 0.5, pi)


def test_scan_pairs_builds_few_point_distance_rows(sweep_spaces):
    # a silent fall back to the dense scan would build one per marked row
    cfg = EstimatorConfig(resolution=400)
    for kind in ("linf:2", "hexagon"):
        space = sweep_spaces[kind]
        pi = pi_set._cached_pi_sample(space, cfg)
        xs = pi_set._sphere_mesh(space, cfg).points
        fs = pi_set._sphere_mesh(pi.dual, cfg).points
        marked = int((xs @ fs.T >= 0.9 - 1e-12).any(axis=1).sum())
        built = []
        distance_rows = pi_set._distance_rows

        def counting(kernel, rows, targets, out):
            if targets is pi.points:
                built.append(len(rows))
            return distance_rows(kernel, rows, targets, out)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pi_set, "_distance_rows", counting)
            hausdorff_modulus_set(space, 0.1, "sphere", cfg)
        assert sum(built) < 0.6 * marked, (kind, sum(built), marked)


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


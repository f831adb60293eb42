import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpbmod import (DimensionMismatchError, EstimatorConfig, Lp, Polytope,
                    SpaceError, SpaceSpecError, Sum1, SumInf, parse_space)
from bpbmod import pi_set, spaces
from bpbmod.spaces import sphere_chart
from bpbmod.verify import polytope_gauge_lp_oracle

RNG = np.random.default_rng(20240810)


# ---------------------------------------------------------------------------
# norm


def test_norm_linf(linf):
    assert linf.norm([1.0, -1.0]) == 1.0


def test_norm_l1(l1):
    assert l1.norm([0.3, -0.4]) == pytest.approx(0.7, abs=1e-15)


def _symmetric(vertices):
    vertices = np.asarray(vertices, dtype=float)
    return Polytope(np.vstack([vertices, -vertices]))


def test_norm_polytope_matches_lp_oracle(diamond):
    v = [0.5, 0.5]
    expected = polytope_gauge_lp_oracle(diamond.vertices, v)
    assert expected == pytest.approx(1.0, abs=1e-12)
    assert diamond.norm(v) == pytest.approx(expected, abs=1e-12)
    # the diamond gauge is the 1-norm
    for vec in RNG.standard_normal((20, 2)):
        assert diamond.norm(vec) == pytest.approx(np.abs(vec).sum(), abs=1e-12)
    rng = np.random.default_rng(7)
    polytopes = [
        _symmetric([[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]]),  # cube
        _symmetric(np.eye(3)),                                       # octahedron
        _symmetric(rng.standard_normal((9, 3))),
        _symmetric(rng.standard_normal((12, 4))),
    ]
    for poly in polytopes:
        rows = rng.standard_normal((25, poly.dim))
        got = poly.norm_rows(rows)
        for row, value in zip(rows, got):
            expected = polytope_gauge_lp_oracle(poly.vertices, row)
            assert value == pytest.approx(expected, abs=1e-12)


def test_norm_dimension_mismatch(l2):
    with pytest.raises(DimensionMismatchError):
        l2.norm([1.0, 2.0, 3.0])


def test_polytope_requires_symmetry():
    with pytest.raises(SpaceError):
        Polytope(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]))


def test_polytope_requires_interior():
    with pytest.raises(SpaceError):
        Polytope(np.array([[1.0, 0.0], [-1.0, 0.0]]))  # a segment in the plane


# ---------------------------------------------------------------------------
# dual norm


def test_dual_norm_linf(linf):
    assert linf.dual_norm([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)


def test_dual_norm_square_vertices(square):
    assert square.dual_norm([1.0, 0.0]) == pytest.approx(1.0, abs=1e-15)


def test_dual_norm_sum1(sum1_rr):
    assert sum1_rr.dual_norm([0.3, 0.9]) == pytest.approx(0.9, abs=1e-15)


def test_dual_norm_lp_conjugate():
    space = Lp(1.5, 3)
    f = np.array([0.2, -1.1, 0.7])
    q = 3.0  # conjugate of 1.5
    assert space.dual_norm(f) == pytest.approx(np.sum(np.abs(f) ** q) ** (1 / q), rel=1e-12)


# ---------------------------------------------------------------------------
# support functionals


def test_support_l2(l2):
    np.testing.assert_allclose(l2.support([3.0, 4.0]), [0.6, 0.8],
                               atol=1e-15)


def test_support_linf_unique_facet(linf):
    np.testing.assert_allclose(linf.support([0.5, 1.0]), [0.0, 1.0],
                               atol=1e-15)


def test_support_l1_sign_vector(l1):
    np.testing.assert_allclose(l1.support([1.0, 0.0]), [1.0, 0.0],
                               atol=1e-15)


def test_support_rejects_zero(l2):
    with pytest.raises(SpaceError):
        l2.support([0.0, 0.0])


def test_euclidean_norm_scales_tiny_and_huge_rows(l2):
    # squares of 1e-200 underflow and those of 1e200 overflow
    assert l2.norm([1e-200, 0.0]) == 1e-200
    assert l2.norm([1e200, 1e200]) == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
    np.testing.assert_array_equal(l2.support([1e-200, 0.0]), [1.0, 0.0])
    # every other row keeps the bits of the plain sum of squares
    rows = np.array([[3.0, 4.0], [1e-200, 0.0], [0.3, -0.7], [1e200, 1e200], [0.0, 0.0]])
    got = l2.norm_rows(rows)
    plain = [0, 2, 4]
    np.testing.assert_array_equal(got[plain], np.sqrt((rows[plain] ** 2).sum(axis=1)))


def test_support_barycentric_at_linf_vertex(linf):
    # at a ball vertex the subdifferential face is averaged
    np.testing.assert_allclose(linf.support([1.0, 1.0]), [0.5, 0.5],
                               atol=1e-12)


# rows on subdifferential ties: a linf vertex, equal suminf components, a
# zero sum1 component (and zero l1 coordinates)
TIE_ROWS = np.array([[1.0, 1.0], [-1.0, 1.0], [0.5, -0.5], [1.0, 0.0], [0.0, -2.0]])


@pytest.mark.parametrize("space_key", ["l1", "l2", "linf", "hexagon", "sum1_rr",
                                       "suminf_rr"])
def test_support_properties(space_key, request):
    space = request.getfixturevalue(space_key)
    vs = np.vstack([RNG.standard_normal((40, space.dim)), TIE_ROWS])
    vs = vs[space.norm_rows(vs) >= 1e-9]
    fs = space.support_rows(vs)
    for v, f_row in zip(vs, fs):
        f = space.support(v)
        np.testing.assert_array_equal(f_row, f)
        assert float(np.dot(f, v)) >= space.norm(v) - 1e-9
        assert space.dual_norm(f) <= 1.0 + 1e-9


@pytest.mark.parametrize("spec", ["lp:3:p=1.5", "linf:3", "suminf(l1:2,r:1)",
                                  "sum1(l2:2,r:1)", "cube"])
def test_support_rows_match_scalar_dim3(spec):
    space = (_symmetric([[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]])
             if spec == "cube" else parse_space(spec))
    vs = np.vstack([RNG.standard_normal((20, 3)),
                    [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, -1.0]]])
    fs = space.support_rows(vs)
    for v, f_row in zip(vs, fs):
        np.testing.assert_array_equal(f_row, space.support(v))
        assert float(np.dot(f_row, v)) == pytest.approx(space.norm(v), abs=1e-9)
        assert space.dual_norm(f_row) == pytest.approx(1.0, abs=1e-9)


def _cube():
    return _symmetric([[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]])


KERNEL_SPACES = {
    "l1": lambda: Lp(1.0, 2), "l2": lambda: Lp(2.0, 2), "linf": lambda: Lp(math.inf, 2),
    "lp:2:p=1.5": lambda: parse_space("lp:2:p=1.5"),
    "hexagon": lambda: Polytope(np.array([[math.cos(k * math.pi / 3.0),
                                           math.sin(k * math.pi / 3.0)] for k in range(6)])),
    "sum1_rr": lambda: parse_space("sum1(r:1,r:1)"),
    "suminf_rr": lambda: parse_space("suminf(r:1,r:1)"),
    "lp:3:p=1.5": lambda: parse_space("lp:3:p=1.5"), "linf:3": lambda: parse_space("linf:3"),
    "l2:4": lambda: parse_space("l2:4"), "l1:4": lambda: parse_space("l1:4"),
    "linf:4": lambda: parse_space("linf:4"), "lp:4:p=3": lambda: parse_space("lp:4:p=3"),
    "sum1(l2:2,r:1)": lambda: parse_space("sum1(l2:2,r:1)"),
    "suminf(l1:2,r:1)": lambda: parse_space("suminf(l1:2,r:1)"),
    "cube": _cube,
    "octahedron": lambda: _symmetric(np.eye(3)),
    "random3": lambda: _symmetric(np.random.default_rng(3).standard_normal((9, 3))),
}


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _kernel_rows(dim):
    """Rows past the long-batch threshold: random rows, zero coordinates,
    ties, +-0.0, and rows scaled by 1e-200 and 1e200."""
    rng = np.random.default_rng(11)
    n = spaces._LOOP_ROWS + 40
    rows = rng.standard_normal((n, dim))
    rows[::6, 0] = 0.0
    rows[1::6, -1] = -0.0
    rows[2::6] = np.where(rng.random((len(rows[2::6]), dim)) < 0.5, -1.0, 1.0)
    rows[3::12] *= 1e-200
    rows[4::12] *= 1e200
    special = np.array([np.zeros(dim), -np.zeros(dim), np.ones(dim),
                        np.r_[1.0, np.zeros(dim - 1)], np.r_[-0.0, np.full(dim - 1, 0.5)]])
    return np.vstack([rows, special])


@pytest.mark.parametrize("key", sorted(KERNEL_SPACES))
def test_row_kernels_do_not_depend_on_the_batch(key):
    # a long batch folds its columns and facets one at a time; a one-row
    # call reduces them in one call: the bits, signs of zero too, must agree
    space = KERNEL_SPACES[key]()
    rows = _kernel_rows(space.dim)
    nonzero = rows[space.norm_rows(rows) > 0.0]
    assert len(nonzero) >= spaces._LOOP_ROWS
    for kernel, batch in ((space.norm_rows, rows), (space.dual().norm_rows, rows),
                          (space.support_rows, nonzero)):
        out = _bits(kernel(batch))
        for i in range(len(batch)):
            np.testing.assert_array_equal(out[i], _bits(kernel(batch[i : i + 1]))[0])


@pytest.mark.parametrize("key", sorted(KERNEL_SPACES))
def test_dual_norm_is_the_norm_of_the_dual_space_bitwise(key):
    # one route to X*: a polytope's vertex maximum and the facet gauge of
    # its polar differ in the last bit
    space = KERNEL_SPACES[key]()
    for f in _kernel_rows(space.dim):
        assert _bits(space.dual_norm(f)) == _bits(space.dual().norm(f))


@pytest.mark.parametrize("key", sorted(KERNEL_SPACES))
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_norms_are_even_bitwise(key, seed):
    # the alpha and convexity sweeps take |x - y| for |y - x|; a polytope's
    # facet pairs are not exact negatives, which broke this in the last bit
    space = KERNEL_SPACES[key]()
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((spaces._LOOP_ROWS + 40, space.dim))
    rows *= 10.0 ** rng.uniform(-3, 3, size=(len(rows), 1))
    rows = np.vstack([rows, _kernel_rows(space.dim)])
    for norm_rows in (space.norm_rows, space.dual().norm_rows):
        np.testing.assert_array_equal(_bits(norm_rows(-rows)), _bits(norm_rows(rows)))
        for row in rows[:8]:
            assert _bits(norm_rows(-row[None]))[0] == _bits(norm_rows(row[None]))[0]


_REDUCE_ENTRIES = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -3e-300, 5e-324, -5e-324, 1e-310,
                            1e300, np.inf, -np.inf, np.nan])


@pytest.mark.parametrize("ufunc", [np.add, np.maximum])
@pytest.mark.parametrize("width", range(1, 10))
def test_reduce_rows_is_numpy_reduce_bitwise(ufunc, width):
    # numpy reduces narrow rows in column order; a release that changes
    # that order fails here
    rng = np.random.default_rng(width)
    for n in (0, 1, spaces._LOOP_ROWS - 1, spaces._LOOP_ROWS, 1000):
        for a in (rng.standard_normal((n, width)),
                  rng.choice(_REDUCE_ENTRIES, size=(n, width)),
                  rng.choice(_REDUCE_ENTRIES[:2], size=(n, width))):
            with np.errstate(all="ignore"):
                want, got = ufunc.reduce(a, axis=1), spaces._reduce_rows(ufunc, a)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(_bits(got), _bits(want))
    flags = rng.random((1000, width)) < 0.5
    count = spaces._reduce_rows(np.add, flags)
    assert count.dtype == flags.sum(axis=1).dtype
    np.testing.assert_array_equal(count, flags.sum(axis=1))


@pytest.mark.parametrize("k", range(1, 10))
def test_max_row_products_is_the_matrix_max_bitwise(k):
    rng = np.random.default_rng(k)
    mat, scale = rng.standard_normal((k, 3)), rng.random(k) + 0.5
    for n in (1, spaces._LOOP_ROWS - 1, spaces._LOOP_ROWS, 1000):
        rows = rng.standard_normal((n, 3))
        rows[::5] = 0.0
        rows[1::5, 1] = -0.0
        rows[2::5] *= 1e-300
        prod = spaces._row_products(rows, mat)
        np.testing.assert_array_equal(_bits(spaces._max_row_products(rows, mat, scale)),
                                      _bits((np.abs(prod) / scale).max(axis=1)))


def test_support_rows_on_ties(linf, sum1_rr, suminf_rr):
    np.testing.assert_array_equal(linf.support_rows(TIE_ROWS[:1]), [[0.5, 0.5]])
    np.testing.assert_array_equal(suminf_rr.support_rows(TIE_ROWS[2:3]), [[0.5, -0.5]])
    np.testing.assert_array_equal(sum1_rr.support_rows(TIE_ROWS[3:]),
                                  [[1.0, 0.0], [0.0, -1.0]])


def test_support_lp_general():
    space = Lp(3.0, 3)
    v = np.array([0.5, -1.2, 0.1])
    f = space.support(v)
    assert float(np.dot(f, v)) == pytest.approx(space.norm(v), rel=1e-12)
    assert space.dual_norm(f) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# duality pairing, bidual, sums


@pytest.mark.parametrize("space_key", ["l1", "l2", "linf", "hexagon", "diamond",
                                       "sum1_rr", "suminf_rr"])
def test_holder_pairing(space_key, request):
    space = request.getfixturevalue(space_key)
    vs = RNG.standard_normal((30, space.dim))
    fs = RNG.standard_normal((30, space.dim))
    for v, f in zip(vs, fs):
        assert abs(np.dot(f, v)) <= space.dual_norm(f) * space.norm(v) + 1e-9


def test_bidual_polytope_dim2(hexagon):
    polar = hexagon.dual()
    for v in RNG.standard_normal((25, 2)):
        assert polar.dual_norm(v) == pytest.approx(hexagon.norm(v), abs=1e-10)


def test_bidual_polytope_dim3():
    octa = Polytope(np.vstack([np.eye(3), -np.eye(3)]))
    polar = octa.dual()
    for v in RNG.standard_normal((10, 3)):
        assert polar.dual_norm(v) == pytest.approx(octa.norm(v), abs=1e-8)


def test_polytope_has_one_row_per_facet():
    # the hull is built from triangles, two on each square face of the cube
    cube = _cube()
    normals, offsets, _ = cube._hull
    assert len(normals) == len(offsets) == 6
    octahedron = np.vstack([np.eye(3), -np.eye(3)])
    assert sorted(map(tuple, cube.dual().vertices)) == sorted(map(tuple, octahedron))


def test_support_at_a_prism_edge_is_the_facet_barycenter():
    # hexagonal prism: 6 side faces and 2 hexagons, which the hull triangulates
    hexagon = [(math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0)) for k in range(6)]
    prism = Polytope(np.array([(x, y, z) for x, y in hexagon for z in (1.0, -1.0)]))
    assert len(prism._hull[0]) == 8
    # midpoint of the edge where the top face meets the side face (1, 1/sqrt 3, 0)
    v = np.array([(1.0 + hexagon[1][0]) / 2.0, hexagon[1][1] / 2.0, 1.0])
    side, top = np.array([1.0, 1.0 / math.sqrt(3.0), 0.0]), np.array([0.0, 0.0, 1.0])
    np.testing.assert_allclose(prism.support(v), (side + top) / 2.0, atol=1e-12)


# ---------------------------------------------------------------------------
# the vertex hull, against scipy's Qhull as the oracle


def _hull_cases():
    hexagon = [(math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0)) for k in range(6)]
    cube = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
    rng = np.random.default_rng(7)  # the draws of test_norm_polytope_matches_lp_oracle
    random3, random4 = rng.standard_normal((9, 3)), rng.standard_normal((12, 4))
    jittered = cube[:4] + np.random.default_rng(1).uniform(-1e-13, 1e-13, (4, 3))
    cells = [p for p in itertools.product((1.0, -1.0, 0.0), repeat=4)
             if sum(map(abs, p)) == 2.0]
    return {
        "hexagon": np.array(hexagon),
        "cube": cube,
        "octahedron": np.vstack([np.eye(3), -np.eye(3)]),
        "hexagonal prism": np.array([(x, y, z) for x, y in hexagon for z in (1.0, -1.0)]),
        "random3": np.vstack([random3, -random3]),
        "random4": np.vstack([random4, -random4]),
        "tesseract": np.array(list(itertools.product((1.0, -1.0), repeat=4))),
        "4-d cross-polytope": np.vstack([np.eye(4), -np.eye(4)]),
        "24-cell": np.array(cells),
        "jittered cube": np.vstack([jittered, -jittered]),
    }


def _assert_hull_matches_qhull(poly):
    from scipy.spatial import ConvexHull  # the oracle only; the package never loads it

    normals, offsets, ids = poly._hull
    hull = ConvexHull(poly.vertices)
    ours = normals / offsets[:, None]
    theirs = hull.equations[:, :-1] / -hull.equations[:, -1:]
    # Qhull's facets are simplices, so its list repeats a plane of a larger
    # facet; as sets of planes scaled to c = 1 the two hulls are equal, to
    # 1e-12 of each plane's largest coefficient where that exceeds 1 (a
    # facet near the origin has coefficients in the hundreds)
    gap = (np.abs(ours[:, None, :] - theirs[None, :, :]).max(axis=2)
           / np.maximum(1.0, np.abs(theirs).max(axis=1)))
    assert gap.min(axis=1).max() <= 1e-12
    assert gap.min(axis=0).max() <= 1e-12
    assert (np.abs(ours[:, None, :] - ours[None, :, :]).max(axis=2) > 1e-12).sum() == \
        len(ours) * (len(ours) - 1)
    # the same extreme points (as points: a repeated row may be either copy)
    assert (set(map(tuple, poly.vertices[ids]))
            == set(map(tuple, poly.vertices[hull.vertices])))
    assert poly.norm_rows(poly.vertices).max() <= 1.0 + 1e-12
    rows = np.random.default_rng(0).standard_normal((20, poly.dim))
    np.testing.assert_allclose(poly.dual().dual().norm_rows(rows), poly.norm_rows(rows),
                               rtol=0, atol=1e-10)


@pytest.mark.parametrize("name", list(_hull_cases()))
def test_vertex_hull_matches_qhull(name):
    poly = Polytope(_hull_cases()[name])
    _assert_hull_matches_qhull(poly)
    # the dual's facets are not simplices: the 4-d ones join up to 18 vertices
    _assert_hull_matches_qhull(poly.dual())


@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_vertex_hull_matches_qhull_on_symmetric_draws(data):
    # grid points, so that coplanar and repeated rows come up often
    dim = data.draw(st.integers(2, 4))
    k = data.draw(st.integers(1, 8))
    half = np.array(data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=dim,
                                                max_size=dim),
                                       min_size=k, max_size=k)), dtype=float) / 4.0
    v = np.vstack([half, -half])
    if np.linalg.matrix_rank(v) < dim:
        with pytest.raises(SpaceError, match="^vertex hull has empty interior$"):
            Polytope(v)
        return
    _assert_hull_matches_qhull(Polytope(v))


@pytest.mark.parametrize("flat", [
    [[1.0, 0.0], [-1.0, 0.0], [0.5, 0.0], [-0.5, 0.0]],
    [[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [-1.0, 1.0, 0.0]],
])
def test_flat_vertex_lists_have_empty_interior(flat):
    with pytest.raises(SpaceError, match="^vertex hull has empty interior$"):
        Polytope(np.array(flat))


def test_vertex_hull_order_is_canonical():
    # 2-d: the extreme points and the facet normals each counter-clockwise
    # from the positive first axis, whatever the order of the rows
    hexagon = np.array([(math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0))
                        for k in range(6)])
    perm = [4, 1, 5, 0, 3, 2]
    poly = Polytope(hexagon[perm])
    np.testing.assert_array_equal(poly.ball_vertices(), hexagon)
    normals, offsets, _ = poly._hull
    angles = np.arctan2(normals[:, 1], normals[:, 0]) % (2.0 * math.pi)
    np.testing.assert_allclose(angles, np.pi / 6.0 + np.arange(6) * np.pi / 3.0, atol=1e-12)
    # 3-d: the extreme points by row index, the facets by the sorted indices
    # of their extreme points: x = 1 holds rows 0-3, y = 1 rows 0, 1, 6, 7, ...
    cube = _cube()
    normals, offsets, ids = cube._hull
    np.testing.assert_array_equal(ids, np.arange(8))
    np.testing.assert_array_equal(normals, [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                                            [0, 0, -1], [0, -1, 0], [-1, 0, 0]])
    np.testing.assert_array_equal(offsets, np.ones(6))


def test_dual_space_constructions(l1, l2, linf, sum1_rr, suminf_rr):
    assert l1.dual() == Lp(math.inf, 2)
    assert linf.dual() == Lp(1.0, 2)
    assert l2.dual() == l2
    assert isinstance(sum1_rr.dual(), SumInf)
    assert isinstance(suminf_rr.dual(), Sum1)


def test_sum_norms_exact(r1):
    s1, si = Sum1(r1, r1), SumInf(r1, r1)
    for v in RNG.standard_normal((20, 2)):
        assert s1.norm(v) == abs(v[0]) + abs(v[1])
        assert si.norm(v) == max(abs(v[0]), abs(v[1]))


def test_nested_sum_dims(r1, l2):
    nested = Sum1(SumInf(r1, r1), l2)
    assert nested.dim == 4
    v = np.array([1.0, -2.0, 3.0, 4.0])
    assert nested.norm(v) == pytest.approx(2.0 + 5.0, abs=1e-12)


# ---------------------------------------------------------------------------
# norm axioms (property-based)


@st.composite
def vectors(draw, dim=2):
    return np.array([draw(st.floats(-10, 10, allow_nan=False)) for _ in range(dim)])


@given(u=vectors(), v=vectors(), lam=st.floats(-5, 5, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_norm_axioms_hexagon(u, v, lam, hexagon):
    nu, nv = hexagon.norm(u), hexagon.norm(v)
    assert hexagon.norm(u + v) <= nu + nv + 1e-9
    assert hexagon.norm(lam * u) == pytest.approx(abs(lam) * nu, abs=1e-9)
    if nu == 0.0:
        assert np.all(u == 0.0)


@given(u=vectors(dim=3), v=vectors(dim=3))
@settings(max_examples=100, deadline=None)
def test_norm_axioms_lp(u, v):
    space = Lp(2.5, 3)
    assert space.norm(u + v) <= space.norm(u) + space.norm(v) + 1e-9


TWO_D_KINDS = ["l1", "l2", "linf", "lp:2:p=1.5", "hexagon", "sum1_rr", "suminf_rr"]
angles = st.floats(-10.0, 10.0, allow_nan=False)


@pytest.mark.parametrize("key", TWO_D_KINDS)
@given(phi=st.lists(angles, min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_chart_points_are_attainment_pairs(key, phi):
    space = KERNEL_SPACES[key]()
    pts = sphere_chart(space, phi)
    funcs = space.support_rows(pts)
    np.testing.assert_allclose(space.norm_rows(pts), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(space.dual().norm_rows(funcs), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose((funcs * pts).sum(axis=1), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("key", TWO_D_KINDS)
@given(phi=st.lists(angles, min_size=1, max_size=8), data=st.data())
@settings(max_examples=40, deadline=None)
def test_chart_with_per_row_radii_matches_scalar_radius_calls(key, phi, data):
    space = KERNEL_SPACES[key]()
    radii = np.array(data.draw(st.lists(st.floats(0.0, 2.0), min_size=len(phi),
                                        max_size=len(phi))))
    rows = sphere_chart(space, phi, radii)
    for i, (t, r) in enumerate(zip(phi, radii)):
        np.testing.assert_array_equal(rows[i], sphere_chart(space, [t], float(r))[0])


@pytest.mark.parametrize("key", TWO_D_KINDS + ["lp:3:p=1.5", "sum1(l2:2,r:1)", "cube"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_bidual_gives_back_the_norm(key, data):
    space = KERNEL_SPACES[key]()
    rows = np.array([data.draw(vectors(dim=space.dim)) for _ in range(4)])
    expected = space.norm_rows(rows)
    np.testing.assert_allclose(space.dual().dual().norm_rows(rows), expected,
                               rtol=0, atol=1e-12 * max(1.0, expected.max()))


# ---------------------------------------------------------------------------
# unit-sphere meshes


def sphere_points(space, resolution):
    return pi_set._sphere_mesh(space, EstimatorConfig(resolution=resolution)).points


def test_sphere_sample_l2_axes(l2):
    pts = sphere_points(l2, 8)
    assert len(pts) == 8
    np.testing.assert_allclose(pts[0], [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(l2.norm_rows(pts), 1.0, atol=1e-12)


def test_sphere_sample_angular_gap(linf):
    res = 400
    pts = sphere_points(linf, res)
    angles = np.arctan2(pts[:, 1], pts[:, 0])
    gaps = np.diff(np.sort(angles))
    assert gaps.max() <= 2.0 * math.pi / res + 1e-9


def test_sphere_sample_sum1(sum1_rr):
    pts = sphere_points(sum1_rr, 100)
    np.testing.assert_allclose(np.abs(pts).sum(axis=1), 1.0, atol=1e-12)


def test_sphere_sample_dim3_membership():
    space = Lp(2.0, 3)
    pts = sphere_points(space, 16)
    assert len(pts) == 256
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


def test_sphere_sample_dim4_seeded():
    # the normalised draw of default_rng(1729), the one seed of the package
    space = Lp(1.0, 4)
    a = sphere_points(space, 8)
    dirs = np.random.default_rng(1729).standard_normal((8 ** 3, 4))
    np.testing.assert_array_equal(a, dirs / space.norm_rows(dirs)[:, None])
    np.testing.assert_allclose(np.abs(a).sum(axis=1), 1.0, atol=1e-12)


def test_sphere_sample_dim_limit():
    with pytest.raises(SpaceError):
        sphere_points(Lp(2.0, 5), 8)


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(resolution=4)


# ---------------------------------------------------------------------------
# spec grammar and describe


@pytest.mark.parametrize("spec,kind,dim", [
    ("l2:2", "lp", 2),
    ("l1:3", "lp", 3),
    ("linf:2", "lp", 2),
    ("lp:3:p=1.5", "lp", 3),
    ("r:1", "lp", 1),
    ("sum1(r:1,r:1)", "sum1", 2),
    ("suminf(l2:2,r:1)", "suminf", 3),
    ("sum1(suminf(r:1,r:1),l2:2)", "sum1", 4),
])
def test_parse_space(spec, kind, dim):
    space = parse_space(spec)
    d = space.describe()
    assert d["kind"] == kind
    assert space.dim == dim


def test_parse_poly_file(tmp_path):
    path = tmp_path / "ball.json"
    path.write_text(json.dumps({"vertices": [[1, 0], [-1, 0], [0, 1], [0, -1]]}))
    space = parse_space(f"poly:@{path}")
    assert isinstance(space, Polytope)
    assert space.norm([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", ["", "l3:2", "lp:2", "sum1(l2:2)", "poly:@/no/file",
                                 "sum2(r:1,r:1)"])
def test_parse_errors(bad):
    with pytest.raises(SpaceSpecError):
        parse_space(bad)


def test_repr_names_the_fields():
    assert repr(parse_space("linf:3")) == "Lp(p=inf, dim=3)"
    assert repr(parse_space("sum1(r:1,l2:2)")) == "Sum1(a=Lp(p=2.0, dim=1), b=Lp(p=2.0, dim=2))"

"""The norm-attainment set and max-metric distances to it.

For a space X, the attainment set is

    Pi(X) = {(y, g) : |y| = |g|* = g(y) = 1},

and the distance of a point-functional pair to it is measured in the max
metric d((x, f), (y, g)) = max(|x - y|, |f - g|*).  This module meshes
unit spheres, samples Pi(X) (covering the face structure of polytopal balls
in two dimensions), computes certified-upper-bound distances with local
refinement, and runs the grid suprema that estimate the almost-attainment
moduli.

One search, ``_distance_core``, serves a batch of query pairs: each stage
but the euclidean closed forms is a few array calls over all pairs, and each
pair gets bitwise its own result.  2-d refinement runs through ``sphere_chart``
with ``support_rows``; ``_zoom`` and ``_golden_min`` run one lane per grid or
bracket.  A distance zooms into up to three basins of the cyclic sweep
profile (the best sample and the two lowest other local minima), then
polishes by golden section; a modulus zooms its best pairs in lock-step.

A grid supremum needs only the ``_TOP_K`` best rows of its mesh sweep, and
``_scan_pairs`` finds them best first over fixed-size tiles of x rows.  A
first pass tests the action only, marking the x rows and functionals with a
feasible partner.  The sample distance to Pi is 1-Lipschitz in the max
metric, so its values on pairs of anchors, every ``_ANCHOR_STEP``-th marked
row and functional, bound it on every pair; a second pass takes each row's
bound.  Rows are then evaluated in decreasing bound, and the pairs and at
last the rows whose bound falls below the ``_TOP_K``-th best value so far
are skipped.  The seeds, their values and their argmax functionals are
bitwise those of a scan of every feasible pair.  The one array that grows
with the mesh is the functionals' distance rows, N_f x N_pi, each built
when a pair first needs it; a sweep that could need more than 1 GiB for
them raises ``SweepTooLargeError``, a regime error, before any work, and
so does a unit-sphere mesh whose coordinates alone would pass 256 MiB.

Estimators are deterministic for a fixed resolution: reductions break ties
by lowest sample index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import GeneratorType

import numpy as np

from .closed_forms import RegimeError
from .spaces import (_SEED, EstimatorConfig, Lp, NormedSpace, SpaceError, as_vector,
                     mesh_gap, sphere_chart)

__all__ = [
    "Mesh",
    "PairState",
    "PiWitness",
    "ModulusEstimate",
    "EmptyConstraintError",
    "SweepTooLargeError",
    "pair_state",
    "is_in_pi",
    "sample_pi",
    "distance_to_pi",
    "hausdorff_modulus_set",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Float64 values in one scratch tile of the streamed pair sweeps (1 MiB).
_TILE_ELEMS = 1 << 17
# Ceiling on the distance rows of a pair sweep, the one array it keeps
# whose size grows with the mesh.
_DF_BYTES_MAX = 1 << 30
# Ceiling on the coordinates of one unit-sphere mesh; drawing it takes a
# few transients of this size.
_MESH_BYTES_MAX = 1 << 28
# Largest dimension with a unit-sphere mesh: it has resolution**(dim - 1) points.
_SAMPLE_DIM_LIMIT = 4
# Best mesh rows of a pair sweep that seed its refinement.
_TOP_K = 4
# Every _ANCHOR_STEP-th marked row and column of a pair sweep is an anchor
# of its distance bounds.
_ANCHOR_STEP = 8


class EmptyConstraintError(ValueError):
    """No sampled pair satisfies the almost-attainment constraint."""


class SweepTooLargeError(RegimeError):
    """A pair sweep would need more memory than its ceiling allows."""


@dataclass(frozen=True)
class PairState:
    """A point-functional pair with cached norms and action value."""

    x: np.ndarray
    f: np.ndarray
    norm_x: float
    norm_f: float
    action: float


@dataclass(frozen=True)
class PiWitness:
    """An attainment pair together with its max-metric distance to a query."""

    y: np.ndarray
    g: np.ndarray
    distance: float

    def to_json_dict(self) -> dict:
        return {"y": [float(c) for c in self.y],
                "g": [float(c) for c in self.g],
                "distance": float(self.distance)}


@dataclass(frozen=True)
class ModulusEstimate:
    """Grid supremum with its mesh-error estimate and its argmax."""

    value: float
    mesh_error: float
    pair: PairState
    witness: PiWitness


def pair_state(space: NormedSpace, x, f) -> PairState:
    x = as_vector(x, space.dim)
    f = as_vector(f, space.dim)
    return PairState(x, f, space.norm(x), space.dual_norm(f), float(np.dot(f, x)))


def _in_pi(nx, nf, act) -> np.ndarray:
    """Whether pairs with these norms and actions lie in Pi, up to 1e-9; row-wise on arrays."""
    return (np.abs(nx - 1.0) <= 1e-9) & (np.abs(nf - 1.0) <= 1e-9) & (np.abs(act - 1.0) <= 1e-9)


def is_in_pi(p: PairState) -> bool:
    """True iff the pair lies on the attainment set up to 1e-9."""
    return bool(_in_pi(p.norm_x, p.norm_f, p.action))


# ---------------------------------------------------------------------------
# Sampling Pi(X)


@dataclass(frozen=True)
class Mesh:
    """Rows meshing a sphere or a ball, with their 2-d chart coordinates and gap."""

    points: np.ndarray          # (N, d); in 2-d row i is sphere_chart(angles[i], radii[i])
    angles: np.ndarray | None   # None above dimension 2
    radii: np.ndarray | None    # None on the unit sphere
    gap: float                  # largest gap between neighbouring rows, in the norm


@dataclass(frozen=True)
class PiSample:
    """Cached arrays of attainment pairs for one (space, config)."""

    dual: NormedSpace
    points: np.ndarray       # (N, d); the first len(sweep.points) rows are the sweep
    functionals: np.ndarray  # (N, d)
    sweep: Mesh              # the unit-sphere mesh of the space
    face_y: np.ndarray       # (F, d); the 2-d ball vertices with a dual face segment
    face_g: np.ndarray       # (2, F, d); the end functionals of each vertex's segment
    gap: float               # covering estimate in the max metric


def _face_segments(space: NormedSpace, dual: NormedSpace) -> tuple[np.ndarray, np.ndarray]:
    """Dual-face segments at the non-smooth ball vertices (2-d only).

    Returns the unit vertices y, (F, d), and the segment ends g, (2, F, d):
    the supporting functionals of boundary points slightly to either side
    of each vertex; for polytopal balls these are exactly the two adjacent
    facet functionals.  Vertices whose ends coincide are dropped.
    """
    v = space.ball_vertices() if space.dim == 2 else np.zeros((0, space.dim))
    if len(v) == 0:
        return v, np.zeros((2, 0, space.dim))
    y = v / space.norm_rows(v)[:, None]
    t = 1e-7 * np.column_stack([-y[:, 1], y[:, 0]])
    side = np.concatenate([y - t, y + t])
    g = space.support_rows(side / space.norm_rows(side)[:, None]).reshape(2, len(y), 2)
    keep = dual.norm_rows(g[1] - g[0]) > 1e-9
    return y[keep], g[:, keep]


def build_pi_sample(space: NormedSpace, config: EstimatorConfig) -> PiSample:
    """Sample Pi(X): sphere sweep plus dual-face meshes at 2-d vertices."""
    dual = space.dual()
    sweep = _sphere_mesh(space, config)
    pts, funcs = sweep.points, space.support_rows(sweep.points)

    face_y, face_g = _face_segments(space, dual)
    gap = sweep.gap
    if len(face_y):
        m = max(17, config.resolution // 8)
        m += (m + 1) % 2  # odd, so the barycentric center is on the mesh
        ts = np.linspace(0.0, 1.0, m)[:, None]
        g = ((1.0 - ts) * face_g[0][:, None] + ts * face_g[1][:, None]).reshape(-1, space.dim)
        nd = dual.norm_rows(g)[:, None]
        pts = np.concatenate([pts, np.repeat(face_y, m, axis=0)])
        funcs = np.concatenate([funcs, np.where(np.abs(nd - 1.0) > 1e-12, g / nd, g)])
        face_step = dual.norm_rows(face_g[1] - face_g[0]) / max(1, config.resolution // 8)
        gap = max(gap, float(face_step.max()))
    return PiSample(dual, pts, funcs, sweep, face_y, face_g, gap)


@lru_cache(maxsize=32)
def _cached_pi_sample(space: NormedSpace, config: EstimatorConfig) -> PiSample:
    return build_pi_sample(space, config)


def sample_pi(space: NormedSpace, config: EstimatorConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """Attainment pairs as a list of (point, functional) arrays."""
    pi = _cached_pi_sample(space, config)
    return [(pi.points[i].copy(), pi.functionals[i].copy()) for i in range(len(pi.points))]


# ---------------------------------------------------------------------------
# Distance of a pair to Pi(X)


def _golden_lane(a: float, b: float, iters: int):
    """Golden section on [a, b]: yields each point and receives its value, then yields (t, min)."""
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = yield c
    fd = yield d
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = yield c
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = yield d
    yield (c, fc) if fc <= fd else (d, fd)


def _golden_min(fn, lo, hi, iters: int = 60):
    """Golden-section minima of unimodal functions, one lane per bracket [lo[i], hi[i]].

    ``lo`` and ``hi`` are lists of floats.  Each lane is a ``_golden_lane``
    in Python floats; every step makes one ``fn`` call on the array of all
    lanes' next points.  Returns the lanes' minimizers and values.
    """
    lanes = [_golden_lane(a, b, iters) for a, b in zip(lo, hi)]
    pts = [next(lane) for lane in lanes]
    for _ in range(iters + 2):
        pts = list(map(GeneratorType.send, lanes, fn(np.array(pts)).tolist()))
    return tuple(zip(*pts))


def _zoom(score, center, halfwidth, best, *, rounds: int, npts: int, shrink: float):
    """Shrinking product-grid minimizers over one or two angles; robust to kinks.

    One lane per row of ``center`` (L, k), with incumbent values ``best``.
    Each round scores the ``npts``-per-axis grid around every lane's center
    with one ``score(*axes)`` call on the flattened grids, lane after lane.
    A lane moves to its lowest value only if that strictly beats its
    incumbent (ties go to the lowest grid index), and all half-widths shrink
    by ``shrink``.  Returns the final centers and values.  Maximizers pass
    the negated score.
    """
    center, best = np.array(center, dtype=float), np.array(best, dtype=float)
    w = np.broadcast_to(np.asarray(halfwidth, dtype=float), center.shape)
    lanes, k = center.shape
    idx = np.indices((npts,) * k).reshape(k, -1)  # the ij-ordered product grid
    pick = np.arange(lanes)
    for _ in range(rounds):
        # np.linspace(c - h, c + h, npts) per lane and axis, bitwise
        lo, hi = center - w, center + w
        axes = np.arange(npts) * ((hi - lo) / (npts - 1))[..., None] + lo[..., None]
        axes[..., -1] = hi
        grid = [axes[:, j, idx[j]] for j in range(k)]
        vals = score(*[g.ravel() for g in grid]).reshape(lanes, idx.shape[1])
        low = vals.argmin(axis=1)
        moved = vals[pick, low] < best
        best = np.where(moved, vals[pick, low], best)
        center = np.where(moved[:, None], np.stack([g[pick, low] for g in grid], axis=1), center)
        w = w * shrink
    return center, best


def _sweep_gaps(space: NormedSpace, dual: NormedSpace, x, f, phi):
    """Gaps |x - y|, |f - g|* from rows x, f to the attainment pairs (y, g) at chart angles."""
    y = sphere_chart(space, phi)
    return space.norm_rows(x - y), dual.norm_rows(f - space.support_rows(y))


def _actions(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Row-wise np.dot(f, x): a stacked matmul keeps its bits, a sum does not."""
    return (f[..., None, :] @ x[..., :, None])[..., 0, 0]


def _vnorm(v: np.ndarray) -> float:
    """np.linalg.norm of a vector, bitwise: the root of its dot with itself."""
    return math.sqrt(v.dot(v))


def _hilbert_witness_candidates(x: np.ndarray, f: np.ndarray) -> list[np.ndarray]:
    """Euclidean candidates for the closest diagonal pair (z, z).

    The minimizer over the sphere is the radial projection of x, of f, or
    the equidistant sphere point in the plane of x and f; all three are
    produced (degenerate configurations fall back to fewer candidates).
    """
    nx, nf = _vnorm(x), _vnorm(f)
    cands = []
    if nx == 0.0 and nf == 0.0:
        z = np.zeros_like(x)
        z[0] = 1.0
        return [z]
    if nx > 0.0:
        cands.append(x / nx)
    if nf > 0.0:
        cands.append(f / nf)
    # plane basis through x and f
    e1 = cands[0]
    w = f - np.dot(f, e1) * e1 if nf > 0.0 else np.zeros_like(x)
    nw = _vnorm(w)
    if nw > 1e-12:
        e2 = w / nw
    else:
        e2 = np.zeros_like(e1)
        k = int(np.argmin(np.abs(e1)))
        e2[k] = 1.0
        e2 -= np.dot(e2, e1) * e1
        e2 /= _vnorm(e2)
    x2 = np.array([np.dot(x, e1), np.dot(x, e2)])
    f2 = np.array([np.dot(f, e1), np.dot(f, e2)])
    d2 = float(np.dot(x2 - f2, x2 - f2))
    if d2 > 1e-24:
        a2 = float(np.dot(x2, x2))
        b2 = float(np.dot(f2, f2))
        s = float(np.dot(x2, f2))
        z = np.array([f2[1] - x2[1], x2[0] - f2[0]])  # orthogonal to x2 - f2
        if np.dot(x2 + f2, z) < 0.0:
            z = -z
        cross = math.sqrt(max(0.0, a2 * b2 - s * s))
        lam_rad = max(0.0, 4.0 * d2 - (a2 - b2) ** 2)
        lam = (-2.0 * cross + math.sqrt(lam_rad)) / (2.0 * d2)
        m2 = (x2 + f2) / 2.0 + lam * z
        nm = _vnorm(m2)
        if nm > 0.0:
            cands.append((m2[0] * e1 + m2[1] * e2) / nm)
    return cands


def _distance_core(space: NormedSpace, x, f, in_pi, pi: PiSample, level: int = 2,
                   score=np.maximum) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Attainment pairs minimizing ``score(|x - y|, |f - g|*)`` for Q query rows.

    ``x`` and ``f`` are (Q, d) rows and ``in_pi`` flags the rows that lie in
    Pi (``is_in_pi``); returns the Q scores and the witness rows y and g.
    ``score`` works elementwise, is nondecreasing in each gap and is 0 at
    (0, 0); the default max gives the max-metric distance.  A row stops
    refining once its score is 0.  Every stage but the euclidean closed forms
    is a few array calls over all rows; row kernels do not depend on the
    batch, so each row's result is bitwise the one it gets alone.

    level 0: discrete minimum over the sample.
    level 1: + dual-face segments and euclidean closed-form candidates.
    level 2: + golden/zoom refinement along the sphere sweep.
    """
    dual = pi.dual
    nq, dim = x.shape
    vals = score(space.norm_rows((x[:, None, :] - pi.points).reshape(-1, dim)),
                 dual.norm_rows((f[:, None, :] - pi.functionals).reshape(-1, dim))).reshape(nq, -1)
    i0 = vals.argmin(axis=1)
    best, ys, gs = vals[np.arange(nq), i0], pi.points.take(i0, axis=0), pi.functionals.take(i0, axis=0)
    for q, inside in enumerate(in_pi):
        if inside and best[q] > 0.0:
            best[q], ys[q], gs[q] = 0.0, x[q], f[q]

    if level >= 1 and len(pi.face_y) and best.any():  # scores are >= 0: some row is above 0
        # convex 1-d minimization over each dual-face segment; the score is
        # nondecreasing in the functional gap, so minimizing that gap suffices.
        # One golden lane per (row, face) that passes the face's skip test
        # score(cx, 0) < best now; the faces then apply in order where their
        # value beats the running best, as a face-by-face loop would: that
        # value is at least score(cx, 0), so it passes the skip test too
        cx = space.norm_rows((x[:, None, :] - pi.face_y).reshape(-1, dim)).reshape(nq, -1)
        lq, ls = np.nonzero(score(cx, 0.0) < best[:, None])
        if lq.size:
            lo, hi = pi.face_g[:, ls]
            fl = f[lq]

            def gap(t):
                return dual.norm_rows(fl - ((1.0 - t)[:, None] * lo + t[:, None] * hi))

            ts, qs = _golden_min(gap, [0.0] * lq.size, [1.0] * lq.size, iters=40)
            t = np.array(ts)
            g = (1.0 - t)[:, None] * lo + t[:, None] * hi
            g = g / dual.norm_rows(g)[:, None]
            v = score(cx[lq, ls], np.array(qs))
            for r in np.argsort(ls, kind="stable"):
                q, s = lq[r], ls[r]
                if v[r] < best[q]:
                    best[q], ys[q], gs[q] = v[r], pi.face_y[s], g[r]
    if level >= 1 and isinstance(space, Lp) and space.p == 2.0 and space.dim >= 2:
        # exact euclidean candidates: closed forms, row by row
        for q in np.flatnonzero(best > 0.0):
            for z in _hilbert_witness_candidates(x[q], f[q]):
                v = score(_vnorm(x[q] - z), _vnorm(f[q] - z))
                if v < best[q]:
                    best[q], ys[q], gs[q] = v, z, z

    live = np.flatnonzero(best > 0.0) if level >= 2 and pi.sweep.angles is not None else ()
    if len(live):
        n = len(pi.sweep.points)
        step = 2.0 * math.pi / n
        # zoom into each row's best sweep sample and the two lowest other
        # local minima of its cyclic sweep profile
        profile = vals[live, :n]
        minima = (profile < np.roll(profile, 1, axis=1)) & (profile <= np.roll(profile, -1, axis=1))
        lanes, first = [], [0]
        for r, q in enumerate(live):
            i_sweep = int(np.argmin(profile[r]))
            m = np.flatnonzero(minima[r])
            m = m[np.argsort(profile[r, m], kind="stable")]
            lanes += [(q, i) for i in [i_sweep] + [int(i) for i in m if i != i_sweep][:2]]
            first.append(len(lanes))
        lq, basin = np.array(lanes).T
        phi0 = pi.sweep.angles[basin]
        rounds, npts = 4, 13
        xg, fg = np.repeat(x[lq], npts, axis=0), np.repeat(f[lq], npts, axis=0)
        start = score(*_sweep_gaps(space, dual, x[lq], f[lq], phi0))
        zoomed, zv = _zoom(lambda phi: score(*_sweep_gaps(space, dual, xg, fg, phi)),
                           phi0[:, None], step, start, rounds=rounds, npts=npts,
                           shrink=2.0 / (npts - 1))
        # polish each row's best-sample basin, and its best zoomed one if that is another
        pl = []
        for a, b in zip(first, first[1:]):
            k = a + int(np.argmin(zv[a:b]))
            pl += [a] + [k] * (k > a)
        pq = lq[pl]
        xp, fp = x[pq], f[pq]
        c, w = zoomed[pl, 0], step * (2.0 / (npts - 1)) ** rounds
        ts, vs = _golden_min(lambda t: score(*_sweep_gaps(space, dual, xp, fp, t)),
                             (c - 2.0 * w).tolist(), (c + 2.0 * w).tolist(), iters=50)
        y = sphere_chart(space, ts)
        g = space.support_rows(y)
        for r, q in enumerate(pq):
            if vs[r] < best[q]:
                best[q], ys[q], gs[q] = vs[r], y[r], g[r]

    return best, ys, gs


def distance_to_pi(space: NormedSpace, p: PairState,
                   config: EstimatorConfig = EstimatorConfig()) -> PiWitness:
    """Upper-bound distance of a pair to the attainment set, with witness.

    The value is the max-metric distance to the returned witness pair, hence
    always an upper bound of the true distance; it converges to it as the
    resolution grows, and local refinement plus euclidean closed-form
    candidates make 2-d estimates tight far beyond the mesh scale.
    """
    pi = _cached_pi_sample(space, config)
    d, y, g = _distance_core(space, p.x[None], p.f[None], [is_in_pi(p)], pi, level=2)
    return PiWitness(y[0], g[0], float(d[0]))


# ---------------------------------------------------------------------------
# Grid suprema over almost-attainment constraint sets


def _tile_rows(width: int) -> int:
    """Rows of ``width`` values that fit in one scratch tile."""
    return max(1, _TILE_ELEMS // max(width, 1))


def _distance_rows(kernel, rows, targets, out):
    """out[i, k] = kernel(rows[i] - targets[k]), in tiles of difference rows."""
    npi, dim = targets.shape
    step = _tile_rows(npi * dim)
    for lo in range(0, len(rows), step):
        diff = rows[lo : lo + step, None, :] - targets[None, :, :]
        out[lo : lo + step] = kernel(diff.reshape(-1, dim)).reshape(-1, npi)
    return out


def _nearest_anchors(kernel, rows, anchors):
    """Per row, its euclidean-nearest anchor and the ``kernel`` distance to it.

    Any anchor would keep the sweep's bounds valid, since the distance
    returned is the row's exact kernel distance to the anchor it got.
    """
    near = np.empty(len(rows), dtype=int)
    sq = (anchors * anchors).sum(axis=1)
    step = _tile_rows(len(anchors))
    for lo in range(0, len(rows), step):
        near[lo : lo + step] = (sq - 2.0 * (rows[lo : lo + step] @ anchors.T)).argmin(axis=1)
    return near, kernel(rows - anchors[near])


def _row_starts(pr):
    """Where each run of equal values in the sorted row indices ``pr`` starts."""
    return np.flatnonzero(np.concatenate(([True], pr[1:] != pr[:-1])))


def _pair_minmax(dx, df, pr, pc, buf):
    """min_k max(dx[pr[p], k], df[pc[p], k]) per pair p, for pairs sorted by pr.

    Each dx row meets the df rows of its pairs in chunks of the scratch buffer.
    """
    out = np.empty(len(pr))
    bounds = np.append(_row_starts(pr), len(pr))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        row = dx[pr[lo]]
        for c in range(lo, hi, len(buf)):
            b = buf[: min(len(buf), hi - c)]
            np.take(df, pc[c : c + len(b)], axis=0, out=b, mode="clip")
            np.maximum(row, b, out=b)
            b.min(axis=1, out=out[c : c + len(b)])
    return out


def _scan_pairs(space, dual, xs, fs, floor, pi):
    """The ``_TOP_K`` best rows of V(x_i) = max over feasible j of V(x_i, f_j), exactly.

    V(x, f) = min_k max(|x - y_k|, |f - g_k|*) is the sample distance.
    Returns ``(rows, values, cols)``, at most ``_TOP_K`` entries: the rows
    with a feasible j in the order of a stable sort by decreasing value
    (ties to the lowest row), each with its value and its lowest argmax j.
    These are bitwise the first rows of a scan of every feasible pair.

    The search is best first.  Every ``_ANCHOR_STEP``-th marked row and
    column is an anchor; each marked row i and column j gets its
    euclidean-nearest anchor a(i), b(j) at exact norm distance r_i, r'_j.
    V is 1-Lipschitz in the max metric, so
    UB(i, j) = V(a(i), b(j)) + max(r_i, r'_j) + 1e-9 (float slack) bounds
    V(x_i, f_j).  V is computed on the anchor pairs that feasible pairs map
    to, and each row's bound U_i, the max of UB over its feasible j,
    streams through the x-row tiles.  Rows are then evaluated in decreasing
    U_i, in batches that grow sixteenfold, each taken tile by tile.  With tau
    the ``_TOP_K``-th best value so far, the pairs with UB < tau are
    skipped, and the search stops at the first row with U_i < tau; tau
    rises after every tile.  Point distance rows are built for the anchors
    and the evaluated rows only, and functional distance rows for the
    anchors and when a surviving pair first needs them.  Every feasibility test takes its tile's whole product, so
    all test the same action bits.  No array has N_x x N_f entries.
    """
    npi, dim = pi.points.shape
    need = len(fs) * npi * 8
    if need > _DF_BYTES_MAX:
        raise SweepTooLargeError(
            f"the pair sweep needs {need / 2**30:.1f} GiB of distance rows "
            f"(ceiling {_DF_BYTES_MAX / 2**30:.0f} GiB); lower --resolution")
    thr = floor - 1e-12
    step = _tile_rows(max(len(fs), npi * dim))

    rows_ok = np.zeros(len(xs), dtype=bool)
    cols_ok = np.zeros(len(fs), dtype=bool)
    for lo in range(0, len(xs), step):
        feas = xs[lo : lo + step] @ fs.T >= thr
        rows_ok[lo : lo + step] = feas.any(axis=1)
        cols_ok |= feas.any(axis=0)
    if not cols_ok.any():
        raise EmptyConstraintError(
            f"no sampled pair satisfies action >= {floor} (resolution too low)")
    rows, cols = np.flatnonzero(rows_ok), np.flatnonzero(cols_ok)

    # anchors; a and b are positions in rows and cols, r and rc the exact
    # distances to them.  The anchors' distance rows are built first, and
    # an anchor row's serve its evaluation too
    ra, ca = rows[::_ANCHOR_STEP], cols[::_ANCHOR_STEP]
    a, r = _nearest_anchors(space.norm_rows, xs[rows], xs[ra])
    b, rc = _nearest_anchors(dual.norm_rows, fs[cols], fs[ca])
    nb = len(ca)
    buf = np.empty((min(_tile_rows(npi), len(cols)), npi))
    df = np.empty((len(cols), npi))
    built = np.zeros(len(cols), dtype=bool)
    built[::_ANCHOR_STEP] = True
    _distance_rows(dual.norm_rows, fs[ca], pi.functionals, df[::_ANCHOR_STEP])
    dxa = _distance_rows(space.norm_rows, xs[ra], pi.points, np.empty((len(ra), npi)))
    v_anchor = np.full(len(ra) * nb, np.nan)

    def pairs(lo, p):
        # the feasible pairs of rows p in the tile at lo, by row and then
        # column, with their anchor pairs.  Feasibility comes from the
        # product of the whole tile, as the marking pass took it: a BLAS
        # product's last bit depends on the shape of the call
        feas = (xs[lo : lo + step] @ fs.T >= thr)[rows[p] - lo]
        pr, pc = np.nonzero(feas if len(cols) == len(fs) else feas[:, cols])
        return pr, pc, a[p[pr]] * nb + b[pc]

    def upper(p, pr, pc, k):
        return v_anchor[k] + np.maximum(r[p[pr]], rc[pc]) + 1e-9

    def row_max(pr, vals):
        # per row present in pr: the max of vals and the position of its first hit
        first = _row_starts(pr)
        best = np.maximum.reduceat(vals, first)
        hit = np.flatnonzero(vals == np.repeat(best, np.diff(np.append(first, len(pr)))))
        return first, best, hit[np.searchsorted(hit, first)]

    # U, tile by tile, with V on an anchor pair the first time a feasible
    # pair maps to it; every marked row has a feasible pair
    u = np.empty(len(rows))
    for lo in range(0, len(xs), step):
        p = np.arange(*np.searchsorted(rows, [lo, lo + step]))
        if p.size == 0:
            continue
        pr, pc, k = pairs(lo, p)
        miss = np.unique(k[np.isnan(v_anchor[k])])
        if miss.size:
            v_anchor[miss] = _pair_minmax(dxa, df, miss // nb, miss % nb * _ANCHOR_STEP, buf)
        u[p] = row_max(pr, upper(p, pr, pc, k))[1]

    # best first: batches of rows in decreasing U (ties to the lowest row),
    # each evaluated tile by tile; tau rises after every tile
    order = np.argsort(-u, kind="stable")
    top_v, top_i, top_j = np.empty(0), np.empty(0, dtype=int), np.empty(0, dtype=int)
    tau, start, size = -np.inf, 0, _TOP_K
    while start < len(order) and u[order[start]] >= tau:
        batch = order[start : start + size]
        start, size = start + size, 16 * size
        tile = rows[batch] // step
        for t in np.unique(tile):
            p = batch[(tile == t) & (u[batch] >= tau)]
            if p.size == 0:
                continue
            pr, pc, k = pairs(t * step, p)
            live = upper(p, pr, pc, k) >= tau
            pr, pc = pr[live], pc[live]
            if pr.size == 0:
                continue
            new = np.unique(pc[~built[pc]])
            for c in range(0, len(new), len(buf)):
                js = new[c : c + len(buf)]
                df[js] = _distance_rows(dual.norm_rows, fs[cols[js]], pi.functionals, buf[: len(js)])
            built[new] = True
            dx = np.empty((len(p), npi))
            lead = p % _ANCHOR_STEP == 0  # anchor rows
            dx[lead] = dxa[p[lead] // _ANCHOR_STEP]
            dx[~lead] = _distance_rows(space.norm_rows, xs[rows[p[~lead]]], pi.points,
                                       np.empty((len(p) - lead.sum(), npi)))
            first, best, arg = row_max(pr, _pair_minmax(dx, df, pr, pc, buf))
            top_v = np.concatenate([top_v, best])
            top_i = np.concatenate([top_i, rows[p[pr[first]]]])
            top_j = np.concatenate([top_j, cols[pc[arg]]])
            keep = np.lexsort((top_i, -top_v))[:_TOP_K]
            top_v, top_i, top_j = top_v[keep], top_i[keep], top_j[keep]
            if len(keep) == _TOP_K:
                tau = top_v[-1]
    return top_i, top_v, top_j


def _sup_over_pairs(space, xm: Mesh, fm: Mesh, floor, pi, *, refine_rounds=3):
    """Supremum of distance-to-Pi over feasible pairs of a point and a functional mesh.

    ``xm`` meshes points of the space and ``fm`` functionals of ``pi.dual``.
    Feasibility is ``dot(f, x) >= floor`` (up to 1e-12 to keep exact-equality
    constructions feasible in floating point).  The seeds, up to ``_TOP_K``
    mesh rows each with its best feasible functional, come from the
    best-first ``_scan_pairs``, ranked bitwise as a scan of every feasible
    pair would rank them.  In 2-d the seeds are zoomed in lock-step over
    both chart angles, with a first half-width of the sweep step
    2 pi / len(pi.sweep.points):
    each round is one level-1 distance search over every feasible grid point
    of every seed.  One level-2 search then refines the seeds and the zoomed
    pairs together.  The mesh error is max(xm.gap, fm.gap) / 2 + pi.gap / 2.
    Returns a ModulusEstimate; deterministic: the argmax tie-breaks to the
    lowest (i, j), and a zoomed pair must beat it strictly.
    """
    dual = pi.dual
    xs, fs = xm.points, fm.points
    si, _, sj = _scan_pairs(space, dual, xs, fs, floor, pi)
    x, f = xs[si], fs[sj]
    if xm.angles is not None and refine_rounds > 0:  # 2-d: zoom over both sweep angles
        step = 2.0 * math.pi / len(pi.sweep.points)
        rx = np.ones(len(si)) if xm.radii is None else xm.radii[si]
        rf = np.ones(len(sj)) if fm.radii is None else fm.radii[sj]
        zl = np.flatnonzero((rx != 0.0) | (rf != 0.0))
        npts = 5
        rxg, rfg = np.repeat(rx[zl], npts * npts), np.repeat(rf[zl], npts * npts)

        def score(phix, phif):
            # minus the level-1 distance; infeasible pairs score +inf
            gx, gf = sphere_chart(space, phix, rxg), sphere_chart(dual, phif, rfg)
            act = _actions(gx, gf)
            ok = np.flatnonzero(act >= floor - 1e-12)
            out = np.full(len(gx), np.inf)
            if ok.size:
                gx, gf = gx[ok], gf[ok]
                in_pi = _in_pi(space.norm_rows(gx), dual.norm_rows(gf), act[ok])
                out[ok] = -_distance_core(space, gx, gf, in_pi, pi, level=1)[0]
            return out

        centers, v = _zoom(score, np.column_stack([xm.angles[si[zl]], fm.angles[sj[zl]]]), step,
                           np.full(len(zl), np.inf), rounds=refine_rounds, npts=npts, shrink=0.35)
        zl, centers = zl[v < np.inf], centers[v < np.inf]
        x = np.concatenate([x, sphere_chart(space, centers[:, 0], rx[zl])])
        f = np.concatenate([f, sphere_chart(dual, centers[:, 1], rf[zl])])

    # one refinement of the seeds and the zoomed pairs; the best seed, then
    # each zoomed pair in seed order if it is strictly larger
    nx, nf, act = space.norm_rows(x), dual.norm_rows(f), _actions(x, f)
    d, y, g = _distance_core(space, x, f, _in_pi(nx, nf, act), pi, level=2)
    k = int(np.argmax(d[: len(si)]))
    for c in range(len(si), len(x)):
        if d[c] > d[k]:
            k = c
    pair = PairState(x[k], f[k], float(nx[k]), float(nf[k]), float(act[k]))
    mesh_error = max(xm.gap, fm.gap) / 2.0 + pi.gap / 2.0
    return ModulusEstimate(float(d[k]), mesh_error, pair, PiWitness(y[k], g[k], float(d[k])))


def _fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic quasi-uniform mesh of the euclidean 2-sphere."""
    i = np.arange(n, dtype=float) + 0.5
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


@lru_cache(maxsize=64)
def _sphere_mesh(space: NormedSpace, config: EstimatorConfig) -> Mesh:
    """The unit-sphere mesh of one (space, config), built once with its gap.

    With r the resolution: in dim 1 the directions +-1; in dim 2, r evenly
    spaced angles through ``sphere_chart``; in dim 3, the r**2 directions
    of ``_fibonacci_sphere``; in dim 4, r**3 Gaussian directions drawn from
    ``default_rng(_SEED)``, without zero rows.  Directions are scaled onto
    the unit sphere of the norm.  Above dimension 4 it raises ``SpaceError``
    (a usage error), before it checks the memory ceiling.  Its arrays are
    read-only, shared by the Pi sample, the pair sweeps, alpha and
    convexity.  Key a dual on ``pi.dual``: a polytope hashes by identity.
    """
    res, dim = config.resolution, space.dim
    if dim > _SAMPLE_DIM_LIMIT:
        raise SpaceError(f"sphere sampling is limited to dimension {_SAMPLE_DIM_LIMIT}")
    need = res ** (dim - 1) * dim * 8
    if need > _MESH_BYTES_MAX:
        raise SweepTooLargeError(
            f"the unit-sphere mesh needs {need / 2**30:.2f} GiB "
            f"(ceiling {_MESH_BYTES_MAX / 2**30:.2f} GiB); lower --resolution")
    angles = None
    if dim == 2:
        angles = np.arange(res) * (2.0 * math.pi / res)
        angles.setflags(write=False)
        pts = sphere_chart(space, angles)
    else:
        if dim == 1:
            dirs = np.array([[1.0], [-1.0]])
        elif dim == 3:
            dirs = _fibonacci_sphere(res ** 2)
        else:
            dirs = np.random.default_rng(_SEED).standard_normal((res ** 3, dim))
            dirs = dirs[np.linalg.norm(dirs, axis=1) > 1e-12]
        pts = dirs / space.norm_rows(dirs)[:, None]
    pts.setflags(write=False)
    return Mesh(pts, angles, None, mesh_gap(space, pts))


def _ball_mesh(config, mesh: Mesh) -> Mesh:
    """Ball mesh: the origin and radial copies of a sphere mesh; its gap adds the radial step."""
    n_r = max(4, config.resolution // 64)
    radii = np.linspace(0.0, 1.0, n_r + 1)[1:]
    n, dim = mesh.points.shape
    xs = np.concatenate([np.zeros((1, dim))] + [r * mesh.points for r in radii])
    angles = None if mesh.angles is None else np.concatenate([[0.0], np.tile(mesh.angles, n_r)])
    rad = np.concatenate([[0.0], np.repeat(radii, n)])
    return Mesh(xs, angles, rad, mesh.gap + (radii[1] - radii[0]))


def hausdorff_modulus_set(space: NormedSpace, delta: float, mode: str,
                          config: EstimatorConfig = EstimatorConfig(), *,
                          refine_rounds: int = 3) -> ModulusEstimate:
    """Grid estimate of the almost-attainment modulus at level delta.

    ``mode='ball'`` sweeps pairs over the product of unit balls and
    ``mode='sphere'`` over the product of unit spheres, constrained by
    ``action >= 1 - delta`` (up to 1e-12, since a mesh cannot represent the
    open condition ``> 1 - delta``); the max of distance-to-Pi over the
    feasible pairs is returned with a mesh-error estimate.
    """
    if not (0.0 < delta < 2.0):
        raise ValueError("delta must be in (0, 2)")
    if mode not in ("ball", "sphere"):
        raise ValueError("mode must be 'ball' or 'sphere'")
    pi = _cached_pi_sample(space, config)
    xm, fm = _sphere_mesh(space, config), _sphere_mesh(pi.dual, config)
    if mode == "ball":
        xm, fm = _ball_mesh(config, xm), _ball_mesh(config, fm)
    return _sup_over_pairs(space, xm, fm, 1.0 - delta, pi, refine_rounds=refine_rounds)

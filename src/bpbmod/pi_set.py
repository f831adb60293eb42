"""The norm-attainment set and max-metric distances to it.

For a space X, the attainment set is

    Pi(X) = {(y, g) : |y| = |g|* = g(y) = 1},

and the distance of a point-functional pair to it is measured in the max
metric d((x, f), (y, g)) = max(|x - y|, |f - g|*).  This module samples
Pi(X) (covering the face structure of polytopal balls in two dimensions),
computes certified-upper-bound distances with local refinement, and runs the
grid suprema that estimate the almost-attainment moduli.

Two-dimensional refinement runs in angles through one chart,
``spaces.sphere_chart`` with ``support_rows``, and one grid zoom, ``_zoom``,
which scores each round's whole grid in one array call.  A distance zooms
into up to three basins of the cyclic sweep profile (the best sample and the
two lowest other local minima), then polishes by golden section.

The grid suprema stream over fixed-size tiles of x rows in two passes.
The first pass tests the action only, marking the x rows and functionals
with a feasible partner.  Distance rows are then built for the marked
functionals alone, and the second pass builds each tile's point distances
for its marked rows and reduces them row by row.  The one array that grows
with the mesh is the functionals' distance rows, N_f x N_pi; a sweep that
would need more than 1 GiB for it raises ``SweepTooLargeError``, a regime
error, before any work.

Estimators are deterministic for a fixed seed and resolution: reductions
break ties by lowest sample index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .closed_forms import RegimeError
from .spaces import (EstimatorConfig, Lp, NormedSpace, as_vector, mesh_gap,
                     sphere_chart, sphere_sample, sphere_sample_angles)

__all__ = [
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
# Best mesh rows of a pair sweep that seed its refinement.
_TOP_K = 4


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


def is_in_pi(space: NormedSpace, p: PairState, tol: float = 1e-9) -> bool:
    """True iff the pair lies on the attainment set up to tol."""
    return (abs(p.norm_x - 1.0) <= tol and abs(p.norm_f - 1.0) <= tol
            and abs(p.action - 1.0) <= tol)


# ---------------------------------------------------------------------------
# Sampling Pi(X)


@dataclass(frozen=True)
class _FaceSegment:
    """A ball vertex with the endpoints of its dual face segment."""

    vertex: np.ndarray
    g_lo: np.ndarray
    g_hi: np.ndarray


@dataclass(frozen=True)
class PiSample:
    """Cached arrays of attainment pairs for one (space, config)."""

    dual: NormedSpace
    points: np.ndarray       # (N, d)
    functionals: np.ndarray  # (N, d)
    sweep_angles: np.ndarray | None
    sweep_count: int
    faces: tuple[_FaceSegment, ...]
    gap: float               # covering estimate in the max metric


def _perp(v: np.ndarray) -> np.ndarray:
    return np.array([-v[1], v[0]])


def _face_segments(space: NormedSpace, dual: NormedSpace) -> list[_FaceSegment]:
    """Dual-face endpoints at each non-smooth ball vertex (2-d only).

    Endpoints are the supporting functionals of boundary points slightly to
    either side of the vertex; for polytopal balls these are exactly the two
    adjacent facet functionals.
    """
    segments = []
    eps = 1e-7
    for v in space.ball_vertices():
        v = v / space.norm(v)
        t = _perp(v)
        g_lo = space.support(space.unit(v - eps * t))
        g_hi = space.support(space.unit(v + eps * t))
        if dual.norm(g_hi - g_lo) > 1e-9:
            segments.append(_FaceSegment(v, g_lo, g_hi))
    return segments


def build_pi_sample(space: NormedSpace, config: EstimatorConfig) -> PiSample:
    """Sample Pi(X): sphere sweep plus dual-face meshes at 2-d vertices."""
    dual = space.dual()
    angles, pts = _sphere_mesh(space, config)
    funcs = space.support_rows(pts)
    sweep_count = len(pts)

    faces = _face_segments(space, dual) if space.dim == 2 else []
    if faces:
        m = max(17, config.resolution // 8)
        m += (m + 1) % 2  # odd, so the barycentric center is on the mesh
        ts = np.linspace(0.0, 1.0, m)[:, None]
        g = np.concatenate([(1.0 - ts) * seg.g_lo + ts * seg.g_hi for seg in faces])
        nd = dual.norm_rows(g)[:, None]
        pts = np.concatenate([pts, np.repeat([seg.vertex for seg in faces], m, axis=0)])
        funcs = np.concatenate([funcs, np.where(np.abs(nd - 1.0) > 1e-12, g / nd, g)])

    gap_pts = mesh_gap(space, pts[:sweep_count], seed=config.seed)
    face_step = 0.0
    for seg in faces:
        face_step = max(face_step, dual.norm(seg.g_hi - seg.g_lo) / max(1, config.resolution // 8))
    gap = max(gap_pts, face_step)
    return PiSample(dual, pts, funcs, angles, sweep_count, tuple(faces), gap)


@lru_cache(maxsize=32)
def _cached_pi_sample(space: NormedSpace, config: EstimatorConfig) -> PiSample:
    return build_pi_sample(space, config)


def sample_pi(space: NormedSpace, config: EstimatorConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """Attainment pairs as a list of (point, functional) arrays."""
    pi = _cached_pi_sample(space, config)
    return [(pi.points[i].copy(), pi.functionals[i].copy()) for i in range(len(pi.points))]


# ---------------------------------------------------------------------------
# Distance of a pair to Pi(X)


def _golden_min(fn, lo: float, hi: float, iters: int = 60):
    """Golden-section minimum of a unimodal function on [lo, hi]."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return (c, fc) if fc <= fd else (d, fd)


def _zoom(score, center, halfwidth, best, *, rounds: int, npts: int, shrink: float):
    """Shrinking product-grid minimizer over one or two angles; robust to kinks.

    Each round scores the ``npts``-per-axis grid around ``center`` with one
    ``score(*axes)`` call on the flattened grid, moves to its lowest value
    only if that strictly beats the incumbent ``best`` (ties go to the
    lowest grid index), and shrinks the half-widths by ``shrink``.  Returns
    the final center and value.  Maximizers pass the negated score.
    """
    center = np.array(center, dtype=float, ndmin=1)
    w = np.broadcast_to(np.asarray(halfwidth, dtype=float), center.shape)
    for _ in range(rounds):
        axes = [np.linspace(c - h, c + h, npts) for c, h in zip(center, w)]
        grid = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]
        vals = score(*grid)
        k = int(np.argmin(vals))
        if vals[k] < best:
            best, center = vals[k], np.array([g[k] for g in grid])
        w = w * shrink
    return center, best


def _sweep_gaps(space: NormedSpace, dual: NormedSpace, p: PairState, phi):
    """Attainment pairs (y, g) at chart angles and the gaps |x - y|, |f - g|*."""
    y = sphere_chart(space, phi)
    g = space.support_rows(y)
    return y, g, space.norm_rows(p.x - y), dual.norm_rows(p.f - g)


def _hilbert_witness_candidates(x: np.ndarray, f: np.ndarray) -> list[np.ndarray]:
    """Euclidean candidates for the closest diagonal pair (z, z).

    The minimizer over the sphere is the radial projection of x, of f, or
    the equidistant sphere point in the plane of x and f; all three are
    produced (degenerate configurations fall back to fewer candidates).
    """
    nx, nf = float(np.linalg.norm(x)), float(np.linalg.norm(f))
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
    nw = float(np.linalg.norm(w))
    if nw > 1e-12:
        e2 = w / nw
    else:
        e2 = np.zeros_like(e1)
        k = int(np.argmin(np.abs(e1)))
        e2[k] = 1.0
        e2 -= np.dot(e2, e1) * e1
        e2 /= np.linalg.norm(e2)
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
        nm = float(np.linalg.norm(m2))
        if nm > 0.0:
            cands.append((m2[0] * e1 + m2[1] * e2) / nm)
    return cands


def _distance_core(space: NormedSpace, p: PairState, pi: PiSample,
                   level: int = 2, score=np.maximum) -> PiWitness:
    """Attainment pair minimizing ``score(|x - y|, |f - g|*)``, with that score.

    ``score`` works elementwise, is nondecreasing in each gap and is 0 at
    (0, 0); the default max gives the max-metric distance.  The search
    stops refining once the score is 0.

    level 0: discrete minimum over the sample.
    level 1: + dual-face segments and euclidean closed-form candidates.
    level 2: + golden/zoom refinement along the sphere sweep.
    """
    dual = pi.dual
    d1 = space.norm_rows(p.x[None, :] - pi.points)
    d2 = dual.norm_rows(p.f[None, :] - pi.functionals)
    vals = score(d1, d2)
    i0 = int(np.argmin(vals))
    best = (float(vals[i0]), pi.points[i0], pi.functionals[i0])

    if is_in_pi(space, p, tol=1e-9) and best[0] > 0.0:
        best = (0.0, p.x, p.f)

    if level >= 1 and best[0] > 0.0:
        # convex 1-d minimization over each dual-face segment; the score is
        # nondecreasing in the functional gap, so minimizing that gap suffices
        for seg in pi.faces:
            cx = space.norm(p.x - seg.vertex)
            if score(cx, 0.0) >= best[0]:
                continue
            glo, ghi = seg.g_lo, seg.g_hi

            def q(t, glo=glo, ghi=ghi):
                return dual.norm(p.f - ((1.0 - t) * glo + t * ghi))

            t_best, q_best = _golden_min(q, 0.0, 1.0, iters=40)
            v = float(score(cx, q_best))
            if v < best[0]:
                g = (1.0 - t_best) * glo + t_best * ghi
                best = (v, seg.vertex, g / dual.norm(g))
        # exact euclidean candidates
        if isinstance(space, Lp) and space.p == 2.0 and space.dim >= 2:
            for z in _hilbert_witness_candidates(p.x, p.f):
                v = float(score(np.linalg.norm(p.x - z), np.linalg.norm(p.f - z)))
                if v < best[0]:
                    best = (v, z, z)

    if level >= 2 and pi.sweep_angles is not None and best[0] > 0.0:
        step = 2.0 * math.pi / pi.sweep_count
        # zoom into the best sweep sample and the two lowest other local
        # minima of the cyclic sweep profile
        profile = vals[: pi.sweep_count]
        i_sweep = int(np.argmin(profile))
        minima = np.flatnonzero((profile < np.roll(profile, 1)) & (profile <= np.roll(profile, -1)))
        minima = minima[np.argsort(profile[minima], kind="stable")]
        basins = [i_sweep] + [int(i) for i in minima if i != i_sweep][:2]

        def sweep_score(phi):
            return score(*_sweep_gaps(space, dual, p, phi)[2:])

        rounds, npts = 4, 13
        starts = [pi.sweep_angles[i : i + 1] for i in basins]
        zoomed = [_zoom(sweep_score, phi0, step, sweep_score(phi0)[0], rounds=rounds, npts=npts,
                        shrink=2.0 / (npts - 1)) for phi0 in starts]
        # polish the best sample's basin, and the best zoomed one if it is another
        k = min(range(len(zoomed)), key=lambda k: zoomed[k][1])
        w = step * (2.0 / (npts - 1)) ** rounds
        for (phi_zoom,), _ in [zoomed[0]] + [zoomed[k]] * (k > 0):
            phi_best, v = _golden_min(lambda t: sweep_score(np.array([t]))[0],
                                      phi_zoom - 2.0 * w, phi_zoom + 2.0 * w, iters=50)
            if v < best[0]:
                y, g, _, _ = _sweep_gaps(space, dual, p, [phi_best])
                best = (float(v), y[0], g[0])

    return PiWitness(np.array(best[1]), np.array(best[2]), best[0])


def distance_to_pi(space: NormedSpace, p: PairState,
                   config: EstimatorConfig = EstimatorConfig()) -> PiWitness:
    """Upper-bound distance of a pair to the attainment set, with witness.

    The value is the max-metric distance to the returned witness pair, hence
    always an upper bound of the true distance; it converges to it as the
    resolution grows, and local refinement plus euclidean closed-form
    candidates make 2-d estimates tight far beyond the mesh scale.
    """
    pi = _cached_pi_sample(space, config)
    if len(pi.points) == 0:
        raise EmptyConstraintError("empty attainment sample")
    return _distance_core(space, p, pi, level=2)


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


def _scan_pairs(space, dual, xs, fs, floor, pi):
    """Per x row, the max over feasible j of min_k max(|x_i - y_k|, |f_j - g_k|*).

    Returns ``(best_val, best_j)``: argmax ties go to the lowest j, and a row
    with no feasible j keeps -inf.  Two passes over x-row tiles: the first
    only marks the rows and columns with a feasible partner; the distance
    rows ``df`` are then built for the marked columns alone, and the second
    pass builds each tile's ``dx`` for its marked rows and reduces row by row
    through scratch buffers allocated once.  No array has N_x x N_f entries.
    """
    npi, dim = pi.points.shape
    need = len(fs) * npi * 8
    if need > _DF_BYTES_MAX:
        raise SweepTooLargeError(
            f"the pair sweep needs {need / 2**30:.1f} GiB of distance rows "
            f"(ceiling {_DF_BYTES_MAX / 2**30:.0f} GiB); lower --resolution")
    thr = floor - 1e-12
    step = _tile_rows(max(len(fs), npi * dim))
    # every pass tiles the action identically: a BLAS product's last bit
    # depends on the shape of the call
    tiles = [(lo, min(lo + step, len(xs))) for lo in range(0, len(xs), step)]

    rows_ok = np.zeros(len(xs), dtype=bool)
    cols_ok = np.zeros(len(fs), dtype=bool)
    for lo, hi in tiles:
        feas = xs[lo:hi] @ fs.T >= thr
        rows_ok[lo:hi] = feas.any(axis=1)
        cols_ok |= feas.any(axis=0)
    if not cols_ok.any():
        raise EmptyConstraintError(
            f"no sampled pair satisfies action >= {floor} (resolution too low)")

    cols = np.flatnonzero(cols_ok)
    df = _distance_rows(dual.norm_rows, fs[cols], pi.functionals, np.empty((len(cols), npi)))
    best_val = np.full(len(xs), -np.inf)
    best_j = np.zeros(len(xs), dtype=int)
    dx = np.empty((min(step, len(xs)), npi))
    chunk = min(_tile_rows(npi), len(cols))
    buf = np.empty((chunk, npi))
    vals = np.empty(len(cols))
    for lo, hi in tiles:
        rows = np.flatnonzero(rows_ok[lo:hi])
        if rows.size == 0:
            continue
        feas = (xs[lo:hi] @ fs.T >= thr)[np.ix_(rows, cols)]
        _distance_rows(space.norm_rows, xs[lo + rows], pi.points, dx[: len(rows)])
        for r, i in enumerate(lo + rows):
            js = np.flatnonzero(feas[r])
            # per row work is |js| x N_pi, in chunks that fit the scratch buffer
            for c in range(0, len(js), chunk):
                b = buf[: min(chunk, len(js) - c)]
                np.take(df, js[c : c + chunk], axis=0, out=b, mode="clip")
                np.maximum(dx[r], b, out=b)
                b.min(axis=1, out=vals[c : c + len(b)])
            k = int(np.argmax(vals[: len(js)]))
            best_val[i] = vals[k]
            best_j[i] = cols[js[k]]
    return best_val, best_j


def _sup_over_pairs(space, xs, fs, floor, pi, *,
                    x_angles=None, x_radii=None, f_angles=None, f_radii=None,
                    refine_rounds=3, outer_gap=0.0):
    """Supremum of distance-to-Pi over feasible (x, f) mesh pairs.

    Feasibility is ``dot(f, x) >= floor`` (up to 1e-12 to keep exact-equality
    constructions feasible in floating point).  Returns a ModulusEstimate;
    deterministic: the argmax tie-breaks to the lowest (i, j).
    """
    dual = pi.dual
    best_val, best_j = _scan_pairs(space, dual, xs, fs, floor, pi)

    order = np.argsort(-best_val, kind="stable")[:_TOP_K]
    seeds = [(int(i), int(best_j[i])) for i in order if np.isfinite(best_val[i])]
    if not seeds:
        raise EmptyConstraintError("constraint set has no usable sampled pair")

    def refined(x, f):
        pr = PairState(x, f, space.norm(x), dual.norm(f), float(np.dot(f, x)))
        w = _distance_core(space, pr, pi, level=2)
        return w.distance, pr, w

    best = max((refined(xs[i], fs[j]) for i, j in seeds), key=lambda b: b[0])
    if x_angles is not None and refine_rounds > 0:  # 2-d: zoom over both sweep angles
        step_x = 2.0 * math.pi / max(1, len(np.unique(np.round(x_angles, 12))))
        step_f = 2.0 * math.pi / max(1, len(np.unique(np.round(f_angles, 12))))
        for i, j in seeds:
            rx = 1.0 if x_radii is None else float(x_radii[i])
            rf = 1.0 if f_radii is None else float(f_radii[j])
            if rx == 0.0 and rf == 0.0:
                continue

            def score(phix, phif, rx=rx, rf=rf):
                # minus the level-1 distance; infeasible pairs score +inf
                x, f = sphere_chart(space, phix, rx), sphere_chart(dual, phif, rf)
                # row-wise np.dot(f, x): a stacked matmul keeps its bits, a sum does not
                act = (f[:, None, :] @ x[:, :, None])[:, 0, 0]
                nx, nf = space.norm_rows(x), dual.norm_rows(f)
                out = np.full(len(x), np.inf)
                for k in np.flatnonzero(act >= floor - 1e-12):
                    pr = PairState(x[k], f[k], nx[k], nf[k], act[k])
                    out[k] = -_distance_core(space, pr, pi, level=1).distance
                return out

            (cx, cf), v = _zoom(score, (x_angles[i], f_angles[j]), (step_x, step_f), np.inf,
                                rounds=refine_rounds, npts=5, shrink=0.35)
            if v < np.inf:
                cand = refined(sphere_chart(space, [cx], rx)[0], sphere_chart(dual, [cf], rf)[0])
                if cand[0] > best[0]:
                    best = cand

    mesh_error = outer_gap / 2.0 + pi.gap / 2.0
    return ModulusEstimate(best[0], mesh_error, best[1], best[2])


def _sphere_mesh(space, config):
    """Unit-sphere mesh with its sweep angles (None above dimension 2)."""
    if space.dim == 2:
        return sphere_sample_angles(space, config.resolution)
    return None, sphere_sample(space, config)


def _ball_mesh(space, config, angles, pts):
    """Radial-by-angular ball mesh over a sphere mesh, with origin and sphere."""
    n_r = max(4, config.resolution // 64)
    radii = np.linspace(0.0, 1.0, n_r + 1)[1:]
    xs = np.concatenate([r * pts for r in radii], axis=0)
    xs = np.concatenate([np.zeros((1, space.dim)), xs], axis=0)
    if angles is not None:
        ang = np.concatenate([[0.0], np.tile(angles, n_r)])
        rad = np.concatenate([[0.0], np.repeat(radii, len(pts))])
    else:
        ang = rad = None
    return ang, rad, xs, radii[1] - radii[0] if n_r > 1 else 1.0


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
    dual = space.dual()
    floor = 1.0 - delta
    x_angles, xs = _sphere_mesh(space, config)
    f_angles, fs = _sphere_mesh(dual, config)
    outer_gap = max(mesh_gap(space, xs, config.seed), mesh_gap(dual, fs, config.seed))
    x_radii = f_radii = None
    if mode == "ball":
        x_angles, x_radii, xs, dr_x = _ball_mesh(space, config, x_angles, xs)
        f_angles, f_radii, fs, dr_f = _ball_mesh(dual, config, f_angles, fs)
        outer_gap += max(dr_x, dr_f)
    return _sup_over_pairs(space, xs, fs, floor, pi,
                           x_angles=x_angles, x_radii=x_radii,
                           f_angles=f_angles, f_radii=f_radii,
                           refine_rounds=refine_rounds, outer_gap=outer_gap)

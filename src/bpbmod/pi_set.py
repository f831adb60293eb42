"""The norm-attainment set and max-metric distances to it.

For a space X, the attainment set is

    Pi(X) = {(y, g) : |y| = |g|* = g(y) = 1},

and the distance of a point-functional pair to it is measured in the max
metric d((x, f), (y, g)) = max(|x - y|, |f - g|*).  This module samples
Pi(X) (covering the face structure of polytopal balls in two dimensions),
computes certified-upper-bound distances with local refinement, and runs the
grid suprema that estimate the almost-attainment moduli.

Estimators are deterministic for a fixed seed and resolution: reductions
break ties by lowest sample index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spaces import (EstimatorConfig, Lp, NormedSpace, as_vector, mesh_gap,
                     sphere_sample, sphere_sample_angles)

__all__ = [
    "PairState",
    "PiWitness",
    "ModulusEstimate",
    "EmptyConstraintError",
    "pair_state",
    "is_in_pi",
    "sample_pi",
    "distance_to_pi",
    "hausdorff_modulus_set",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class EmptyConstraintError(ValueError):
    """No sampled pair satisfies the almost-attainment constraint."""


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
    """Grid supremum with a conservative mesh-error bound and its argmax."""

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

    space: NormedSpace
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
    if space.dim == 2:
        angles, pts = sphere_sample_angles(space, config.resolution)
    else:
        angles, pts = None, sphere_sample(space, config)
    funcs = space.support_rows(pts)
    sweep_count = len(pts)

    faces: list[_FaceSegment] = []
    if space.dim == 2:
        faces = _face_segments(space, dual)
        if faces:
            m = max(17, config.resolution // 8)
            m += (m + 1) % 2  # odd, so the barycentric center is on the mesh
            ts = np.linspace(0.0, 1.0, m)
            extra_pts, extra_funcs = [], []
            for seg in faces:
                for t in ts:
                    g = (1.0 - t) * seg.g_lo + t * seg.g_hi
                    nd = dual.norm(g)
                    if abs(nd - 1.0) > 1e-12:
                        g = g / nd
                    extra_pts.append(seg.vertex)
                    extra_funcs.append(g)
            pts = np.concatenate([pts, np.array(extra_pts)], axis=0)
            funcs = np.concatenate([funcs, np.array(extra_funcs)], axis=0)

    gap_pts = mesh_gap(space, pts[:sweep_count], seed=config.seed)
    face_step = 0.0
    for seg in faces:
        face_step = max(face_step, dual.norm(seg.g_hi - seg.g_lo) / max(1, config.resolution // 8))
    gap = max(gap_pts, face_step)
    return PiSample(space, dual, pts, funcs, angles, sweep_count, tuple(faces), gap)


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


def _zoom_min(fn, x0: float, halfwidth: float, rounds: int = 4, npts: int = 13):
    """Deterministic shrinking-grid minimizer; robust to kinks."""
    best_x, best_v = x0, fn(x0)
    w = halfwidth
    center = x0
    for _ in range(rounds):
        for x in np.linspace(center - w, center + w, npts):
            v = fn(x)
            if v < best_v:
                best_x, best_v = x, v
        center = best_x
        w *= 2.0 / (npts - 1)
    return best_x, best_v


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
                   level: int = 2) -> PiWitness:
    """Best attainment pair for the query at the requested refinement level.

    level 0: discrete minimum over the sample.
    level 1: + dual-face segments and euclidean closed-form candidates.
    level 2: + golden/zoom refinement along the sphere sweep.
    """
    dual = pi.dual
    d1 = space.norm_rows(p.x[None, :] - pi.points)
    d2 = dual.norm_rows(p.f[None, :] - pi.functionals)
    vals = np.maximum(d1, d2)
    i0 = int(np.argmin(vals))
    best = (float(vals[i0]), pi.points[i0], pi.functionals[i0])

    if is_in_pi(space, p, tol=1e-9) and best[0] > 0.0:
        best = (0.0, p.x, p.f)

    if level >= 1:
        # convex 1-d minimization over each dual-face segment
        for seg in pi.faces:
            cx = space.norm(p.x - seg.vertex)
            if cx >= best[0]:
                continue
            glo, ghi = seg.g_lo, seg.g_hi

            def q(t, glo=glo, ghi=ghi):
                return dual.norm(p.f - ((1.0 - t) * glo + t * ghi))

            t_best, q_best = _golden_min(q, 0.0, 1.0, iters=40)
            v = max(cx, q_best)
            if v < best[0]:
                g = (1.0 - t_best) * glo + t_best * ghi
                best = (v, seg.vertex, g / dual.norm(g))
        # exact euclidean candidates
        if isinstance(space, Lp) and space.p == 2.0 and space.dim >= 2:
            for z in _hilbert_witness_candidates(p.x, p.f):
                v = max(float(np.linalg.norm(p.x - z)), float(np.linalg.norm(p.f - z)))
                if v < best[0]:
                    best = (v, z, z)

    if level >= 2 and pi.sweep_angles is not None and best[0] > 0.0:
        step = 2.0 * math.pi / pi.sweep_count
        i_sweep = i0 if i0 < pi.sweep_count else int(np.argmin(vals[: pi.sweep_count]))
        phi0 = float(pi.sweep_angles[i_sweep])

        def h(phi):
            y = np.array([math.cos(phi), math.sin(phi)])
            y = y / space.norm(y)
            g = space.support(y)
            return max(space.norm(p.x - y), dual.norm(p.f - g))

        rounds, npts = 4, 13
        phi_zoom, _ = _zoom_min(h, phi0, step, rounds=rounds, npts=npts)
        w = step * (2.0 / (npts - 1)) ** rounds
        phi_best, v = _golden_min(h, phi_zoom - 2.0 * w, phi_zoom + 2.0 * w, iters=50)
        if v < best[0]:
            y = np.array([math.cos(phi_best), math.sin(phi_best)])
            y = y / space.norm(y)
            best = (v, y, space.support(y))

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


def _pair_distance_matrices(space, dual, xs, fs, pi):
    nx, npi = len(xs), len(pi.points)
    dx = np.empty((nx, npi))
    block = max(1, 4_000_000 // max(npi, 1))
    for lo in range(0, nx, block):
        hi = min(nx, lo + block)
        diff = xs[lo:hi, None, :] - pi.points[None, :, :]
        dx[lo:hi] = space.norm_rows(diff.reshape(-1, space.dim)).reshape(hi - lo, npi)
    nf = len(fs)
    df = np.empty((nf, npi))
    for lo in range(0, nf, block):
        hi = min(nf, lo + block)
        diff = fs[lo:hi, None, :] - pi.functionals[None, :, :]
        df[lo:hi] = dual.norm_rows(diff.reshape(-1, space.dim)).reshape(hi - lo, npi)
    return dx, df


def _sup_over_pairs(space, xs, fs, floor, pi, *,
                    x_angles=None, x_radii=None, f_angles=None, f_radii=None,
                    refine_rounds=3, top_k=4, outer_gap=0.0):
    """Supremum of distance-to-Pi over feasible (x, f) mesh pairs.

    Feasibility is ``dot(f, x) >= floor`` (up to 1e-12 to keep exact-equality
    constructions feasible in floating point).  Returns a ModulusEstimate;
    deterministic: the argmax tie-breaks to the lowest (i, j).
    """
    dual = pi.dual
    act = xs @ fs.T
    feasible = act >= floor - 1e-12
    if not feasible.any():
        raise EmptyConstraintError(
            f"no sampled pair satisfies action >= {floor} (resolution too low)")

    dx, df = _pair_distance_matrices(space, dual, xs, fs, pi)
    nx = len(xs)
    best_val = np.full(nx, -np.inf)
    best_j = np.zeros(nx, dtype=int)

    for i in range(nx):
        js = np.nonzero(feasible[i])[0]
        if js.size == 0:
            continue
        vals = np.maximum(dx[i][None, :], df[js]).min(axis=1)
        k = int(np.argmax(vals))
        best_val[i] = vals[k]
        best_j[i] = js[k]

    order = np.argsort(-best_val, kind="stable")[:top_k]
    seeds = [(int(i), int(best_j[i])) for i in order if np.isfinite(best_val[i])]
    if not seeds:
        raise EmptyConstraintError("constraint set has no usable sampled pair")

    def make_pair(x, f):
        return PairState(x, f, space.norm(x), dual.norm(f), float(np.dot(f, x)))

    def refined(x, f, level=1):
        pr = make_pair(x, f)
        w = _distance_core(space, pr, pi, level=level)
        return w.distance, pr, w

    best = None
    for i, j in seeds:
        v, pr, w = refined(xs[i], fs[j], level=2)
        if best is None or v > best[0]:
            best = (v, pr, w, i, j)

    can_zoom = (space.dim == 2 and x_angles is not None and f_angles is not None
                and refine_rounds > 0)
    if can_zoom and best is not None:
        step_x = 2.0 * math.pi / max(1, len(np.unique(np.round(x_angles, 12))))
        step_f = 2.0 * math.pi / max(1, len(np.unique(np.round(f_angles, 12))))
        for i, j in seeds:
            rx = 1.0 if x_radii is None else float(x_radii[i])
            rf = 1.0 if f_radii is None else float(f_radii[j])
            if rx == 0.0 and rf == 0.0:
                continue

            def eval_at(phix, phif):
                ux = np.array([math.cos(phix), math.sin(phix)])
                x = rx * ux / space.norm(ux)
                uf = np.array([math.cos(phif), math.sin(phif)])
                f = rf * uf / dual.norm(uf)
                if float(np.dot(f, x)) < floor - 1e-12:
                    return None
                pr = make_pair(x, f)
                return _distance_core(space, pr, pi, level=1).distance, x, f

            cx, cf = float(x_angles[i]), float(f_angles[j])
            wx, wf = step_x, step_f
            loc_best = None
            for _ in range(refine_rounds):
                grid = [(px, pf)
                        for px in np.linspace(cx - wx, cx + wx, 5)
                        for pf in np.linspace(cf - wf, cf + wf, 5)]
                for px, pf in grid:
                    r = eval_at(px, pf)
                    if r is not None and (loc_best is None or r[0] > loc_best[0]):
                        loc_best = r
                        cx, cf = px, pf
                wx *= 0.35
                wf *= 0.35
            if loc_best is not None:
                v, pr, w = refined(loc_best[1], loc_best[2], level=2)
                if v > best[0]:
                    best = (v, pr, w, -1, -1)

    mesh_error = outer_gap / 2.0 + pi.gap / 2.0
    return ModulusEstimate(best[0], mesh_error, best[1], best[2])


def _sphere_mesh(space, config):
    if space.dim == 2:
        angles, pts = sphere_sample_angles(space, config.resolution)
    else:
        angles, pts = None, sphere_sample(space, config)
    return angles, pts


def _ball_mesh(space, config):
    """Radial-by-angular ball mesh including the origin and the sphere."""
    angles, pts = _sphere_mesh(space, config)
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
    ``action >= 1 - delta + delta_slack``; the max of distance-to-Pi over the
    feasible pairs is returned with a conservative mesh-error bound.
    """
    if not (0.0 < delta < 2.0):
        raise ValueError("delta must be in (0, 2)")
    if mode not in ("ball", "sphere"):
        raise ValueError("mode must be 'ball' or 'sphere'")
    pi = _cached_pi_sample(space, config)
    dual = space.dual()
    floor = 1.0 - delta + config.delta_slack
    if mode == "sphere":
        x_angles, xs = _sphere_mesh(space, config)
        f_angles, fs = _sphere_mesh(dual, config)
        x_radii = f_radii = None
        radial_gap = 0.0
    else:
        x_angles, x_radii, xs, dr_x = _ball_mesh(space, config)
        f_angles, f_radii, fs, dr_f = _ball_mesh(dual, config)
        radial_gap = max(dr_x, dr_f)
    outer_gap = max(mesh_gap(space, sphere_sample(space, config), config.seed),
                    mesh_gap(dual, sphere_sample(dual, config), config.seed)) + radial_gap
    return _sup_over_pairs(space, xs, fs, floor, pi,
                           x_angles=x_angles, x_radii=x_radii,
                           f_angles=f_angles, f_radii=f_radii,
                           refine_rounds=refine_rounds, outer_gap=outer_gap)

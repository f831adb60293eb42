"""Grid estimators: refined moduli, non-squareness, convexity, and the corrector.

All estimators are pure map-reduce sweeps over deterministic sample sets:
identical configs produce identical results for any chunking, with argmax
ties broken by lowest sample index.  Every estimate carries a conservative
mesh-error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .closed_forms import ALPHA_CEILING, ModulusQuery, RegimeError
from .pi_set import (EmptyConstraintError, ModulusEstimate, PairState, PiWitness,
                     _cached_pi_sample, _golden_min, _sphere_mesh, _sup_over_pairs,
                     _sweep_gaps, _tile_rows, _zoom)
# the modulus at level delta in ball or sphere mode, under its short name
from .pi_set import hausdorff_modulus_set as estimate_phi
from .spaces import EstimatorConfig, NormedSpace, SpaceError, mesh_gap, sphere_chart

__all__ = [
    "AlphaReport",
    "ConvexityReport",
    "CorrectorResult",
    "CorrectorSearchError",
    "estimate_phi_mut",
    "estimate_phi",
    "estimate_alpha",
    "audit_alpha_interior",
    "estimate_convexity_modulus",
    "convexity_profile",
    "check_alpha_self_dual",
    "bpb_corrector",
    "collapse_k",
]

# Sphere points of the alpha and convexity sweeps above dimension 2:
# resolution 64 in 3-d, 16 in 4-d.
_ALPHA_POINTS_MAX = 4096


@dataclass(frozen=True)
class AlphaReport:
    """Non-squareness estimate 2 - sup (|x+y| + |x-y|) / 2 over sphere pairs."""

    alpha: float
    maximizer: tuple[np.ndarray, np.ndarray]
    mesh_error: float


@dataclass(frozen=True)
class ConvexityReport:
    """Modulus-of-convexity estimate at one separation level."""

    eps: float
    delta_x: float
    mesh_error: float


class CorrectorSearchError(RuntimeError):
    """No attainment pair met both corrector bounds at the given resolution."""

    def __init__(self, message: str, best_slacks: tuple[float, float]):
        super().__init__(message)
        self.best_slacks = best_slacks


@dataclass(frozen=True)
class CorrectorResult:
    """Attainment pair meeting both corrector bounds, with remaining slack."""

    witness: PiWitness
    slack_x: float
    slack_f: float


# ---------------------------------------------------------------------------
# Refined modulus estimators


def estimate_phi_mut(space: NormedSpace, q: ModulusQuery,
                     config: EstimatorConfig = EstimatorConfig(), *,
                     refine_rounds: int = 3) -> ModulusEstimate:
    """Supremum of distance-to-Pi over pairs with |x| = mu, |f| = theta.

    Pairs are scaled sphere meshes constrained by ``action >= 1 - delta``;
    2-d estimates are tightened by zoom refinement over both sweep angles.
    When mu * theta < 1 - delta the constraint saturates to the maximally
    aligned pairs (action = mu * theta), whose supremum is 1 - min(mu, theta).
    """
    pi = _cached_pi_sample(space, config)
    dual = space.dual()

    def scaled(angles, unit, r):
        # radius 0 collapses the sphere mesh to the origin
        if r > 0.0:
            return angles, r * unit, np.full(len(unit), r)
        return None if angles is None else np.zeros(1), np.zeros((1, space.dim)), np.zeros(1)

    x_angles, xs, x_radii = scaled(*_sphere_mesh(space, config), q.mu)
    f_angles, fs, f_radii = scaled(*_sphere_mesh(dual, config), q.theta)

    floor = min(1.0 - q.delta, q.mu * q.theta)
    outer_gap = max(mesh_gap(space, xs, config.seed) if len(xs) > 1 else 0.0,
                    mesh_gap(dual, fs, config.seed) if len(fs) > 1 else 0.0)
    return _sup_over_pairs(space, xs, fs, floor, pi,
                           x_angles=x_angles, x_radii=x_radii,
                           f_angles=f_angles, f_radii=f_radii,
                           refine_rounds=refine_rounds, outer_gap=outer_gap)


# ---------------------------------------------------------------------------
# Non-squareness parameter and modulus of convexity


def _pair_norm_tiles(space: NormedSpace, pts: np.ndarray):
    """Yield ``(lo, |x_i + x_j|, |x_i - x_j|)`` for tiles of rows i >= lo and all j."""
    n, dim = pts.shape
    step = _tile_rows(n * dim)
    for lo in range(0, n, step):
        block = pts[lo : lo + step, None, :]
        sums = space.norm_rows((block + pts[None, :, :]).reshape(-1, dim))
        diffs = space.norm_rows((block - pts[None, :, :]).reshape(-1, dim))
        yield lo, sums.reshape(-1, n), diffs.reshape(-1, n)


def _alpha_points(space: NormedSpace, config: EstimatorConfig):
    """Sphere mesh and sweep angles for the pair sweeps."""
    # pair enumeration is quadratic; above dimension 2 the mesh has
    # resolution ** (dim - 1) points, capped at _ALPHA_POINTS_MAX
    if space.dim > 2:
        cap = int(round(_ALPHA_POINTS_MAX ** (1.0 / (space.dim - 1))))
        config = replace(config, resolution=min(config.resolution, cap))
    return _sphere_mesh(space, config)


def estimate_alpha(space: NormedSpace,
                   config: EstimatorConfig = EstimatorConfig()) -> AlphaReport:
    """Estimate the non-squareness parameter by a sphere-pair sweep.

    The objective (|x+y| + |x-y|) / 2 is convex in each argument, so its
    supremum over the ball product is attained on sphere pairs; interior
    sampling is audited separately, not assumed (audit_alpha_interior).
    """
    angles, pts = _alpha_points(space, config)
    # running argmax that moves on strict improvement: the first flat index wins
    best, i0, j0 = -math.inf, 0, 0
    for lo, sums, diffs in _pair_norm_tiles(space, pts):
        obj = (sums + diffs) / 2.0
        k = int(np.argmax(obj))
        if obj.flat[k] > best:
            best = float(obj.flat[k])
            i0, j0 = lo + k // len(pts), k % len(pts)
    bx, by = pts[i0].copy(), pts[j0].copy()

    if angles is not None:
        def score(phi1, phi2):
            u, v = sphere_chart(space, phi1), sphere_chart(space, phi2)
            return -(space.norm_rows(u + v) + space.norm_rows(u - v)) / 2.0

        (c1, c2), v = _zoom(score, (angles[i0], angles[j0]), 2.0 * math.pi / config.resolution,
                            -best, rounds=4, npts=5, shrink=0.35)
        if -v > best:
            best, bx, by = float(-v), sphere_chart(space, [c1])[0], sphere_chart(space, [c2])[0]

    gap = mesh_gap(space, pts, config.seed)
    return AlphaReport(alpha=2.0 - best, maximizer=(bx, by), mesh_error=gap)


def audit_alpha_interior(space: NormedSpace, report: AlphaReport,
                         config: EstimatorConfig = EstimatorConfig(),
                         trials: int = 512) -> float:
    """Worst interior-pair objective; callers assert it stays below the sphere max."""
    rng = np.random.default_rng(config.seed)
    dirs = rng.standard_normal((2 * trials, space.dim))
    dirs /= space.norm_rows(dirs)[:, None]
    radii = rng.uniform(0.0, 1.0, size=2 * trials)
    pts = dirs * radii[:, None]
    x, y = pts[:trials], pts[trials:]
    obj = (space.norm_rows(x + y) + space.norm_rows(x - y)) / 2.0
    return float(obj.max())


def convexity_profile(space: NormedSpace, eps_values,
                      config: EstimatorConfig = EstimatorConfig()) -> list[ConvexityReport]:
    """Modulus-of-convexity estimates sharing one pair sweep.

    For each eps, midpoint norms are maximized over sphere pairs whose
    separation lies in [eps, eps + band] with band twice the mesh gap; the
    hard equality constraint is infeasible on a mesh, and the one-sided band
    never overshoots the constrained supremum because that supremum is
    non-increasing in the separation.
    """
    eps_values = list(eps_values)
    for eps in eps_values:
        if not (0.0 < eps <= 2.0):
            raise ValueError(f"eps must be in (0, 2], got {eps}")
    _, pts = _alpha_points(space, config)
    gap = mesh_gap(space, pts, config.seed)
    band = 2.0 * gap
    # running max of the midpoint norm per eps; None while no pair is in band
    tops = [None] * len(eps_values)
    for _, sums, diffs in _pair_norm_tiles(space, pts):
        for e, eps in enumerate(eps_values):
            mask = (diffs >= eps - 1e-12) & (diffs <= eps + band)
            if mask.any():
                top = float((sums[mask] / 2.0).max())
                tops[e] = top if tops[e] is None else max(tops[e], top)
    reports = []
    for eps, best in zip(eps_values, tops):
        if best is None:
            raise EmptyConstraintError(
                f"no sphere pair with separation within [{eps}, {eps + band}]")
        reports.append(ConvexityReport(eps=eps, delta_x=max(0.0, 1.0 - best),
                                       mesh_error=band + gap))
    return reports


def estimate_convexity_modulus(space: NormedSpace, eps: float,
                               config: EstimatorConfig = EstimatorConfig()) -> ConvexityReport:
    """Modulus of convexity at a single separation level."""
    return convexity_profile(space, [eps], config)[0]


def check_alpha_self_dual(space: NormedSpace,
                          config: EstimatorConfig = EstimatorConfig()) -> tuple[AlphaReport, AlphaReport]:
    """Non-squareness estimates of a space and of its constructed dual."""
    if space.dim > 3:
        raise SpaceError("self-duality check is limited to dimension 3")
    return estimate_alpha(space, config), estimate_alpha(space.dual(), config)


# ---------------------------------------------------------------------------
# Constructive corrector


def collapse_k(delta: float, alpha_tilde: float) -> float:
    """Step size balancing both corrector bounds.

    k = sqrt(delta / (2 - (2/3) alpha_tilde)) makes the point bound delta/k
    and the functional bound 2k - (2/3) k alpha_tilde both equal to
    sqrt(2 delta) sqrt(1 - alpha_tilde / 3).
    """
    if not (0.0 < alpha_tilde <= ALPHA_CEILING + 1e-12):
        raise RegimeError(f"alpha_tilde must be in (0, {ALPHA_CEILING:.6f}]")
    if not (0.0 < delta < 0.5 - alpha_tilde / 6.0):
        raise RegimeError("delta must be in (0, 1/2 - alpha_tilde/6)")
    return math.sqrt(delta / (2.0 - (2.0 / 3.0) * alpha_tilde))


def bpb_corrector(space: NormedSpace, p: PairState, delta: float, k: float,
                  alpha_tilde: float,
                  config: EstimatorConfig = EstimatorConfig()) -> CorrectorResult:
    """Attainment pair within delta/k of the point and 2k - (2/3)k*alpha_tilde
    of the functional.

    Existence is guaranteed whenever the dual non-squareness parameter
    exceeds alpha_tilde (the caller's responsibility); a search failure at
    high resolution therefore indicates a bug or an invalid alpha_tilde.
    The search scans sampled attainment pairs by lowest violation, breaking
    ties toward the lowest sample index, and refines along the sweep and the
    dual faces when the mesh alone does not satisfy both bounds.
    """
    tol = max(config.tol, 1e-9)
    if abs(p.norm_x - 1.0) > tol or abs(p.norm_f - 1.0) > tol:
        raise ValueError("corrector requires a unit-sphere pair")
    if not p.action > 1.0 - delta - 1e-12:
        raise ValueError("corrector requires action > 1 - delta")
    if not (0.0 < k <= 0.5):
        raise RegimeError("k must be in (0, 1/2]")
    if not (0.0 < alpha_tilde <= ALPHA_CEILING + 1e-12):
        raise RegimeError(f"alpha_tilde must be in (0, {ALPHA_CEILING:.6f}]")
    if not (0.0 < delta < 2.0):
        raise RegimeError("delta must be in (0, 2)")

    b1 = delta / k
    b2 = 2.0 * k - (2.0 / 3.0) * k * alpha_tilde
    pi = _cached_pi_sample(space, config)
    dual = pi.dual
    d1 = space.norm_rows(p.x[None, :] - pi.points)
    d2 = dual.norm_rows(p.f[None, :] - pi.functionals)
    viol = np.maximum(d1 - b1, 0.0) + np.maximum(d2 - b2, 0.0)
    i0 = int(np.argmin(viol))
    best = (float(viol[i0]), pi.points[i0], pi.functionals[i0],
            float(d1[i0]), float(d2[i0]))

    if best[0] > 0.0 and space.dim == 2 and pi.sweep_angles is not None:
        i_sweep = int(np.argmin(viol[: pi.sweep_count]))
        step = 2.0 * math.pi / pi.sweep_count

        def violation(phi):
            _, _, a, b = _sweep_gaps(space, dual, p, phi)
            return np.maximum(a - b1, 0.0) + np.maximum(b - b2, 0.0)

        phi0 = pi.sweep_angles[i_sweep : i_sweep + 1]
        phi, v = _zoom(violation, phi0, step, violation(phi0)[0],
                       rounds=5, npts=13, shrink=2.0 / 12)
        if v < best[0]:
            y, g, a, b = _sweep_gaps(space, dual, p, phi)
            best = (float(v), y[0], g[0], float(a[0]), float(b[0]))
        if best[0] > 0.0:
            for seg in pi.faces:
                a = space.norm(p.x - seg.vertex)

                def v_face(t, seg=seg, a=a):
                    g = (1.0 - t) * seg.g_lo + t * seg.g_hi
                    b = dual.norm(p.f - g)
                    return max(a - b1, 0.0) + max(b - b2, 0.0)

                t_best, v = _golden_min(v_face, 0.0, 1.0, iters=50)
                if v < best[0]:
                    g = (1.0 - t_best) * seg.g_lo + t_best * seg.g_hi
                    g = g / dual.norm(g)
                    best = (v, seg.vertex, g, a, dual.norm(p.f - g))

    violation, y, g, a, b = best
    if violation > 1e-12:
        raise CorrectorSearchError(
            f"no attainment pair met both bounds (best slacks {b1 - a:.3e}, {b2 - b:.3e})",
            best_slacks=(b1 - a, b2 - b))
    return CorrectorResult(witness=PiWitness(np.array(y), np.array(g), max(a, b)),
                           slack_x=b1 - a, slack_f=b2 - b)


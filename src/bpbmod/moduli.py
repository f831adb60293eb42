"""Grid estimators: refined moduli, non-squareness, convexity, and the corrector.

All estimators are pure map-reduce sweeps over deterministic sample sets:
identical configs produce identical results for any chunking, with argmax
ties broken by lowest sample index.  Every estimate carries a mesh-error
estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .closed_forms import ALPHA_CEILING, ModulusQuery, RegimeError, phi_upper_bound
from .pi_set import (EmptyConstraintError, Mesh, ModulusEstimate, PairState, PiWitness,
                     _cached_pi_sample, _distance_core, _sphere_mesh, _sup_over_pairs,
                     _tile_rows, _zoom, is_in_pi, pair_state)
# the modulus at level delta in ball or sphere mode, under its short name
from .pi_set import hausdorff_modulus_set as estimate_phi
from .spaces import _SEED, EstimatorConfig, NormedSpace, SpaceError, sphere_chart

__all__ = [
    "AlphaReport",
    "ConvexityReport",
    "CorrectorResult",
    "CorrectorSearchError",
    "estimate_phi_mut",
    "estimate_phi",
    "estimate_alpha",
    "audit_alpha_interior",
    "convexity_profile",
    "check_alpha_self_dual",
    "bpb_corrector",
    "collapse_k",
]

# Sphere points of the alpha and convexity sweeps above dimension 2:
# resolution 64 in 3-d, 16 in 4-d.
_ALPHA_POINTS_MAX = 4096
# Interior pairs that audit_alpha_interior draws.
_AUDIT_PAIRS = 512


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

    A pair (mu y, theta g) with (y, g) in Pi has action mu theta and lies at
    distance exactly low = 1 - min(mu, theta) from Pi, the least possible
    (|mu y - y'| >= 1 - mu).  So if mu theta <= 1 - delta or mu theta = 0 the
    value is low with mesh error 0; below mu theta = 1 - delta no pair with
    these norms is feasible, and low is a convention.  Otherwise sphere meshes and gaps scaled
    by mu and theta are swept under ``action >= 1 - delta`` (zoomed in 2-d),
    and the value is at least low: low +- (phi_upper_bound(q) - low) if no
    mesh pair is feasible.
    """
    pi = _cached_pi_sample(space, config)
    low = 1.0 - min(q.mu, q.theta)
    y, g = pi.points[0].copy(), pi.functionals[0].copy()
    diagonal = ModulusEstimate(low, 0.0, pair_state(space, q.mu * y, q.theta * g),
                               PiWitness(y, g, low))
    if not q.regime_psi or q.mu * q.theta == 0.0:
        return diagonal

    def scaled(mesh, r):
        return Mesh(r * mesh.points, mesh.angles, np.full(len(mesh.points), r), r * mesh.gap)

    xm, fm = scaled(_sphere_mesh(space, config), q.mu), scaled(_sphere_mesh(pi.dual, config), q.theta)
    try:
        est = _sup_over_pairs(space, xm, fm, 1.0 - q.delta, pi, refine_rounds=refine_rounds)
    except EmptyConstraintError:
        return replace(diagonal, mesh_error=phi_upper_bound(q) - low)
    return est if est.value >= low else replace(diagonal, mesh_error=est.mesh_error)


# ---------------------------------------------------------------------------
# Non-squareness parameter and modulus of convexity


def _pair_norm_tiles(space: NormedSpace, pts: np.ndarray):
    """Yield ``(lo, |x_i + x_j|, |x_i - x_j|)`` for tiles of rows i >= lo and j >= lo.

    The tiles cover every pair i <= j, in the upper triangle, and some with
    j < i; each pair they leave out is the mirror of one they hold.  Both
    matrices are bitwise symmetric: x + y = y + x exactly, and y - x = -(x - y)
    exactly, where every norm is bitwise even.  So a maximum over the tiles
    is the maximum over all pairs, and the row-major first argmax of the
    whole matrix, (i, j) with j >= i since its mirror (j, i) would come
    first otherwise, is the first one found in the tiles, scanned in order.
    With ``step`` rows a tile, the tiles hold n (n + step) / 2 pairs at most.
    """
    n, dim = pts.shape
    step = _tile_rows(n * dim)
    for lo in range(0, n, step):
        block, rest = pts[lo : lo + step, None, :], pts[None, lo:, :]
        sums = space.norm_rows((block + rest).reshape(-1, dim))
        diffs = space.norm_rows((block - rest).reshape(-1, dim))
        yield lo, sums.reshape(-1, n - lo), diffs.reshape(-1, n - lo)


def _alpha_points(space: NormedSpace, config: EstimatorConfig) -> Mesh:
    """The cached sphere mesh of the alpha and convexity pair sweeps."""
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
    The objective is bitwise symmetric in (x, y), so the sweep takes the
    upper-triangle tiles of ``_pair_norm_tiles`` only; its mesh argmax is
    the first flat argmax of the whole matrix, which lies in that triangle.
    """
    mesh = _alpha_points(space, config)
    pts = mesh.points
    # running argmax that moves on strict improvement: the first flat index wins
    best, i0, j0 = -math.inf, 0, 0
    for lo, sums, diffs in _pair_norm_tiles(space, pts):
        obj = (sums + diffs) / 2.0
        k = int(np.argmax(obj))
        if obj.flat[k] > best:
            best = float(obj.flat[k])
            i0, j0 = lo + k // obj.shape[1], lo + k % obj.shape[1]
    bx, by = pts[i0].copy(), pts[j0].copy()

    if mesh.angles is not None:
        def score(phi1, phi2):
            u, v = sphere_chart(space, phi1), sphere_chart(space, phi2)
            return -(space.norm_rows(u + v) + space.norm_rows(u - v)) / 2.0

        ((c1, c2),), (v,) = _zoom(score, [[mesh.angles[i0], mesh.angles[j0]]],
                                  2.0 * math.pi / len(pts), [-best], rounds=4, npts=5, shrink=0.35)
        if -v > best:
            best, bx, by = float(-v), sphere_chart(space, [c1])[0], sphere_chart(space, [c2])[0]

    return AlphaReport(alpha=2.0 - best, maximizer=(bx, by), mesh_error=mesh.gap)


def audit_alpha_interior(space: NormedSpace) -> float:
    """Worst interior-pair objective; callers assert it stays below the sphere max."""
    rng = np.random.default_rng(_SEED)
    dirs = rng.standard_normal((2 * _AUDIT_PAIRS, space.dim))
    dirs /= space.norm_rows(dirs)[:, None]
    radii = rng.uniform(0.0, 1.0, size=2 * _AUDIT_PAIRS)
    pts = dirs * radii[:, None]
    x, y = pts[:_AUDIT_PAIRS], pts[_AUDIT_PAIRS:]
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
    mesh = _alpha_points(space, config)
    band = 2.0 * mesh.gap
    # running max of the midpoint norm per eps; None while no pair is in band
    tops = [None] * len(eps_values)
    for _, sums, diffs in _pair_norm_tiles(space, mesh.points):
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
                                       mesh_error=band + mesh.gap))
    return reports


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
    The search is the one of ``distance_to_pi`` under the violation score
    max(|x - y| - b1, 0) + max(|f - g|* - b2, 0) for the bounds b1 and b2, so
    it stops at the first pair that meets both (the query itself if it lies
    in Pi); the witness distance and both slacks are recomputed at that pair.
    """
    if abs(p.norm_x - 1.0) > 1e-9 or abs(p.norm_f - 1.0) > 1e-9:
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
    v, y, g = _distance_core(space, p.x[None], p.f[None], [is_in_pi(p)], pi,
                             score=lambda a, b: np.maximum(a - b1, 0.0) + np.maximum(b - b2, 0.0))
    a, b = space.norm(p.x - y[0]), pi.dual.norm(p.f - g[0])
    if v[0] > 1e-12:
        raise CorrectorSearchError(
            f"no attainment pair met both bounds (best slacks {b1 - a:.3e}, {b2 - b:.3e})",
            best_slacks=(b1 - a, b2 - b))
    return CorrectorResult(witness=PiWitness(y[0], g[0], max(a, b)),
                           slack_x=b1 - a, slack_f=b2 - b)


"""Verification suites cross-checking estimators against independent oracles.

Each suite returns a list of CheckResult records; the CLI renders them and
the test suite asserts on them.  The oracles here are deliberately
self-contained brute-force computations (grid plus golden-section searches,
linear programs, exhaustive enumeration) so that every closed form and every
estimator is validated through an independent route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .closed_forms import (HilbertPair, ModulusQuery, hilbert_distance,
                           nonsquare_phi_bound)
from .moduli import (check_alpha_self_dual, convexity_profile, estimate_alpha,
                     estimate_phi, estimate_phi_mut)
from .pi_set import distance_to_pi
from .spaces import EstimatorConfig, Lp, NormedSpace, Polytope, Sum1, SumInf
from .witnesses import linf2_witness

__all__ = [
    "CheckResult",
    "circle_minimax_oracle",
    "real_line_oracle",
    "polytope_gauge_lp_oracle",
    "standard_test_spaces",
    "sharpness_suite",
    "hilbert_suite",
    "alpha_suite",
    "nonsquare_suite",
    "run_suite",
    "SUITES",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class CheckResult:
    """One verification check with its measured slack against a bound."""

    name: str
    passed: bool
    measured: float
    bound: float
    detail: str = field(default="")

    @property
    def slack(self) -> float:
        return self.bound - self.measured


# ---------------------------------------------------------------------------
# Independent oracles


def circle_minimax_oracle(x, y, resolution: int = 4000) -> float:
    """Brute-force min over the euclidean unit circle of max(|x-z|, |y-z|).

    Grid scan plus golden-section refinement on the arc around each local
    minimum of the cyclic grid profile within one grid step h of the grid
    minimum: the objective is 1-Lipschitz in the angle, and it can have two
    basins, so a coarse grid may rank the wrong one first.  Uses nothing but
    elementary vector arithmetic.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ts = np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False)
    zs = np.column_stack([np.cos(ts), np.sin(ts)])
    fx = np.linalg.norm(zs - x[None, :], axis=1)
    fy = np.linalg.norm(zs - y[None, :], axis=1)
    vals = np.maximum(fx, fy)
    h = 2.0 * math.pi / resolution
    best = float(vals.min())
    local = (vals <= np.roll(vals, 1)) & (vals <= np.roll(vals, -1)) & (vals <= best + h)

    def f(t):
        z = np.array([math.cos(t), math.sin(t)])
        return max(float(np.linalg.norm(x - z)), float(np.linalg.norm(y - z)))

    for k in np.flatnonzero(local):
        a, b = ts[k] - h, ts[k] + h
        c = b - _GOLDEN * (b - a)
        d = a + _GOLDEN * (b - a)
        fc, fd = f(c), f(d)
        for _ in range(80):
            if fc <= fd:
                b, d, fd = d, c, fc
                c = b - _GOLDEN * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + _GOLDEN * (b - a)
                fd = f(d)
        best = min(best, fc, fd)
    return best


def real_line_oracle(x: float, f: float) -> float:
    """Exhaustive distance over the two attainment pairs of the real line."""
    return min(max(abs(x - 1.0), abs(f - 1.0)),
               max(abs(x + 1.0), abs(f + 1.0)))


def polytope_gauge_lp_oracle(vertices, v) -> float:
    """Gauge of hull(vertices) at v by linear programming.

    min sum(lambda) subject to  V^T lambda = v, lambda >= 0.
    """
    vertices = np.asarray(vertices, dtype=float)
    v = np.asarray(v, dtype=float)
    if not np.any(v):
        return 0.0
    # imported here: loading scipy.optimize costs a fresh process ~0.6 s
    from scipy.optimize import linprog
    res = linprog(np.ones(len(vertices)), A_eq=vertices.T, b_eq=v,
                  bounds=(0.0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"gauge LP failed with status {res.status}")
    return float(res.fun)


def hexagon() -> Polytope:
    verts = [[math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0)]
             for k in range(6)]
    return Polytope(np.array(verts))


def standard_test_spaces() -> dict[str, NormedSpace]:
    r1 = Lp(2.0, 1)
    return {
        "l1:2": Lp(1.0, 2),
        "linf:2": Lp(math.inf, 2),
        "l2:2": Lp(2.0, 2),
        "hexagon": hexagon(),
        "sum1(r,r)": Sum1(r1, r1),
        "suminf(r,r)": SumInf(r1, r1),
    }


# ---------------------------------------------------------------------------
# Suites


def sharpness_suite(resolution: int = 2000, mut_resolution: int = 512) -> list[CheckResult]:
    """Extremal pairs on the 2-d max-norm space attain min{psi, 1+mu, 1+theta}.

    Checks, over the (mu, theta) matrix {0.5, 0.8, 1}^2 and
    delta in {0.3, 0.8, 1.5} restricted to mu*theta > 1-delta: the witness
    identities, its distance against the prediction, and the grid modulus
    against the same value.
    """
    space = Lp(math.inf, 2)
    cfg_d = EstimatorConfig(resolution=resolution)
    cfg_m = EstimatorConfig(resolution=mut_resolution)
    results = []
    for mu in (0.5, 0.8, 1.0):
        for theta in (0.5, 0.8, 1.0):
            for delta in (0.3, 0.8, 1.5):
                q = ModulusQuery(mu, theta, delta)
                if not q.regime_psi:
                    continue
                label = f"({mu},{theta},{delta})"
                pair, predicted = linf2_witness(q)
                ident = max(abs(pair.norm_x - mu), abs(pair.norm_f - theta),
                            max(0.0, (1.0 - delta) - pair.action))
                results.append(CheckResult(
                    f"witness identities {label}", ident <= 1e-10, ident, 1e-10))
                w = distance_to_pi(space, pair, cfg_d)
                dev = abs(w.distance - predicted)
                results.append(CheckResult(
                    f"witness distance {label}", dev <= 5e-3, dev, 5e-3,
                    f"distance={w.distance:.6f} predicted={predicted:.6f}"))
                est = estimate_phi_mut(space, q, cfg_m)
                dev = abs(est.value - predicted)
                results.append(CheckResult(
                    f"grid modulus {label}", dev <= 1e-2, dev, 1e-2,
                    f"estimate={est.value:.6f} predicted={predicted:.6f}"))
    return results


def _second_branch_value(a: float, b: float, ip: float) -> float:
    cross = math.sqrt(max(0.0, a * a * b * b - ip * ip))
    d2 = a * a + b * b - 2.0 * ip
    lam = (-2.0 * cross + math.sqrt(max(0.0, 4.0 * d2 - (a * a - b * b) ** 2))) / (2.0 * d2)
    return math.sqrt(max(0.0, 1.0 - ip - 2.0 * lam * cross))


def hilbert_suite(resolution: int = 4000) -> list[CheckResult]:
    """Euclidean closed-form distance against the brute-force circle oracle."""
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for _ in range(200):
        x = rng.standard_normal(2)
        x *= rng.uniform() ** 0.5 / np.linalg.norm(x)
        y = rng.standard_normal(2)
        y *= rng.uniform() ** 0.5 / np.linalg.norm(y)
        if np.linalg.norm(x) < np.linalg.norm(y):
            x, y = y, x
        closed = hilbert_distance(HilbertPair(x, y))
        brute = circle_minimax_oracle(x, y, resolution)
        worst = max(worst, abs(closed - brute))
    results = [CheckResult("closed form vs circle oracle (200 pairs)", worst <= 1e-4, worst, 1e-4)]

    anchors = [
        ((1.0, 0.0), (0.5, 0.0), 0.5),
        ((1.0, 0.0), (0.0, 1.0), math.sqrt(2.0 - math.sqrt(2.0))),
    ]
    for xa, ya, expected in anchors:
        got = hilbert_distance(HilbertPair(np.array(xa), np.array(ya)))
        dev = abs(got - expected)
        results.append(CheckResult(f"anchor {xa},{ya}", dev <= 1e-9, dev, 1e-9))

    worst = 0.0
    for a in (1.0, 0.9, 0.7, 0.5):
        for b in (0.95 * a, 0.8 * a, 0.5 * a, 0.2 * a):
            # x = y is excluded: at ip = |x||y| the points coincide
            ip = b * b + b * (a * a - b * b) / 2.0
            worst = max(worst, abs((1.0 - b) - _second_branch_value(a, b, ip)))
    results.append(CheckResult("branch-boundary continuity", worst <= 1e-9, worst, 1e-9))
    return results


def alpha_suite(resolution: int = 400) -> list[CheckResult]:
    """Non-squareness estimates, self-duality, and the convexity ceiling."""
    cfg = EstimatorConfig(resolution=resolution)
    spaces = standard_test_spaces()
    results = []
    for name in ("l1:2", "linf:2"):
        rep = estimate_alpha(spaces[name], cfg)
        results.append(CheckResult(f"alpha({name}) = 0", abs(rep.alpha) <= 1e-9,
                                   abs(rep.alpha), 1e-9))
    rep = estimate_alpha(spaces["l2:2"], cfg)
    dev = abs(rep.alpha - (2.0 - math.sqrt(2.0)))
    results.append(CheckResult("alpha(l2:2) = 2 - sqrt(2)", dev <= 1e-3, dev, 1e-3))

    for name in ("l2:2", "hexagon"):
        ra, rd = check_alpha_self_dual(spaces[name], cfg)
        dev = abs(ra.alpha - rd.alpha)
        results.append(CheckResult(f"alpha self-dual ({name})", dev <= 2e-2, dev, 2e-2,
                                   f"alpha={ra.alpha:.6f} dual={rd.alpha:.6f}"))

    eps_grid = [0.25 * k for k in range(1, 9)]
    for name, space in spaces.items():
        worst = -math.inf
        for rep_c in convexity_profile(space, eps_grid, cfg):
            ceiling = 1.0 - math.sqrt(max(0.0, 1.0 - rep_c.eps ** 2 / 4.0))
            worst = max(worst, rep_c.delta_x - (ceiling + rep_c.mesh_error))
        results.append(CheckResult(f"convexity ceiling ({name})", worst <= 0.0,
                                   worst, 0.0))
    return results


def nonsquare_suite(resolution: int = 400) -> list[CheckResult]:
    """Spherical modulus of the euclidean plane under the non-square bound at alpha = 0.58."""
    space = Lp(2.0, 2)
    cfg = EstimatorConfig(resolution=resolution)
    results = []
    for delta in (0.05, 0.1, 0.2, 0.3, 0.4):
        est = estimate_phi(space, delta, "sphere", cfg, refine_rounds=2)
        bound = nonsquare_phi_bound(delta, 0.58) + 1e-2
        results.append(CheckResult(f"Phi^S(l2:2, {delta}) under sharp branch",
                                   est.value <= bound, est.value, bound))
    est = estimate_phi(space, 0.45, "sphere", cfg, refine_rounds=2)
    bound = 2.0 * 0.45 + 1e-2
    results.append(CheckResult("Phi^S(l2:2, 0.45) under linear branch",
                               est.value <= bound, est.value, bound))
    return results


SUITES = {
    "sharpness": sharpness_suite,
    "hilbert": hilbert_suite,
    "alpha": alpha_suite,
    "nonsquare": nonsquare_suite,
}


def run_suite(name: str, resolution: int | None = None) -> list[CheckResult]:
    """Run one named suite (or 'all'); resolution overrides the default."""
    if resolution is not None:
        EstimatorConfig(resolution=resolution)  # the estimators' floor, for every suite
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(run_suite(key, resolution))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{sorted([*SUITES, 'all'])}")
    fn = SUITES[name]
    if resolution is None:
        return fn()
    if name == "sharpness":
        return fn(resolution=resolution, mut_resolution=max(64, resolution // 4))
    return fn(resolution=resolution)

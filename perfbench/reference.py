"""Reference values that the benchmark checks bpbmod's outputs against.

Nothing here imports bpbmod.  The norms, the paper's closed forms and the
brute-force oracles are written out again from their definitions, so a
fault in the program cannot hide inside its own check.

Sources of the closed forms:

* psi(mu, theta, delta) and the bounds min{psi, 1 + mu, 1 + theta} and
  1 - min(mu, theta) on the refined modulus Phi(mu, theta, delta);
* the universal bound sqrt(2 delta) on the BPB modulus (Chica, Kadets,
  Martin, Moreno-Pulido, Rambla-Barreno, JMAA 412 (2014));
* the euclidean spherical modulus Phi^S(delta) = sqrt(2 - sqrt(4 - 2 delta));
* the non-squareness parameter: 0 on the l1 and l-infinity planes and
  2 - sqrt(2) on euclidean spaces, with 2 - sqrt(2) as the ceiling;
* the Day-Nordlander ceiling 1 - sqrt(1 - eps^2 / 4) on the modulus of
  convexity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

ALPHA_CEILING = 2.0 - math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Closed forms


def psi(mu: float, theta: float, delta: float) -> float:
    """(2 - mu - theta + sqrt((mu - theta)^2 + 8 (mu theta - 1 + delta))) / 2."""
    rad = (mu - theta) ** 2 + 8.0 * (mu * theta - 1.0 + delta)
    return (2.0 - mu - theta + math.sqrt(max(rad, 0.0))) / 2.0


def phi_upper(mu: float, theta: float, delta: float) -> float:
    """min{psi, 1 + mu, 1 + theta}: the sharp bound on Phi(mu, theta, delta)."""
    return min(psi(mu, theta, delta), 1.0 + mu, 1.0 + theta)


def phi_lower(mu: float, theta: float) -> float:
    """1 - min(mu, theta): the universal lower bound on Phi(mu, theta, delta)."""
    return 1.0 - min(mu, theta)


def universal_bound(delta: float) -> float:
    """sqrt(2 delta): no space has a BPB modulus above it."""
    return math.sqrt(2.0 * delta)


def hilbert_sphere_modulus(delta: float) -> float:
    """Phi^S(delta) of a euclidean space of dimension >= 2."""
    return math.sqrt(2.0 - math.sqrt(4.0 - 2.0 * delta))


def day_nordlander(eps: float) -> float:
    """1 - sqrt(1 - eps^2 / 4): the euclidean modulus of convexity, the largest."""
    return 1.0 - math.sqrt(max(0.0, 1.0 - eps * eps / 4.0))


def corrector_k(delta: float, alpha_tilde: float) -> float:
    """Step k balancing the corrector bounds delta / k and 2k - (2/3) k alpha."""
    return math.sqrt(delta / (2.0 - (2.0 / 3.0) * alpha_tilde))


# ---------------------------------------------------------------------------
# Explicit norm formulas


def _pnorm(p: float) -> Callable[[np.ndarray], np.ndarray]:
    if p == math.inf:
        return lambda r: np.abs(r).max(axis=1)
    if p == 1.0:
        return lambda r: np.abs(r).sum(axis=1)
    return lambda r: (np.abs(r) ** p).sum(axis=1) ** (1.0 / p)


@dataclass(frozen=True)
class Norm:
    """Row-wise primal and dual norm of one space, from explicit formulas.

    ``polygon`` lists the vertices of a polygonal unit ball in counter-
    clockwise order; ``p`` marks a smooth p-norm plane.  Either one lets
    ``pi_sample`` trace the attainment set of a 2-d space.
    """

    dim: int
    primal: Callable[[np.ndarray], np.ndarray]
    dual: Callable[[np.ndarray], np.ndarray]
    euclidean: bool = False
    polygon: np.ndarray | None = None
    p: float | None = None

    def norm(self, v) -> float:
        return float(self.primal(np.asarray(v, dtype=float)[None, :])[0])

    def dual_norm(self, f) -> float:
        return float(self.dual(np.asarray(f, dtype=float)[None, :])[0])


def lp(p: float, dim: int) -> Norm:
    q = math.inf if p == 1.0 else 1.0 if p == math.inf else p / (p - 1.0)
    polygon = None
    if dim == 2 and p == math.inf:
        polygon = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    elif dim == 2 and p == 1.0:
        polygon = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    return Norm(dim, _pnorm(p), _pnorm(q), euclidean=(p == 2.0 and dim >= 2),
                polygon=polygon, p=p if polygon is None and dim == 2 else None)


def regular_hexagon() -> Norm:
    """Gauge of the hexagon with vertices at angles k pi / 3."""
    verts = np.array([[math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0)]
                      for k in range(6)])
    normals = np.array([[math.cos((k + 0.5) * math.pi / 3.0),
                         math.sin((k + 0.5) * math.pi / 3.0)] for k in range(6)])
    offset = math.cos(math.pi / 6.0)
    return Norm(2, lambda r: (r @ normals.T).max(axis=1) / offset,
                lambda r: (r @ verts.T).max(axis=1), polygon=verts)


def sum1(a: Norm, b: Norm) -> Norm:
    d = a.dim
    return Norm(a.dim + b.dim,
                lambda r: a.primal(r[:, :d]) + b.primal(r[:, d:]),
                lambda r: np.maximum(a.dual(r[:, :d]), b.dual(r[:, d:])))


def suminf(a: Norm, b: Norm) -> Norm:
    d = a.dim
    return Norm(a.dim + b.dim,
                lambda r: np.maximum(a.primal(r[:, :d]), b.primal(r[:, d:])),
                lambda r: a.dual(r[:, :d]) + b.dual(r[:, d:]))


# ---------------------------------------------------------------------------
# Attainment-set checks


def pi_defect(norm: Norm, y, g) -> float:
    """How far (y, g) is from satisfying |y| = |g|* = g(y) = 1."""
    return max(abs(norm.norm(y) - 1.0), abs(norm.dual_norm(g) - 1.0),
               abs(float(np.dot(y, g)) - 1.0))


def pair_distance(norm: Norm, x, f, y, g) -> float:
    """Max-metric distance max(|x - y|, |f - g|*)."""
    return max(norm.norm(np.asarray(x) - np.asarray(y)),
               norm.dual_norm(np.asarray(f) - np.asarray(g)))


def _zoom_circle(objective, n0: int = 4096, rounds: int = 8, npts: int = 33) -> float:
    """Minimum over the angle of a function of the unit circle point."""
    t = np.linspace(0.0, 2.0 * math.pi, n0, endpoint=False)
    vals = objective(t)
    best_t, best = float(t[np.argmin(vals)]), float(vals.min())
    w = 2.0 * (2.0 * math.pi / n0)
    for _ in range(rounds):
        t = np.linspace(best_t - w, best_t + w, npts)
        vals = objective(t)
        k = int(np.argmin(vals))
        if vals[k] < best:
            best_t, best = float(t[k]), float(vals[k])
        w *= 4.0 / (npts - 1)
    return best


def euclidean_distance(x, f) -> float:
    """Distance of (x, f) to Pi of a euclidean space by a circle brute force.

    Pi is the diagonal {(z, z) : |z| = 1}, and a closest z lies in the plane
    spanned by x and f, so the search runs over the unit circle of that plane.
    """
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    basis = []
    for v in (x, f, *np.eye(len(x))):
        w = v - sum(np.dot(v, e) * e for e in basis)
        if np.linalg.norm(w) > 1e-9 * max(1.0, np.linalg.norm(v)):
            basis.append(w / np.linalg.norm(w))
        if len(basis) == 2:
            break
    basis = np.array(basis)
    x2, f2 = basis @ x, basis @ f

    def objective(t):
        z = np.stack([np.cos(t), np.sin(t)], axis=1)
        return np.maximum(np.linalg.norm(z - x2, axis=1), np.linalg.norm(z - f2, axis=1))

    return _zoom_circle(objective)


def pi_sample(norm: Norm, per_piece: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """Dense sample of Pi of a 2-d space, traced from the explicit formulas.

    Polygons: every edge with its facet functional, and every vertex with
    the segment of functionals between its two facets.  Smooth p-norm
    planes: the primal sphere by angle with its gradient functional, and the
    dual sphere by angle with the point it attains, so the sample is dense in
    both coordinates; the pairs are sorted by the angle of the point.  The
    pairs trace a closed curve, in order.
    """
    if norm.polygon is not None:
        verts = norm.polygon
        n = len(verts)
        facets = []
        for i in range(n):
            a, b = verts[i], verts[(i + 1) % n]
            facets.append(np.linalg.solve(np.stack([a, b]), np.ones(2)))
        t = np.linspace(0.0, 1.0, per_piece)[:, None]
        ys, gs = [], []
        for i in range(n):
            a, b = verts[i], verts[(i + 1) % n]
            ys.append((1.0 - t) * a + t * b)
            gs.append(np.repeat(facets[i][None, :], per_piece, axis=0))
            ys.append(np.repeat(b[None, :], per_piece, axis=0))
            gs.append((1.0 - t) * facets[i] + t * facets[(i + 1) % n])
        return np.concatenate(ys), np.concatenate(gs)
    p = norm.p
    q = p / (p - 1.0)
    ang = np.linspace(0.0, 2.0 * math.pi, 8 * per_piece, endpoint=False)
    u = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    y1 = u / norm.primal(u)[:, None]
    g2 = u / norm.dual(u)[:, None]
    y = np.concatenate([y1, np.sign(g2) * np.abs(g2) ** (q - 1.0)])
    g = np.concatenate([np.sign(y1) * np.abs(y1) ** (p - 1.0), g2])
    order = np.argsort(np.arctan2(y[:, 1], y[:, 0]), kind="stable")
    return y[order], g[order]


def brute_distance_2d(norm: Norm, sample, x, f) -> float:
    """Least distance from (x, f) to the pairs of a dense Pi sample.

    It bounds the distance to Pi from above, and exceeds it by at most the
    largest max-metric step between neighbouring pairs: 0.0016 for
    lp:2:p=1.5, 0.0039 for the square planes and 0.0020 for the hexagon.
    """
    ys, gs = sample
    return float(np.maximum(norm.primal(x[None, :] - ys), norm.dual(f[None, :] - gs)).min())


def unit_point(norm: Norm, angle: float) -> np.ndarray:
    u = np.array([math.cos(angle), math.sin(angle)])
    return u / norm.norm(u)


def unit_functional(norm: Norm, angle: float) -> np.ndarray:
    u = np.array([math.cos(angle), math.sin(angle)])
    return u / norm.dual_norm(u)


def selfcheck() -> None:
    """Check the references against values computed by hand; raise if one is off."""
    hand = [
        ("psi(1, 1, 0.5) = 1", psi(1.0, 1.0, 0.5), 1.0),
        ("psi(1, 1, 0.08) = 0.4", psi(1.0, 1.0, 0.08), 0.4),
        ("psi(1, 1, d) = sqrt(2 d), d = 0.3", psi(1.0, 1.0, 0.3), math.sqrt(0.6)),
        ("Phi^S(0.5) = sqrt(2 - sqrt 3)", hilbert_sphere_modulus(0.5),
         math.sqrt(2.0 - math.sqrt(3.0))),
        ("circle: d((1,0),(0,1)) = sqrt(2 - sqrt 2)",
         euclidean_distance([1.0, 0.0], [0.0, 1.0]), math.sqrt(2.0 - math.sqrt(2.0))),
        ("circle: d((0.5,0),(0.5,0)) = 0.5",
         euclidean_distance([0.5, 0.0], [0.5, 0.0]), 0.5),
        ("hexagon gauge of a vertex = 1", regular_hexagon().norm([1.0, 0.0]), 1.0),
        ("hexagon dual of a facet functional = 1",
         regular_hexagon().dual_norm([1.0, 1.0 / math.sqrt(3.0)]), 1.0),
        ("Day-Nordlander at eps = 2 is 1", day_nordlander(2.0), 1.0),
    ]
    for label, got, want in hand:
        if abs(got - want) > 1e-9:
            raise AssertionError(f"reference self-check failed: {label}: {got} != {want}")

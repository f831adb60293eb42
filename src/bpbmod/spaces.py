"""Finite-dimensional real normed spaces as exact norm oracles.

Every space exposes the primal norm, supporting functionals and a
constructible dual space, whose norm is the dual norm; the 2-d angular chart
and the gap of a unit-sphere mesh are here too, and ``pi_set`` draws the
meshes.  All instances are immutable after construction and every operation
is a pure function, so concurrent use needs no coordination.

Functionals are represented by coordinate vectors acting through the dot
product.  Supported space kinds:

* ``Lp(p, dim)``        -- p in [1, inf], p = 1 and p = inf handled natively.
* ``Polytope(V)``       -- Minkowski gauge of the convex hull of a centrally
                           symmetric vertex list.
* ``Sum1(A, B)``        -- direct sum normed by the sum of component norms.
* ``SumInf(A, B)``      -- direct sum normed by the max of component norms.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "SpaceError",
    "DimensionMismatchError",
    "SpaceSpecError",
    "EstimatorConfig",
    "NormedSpace",
    "Lp",
    "Polytope",
    "Sum1",
    "SumInf",
    "as_vector",
    "sphere_chart",
    "mesh_gap",
    "parse_space",
]

# Vertex lists must contain -v for every v up to this absolute slack.
_SYMMETRY_TOL = 1e-12
# Tie detection for subdifferential faces (argmax sets, equal component norms).
_TIE_TOL = 1e-12
# Seed of the estimators' random draws: the 4-d sphere mesh of
# pi_set._sphere_mesh, the 3-d and 4-d mesh_gap probes and
# moduli.audit_alpha_interior.
_SEED = 1729
# Row reductions of batches with at least this many rows, over fewer than
# _LOOP_COLS columns, loop over the columns (see _reduce_rows).  Shorter
# batches reduce as fast in one call; a polytope gauge breaks even near 200
_LOOP_ROWS = 256
_LOOP_COLS = 8


class SpaceError(ValueError):
    """Invalid space construction or operand."""


class DimensionMismatchError(SpaceError):
    """Operand dimension does not match the ambient space."""


class SpaceSpecError(SpaceError):
    """Malformed space-spec string."""


def as_vector(coords, dim: int | None = None) -> np.ndarray:
    """Validate and convert coordinates to a float vector."""
    v = np.atleast_1d(np.asarray(coords, dtype=float))
    if v.ndim != 1 or v.size < 1:
        raise SpaceError(f"expected a 1-d coordinate list, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise SpaceError("coordinates must be finite")
    if dim is not None and v.size != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {v.size}")
    return v


@dataclass(frozen=True)
class EstimatorConfig:
    """Sampling parameters shared by all grid estimators.

    resolution   samples per sphere dimension (2-d spheres get exactly
                 ``resolution`` angles; 3-d and 4-d spheres get
                 ``resolution**2`` and ``resolution**3`` points)

    The estimators run in one thread; results depend on this field only.
    """

    resolution: int = 400

    def __post_init__(self):
        if self.resolution < 8:
            raise ValueError("resolution must be at least 8")


class NormedSpace:
    """Base class for norm oracles.

    A space kind is defined by its row kernels ``norm_rows`` and
    ``support_rows`` and by its dual space ``dual()``, the one route to the
    dual norm; the scalar operations below validate one vector and evaluate
    a kernel on it as a single row.  A long batch reduces its few
    coordinates and facets one column at a time, bitwise as one reduction
    would, so each row still depends on itself only.
    """

    dim: int

    # -- scalar front ends -------------------------------------------------

    def norm(self, v) -> float:
        v = as_vector(v, self.dim)
        return float(self.norm_rows(v[None, :])[0])

    def dual_norm(self, f) -> float:
        return self.dual().norm(f)

    def support(self, v) -> np.ndarray:
        """A norm-one functional attaining the norm at v.

        At non-smooth points the barycentric center of the subdifferential
        face is returned, so the output is deterministic.
        """
        v = as_vector(v, self.dim)[None, :]
        # a zero norm, not only the zero vector: tiny vectors underflow to it
        if self.norm_rows(v)[0] == 0.0:
            raise SpaceError("support functional undefined at the origin")
        return self.support_rows(v)[0]

    def unit(self, v) -> np.ndarray:
        """Radial projection of a nonzero vector onto the unit sphere."""
        v = as_vector(v, self.dim)
        n = self.norm(v)
        if n == 0.0:
            raise SpaceError("cannot normalize the zero vector")
        return v / n

    # -- kind-specific kernels ---------------------------------------------

    def norm_rows(self, rows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def support_rows(self, rows: np.ndarray) -> np.ndarray:
        """Row-wise ``support`` of an ``(n, dim)`` array of nonzero rows."""
        raise NotImplementedError

    def dual(self) -> "NormedSpace":
        raise NotImplementedError

    def ball_vertices(self) -> np.ndarray:
        """Non-smooth extreme points of the unit ball, when enumerable.

        Returns an ``(k, dim)`` array; empty for smooth balls and for kinds
        whose extreme points form a continuum.  Used to cover the face
        structure of the norm-attainment set in two dimensions.
        """
        return np.zeros((0, self.dim))

    def describe(self) -> dict:
        raise NotImplementedError


def _conjugate_exponent(p: float) -> float:
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


@dataclass(frozen=True)
class Lp(NormedSpace):
    """Sequence space with the p-norm; p = 1 and p = inf are native."""

    p: float
    dim: int

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise SpaceError(f"p must be >= 1, got {self.p}")
        if self.dim < 1:
            raise SpaceError("dimension must be >= 1")

    def norm_rows(self, rows):
        rows = np.asarray(rows, dtype=float)
        a = np.abs(rows)
        if self.p == 2.0 and self.dim > 1 and len(a):
            # a sum of squares that overflows or falls below 1e-290 loses
            # digits; only such rows are scaled, so the others keep their
            # bits.  argmax stops at a nan, which then is scaled too
            if a.item(a.argmax()) <= 1e150:
                s = _reduce_rows(np.add, a * a)
                out = np.sqrt(s)
                if s.item(s.argmin()) < 1e-290:
                    tiny = np.flatnonzero(s < 1e-290)
                    out[tiny] = self._scaled_norm_rows(a[tiny])
                return out
            fits = _reduce_rows(np.maximum, a) <= 1e150
            out = self._scaled_norm_rows(a)
            out[fits] = self.norm_rows(rows[fits])
            return out
        # one coordinate: |a| for every p, exact even where a * a underflows
        if self.p == math.inf or self.dim == 1:
            return _reduce_rows(np.maximum, a)
        if self.p == 1.0:
            return _reduce_rows(np.add, a)
        return self._scaled_norm_rows(a)

    def _scaled_norm_rows(self, a):
        # scale out the max to keep |.|**p in range
        m = _reduce_rows(np.maximum, a)
        safe = np.where(m > 0.0, m, 1.0)
        s = _reduce_rows(np.add, (a / safe[:, None]) ** self.p)
        return m * s ** (1.0 / self.p)

    def support_rows(self, rows):
        rows = np.asarray(rows, dtype=float)
        if self.p == 1.0:
            # sign vector; zero coordinates tie-broken to 0
            return np.sign(rows)
        if self.p == 2.0:
            # bitwise sign(x) * (|x| / |x|_2) ** 1; adding 0.0 turns -0.0 into 0.0
            return rows / self.norm_rows(rows)[:, None] + 0.0
        a = np.abs(rows)
        if self.p == math.inf:
            # barycenter of the dual face spanned by the maximal coordinates
            top = a >= _reduce_rows(np.maximum, a)[:, None] * (1.0 - _TIE_TOL)
            return np.where(top, np.sign(rows), 0.0) / _reduce_rows(np.add, top)[:, None]
        return np.sign(rows) * (a / self.norm_rows(rows)[:, None]) ** (self.p - 1.0)

    def dual(self):
        return Lp(_conjugate_exponent(self.p), self.dim)

    def ball_vertices(self):
        if self.dim == 1:
            return np.array([[1.0], [-1.0]])
        if self.p == 1.0:
            eye = np.eye(self.dim)
            return np.concatenate([eye, -eye], axis=0)
        if self.p == math.inf:
            return np.array(list(itertools.product((1.0, -1.0), repeat=self.dim)))
        return np.zeros((0, self.dim))

    def describe(self):
        return {"kind": "lp", "p": "inf" if self.p == math.inf else self.p, "dim": self.dim}


@dataclass(frozen=True, eq=False)
class Polytope(NormedSpace):
    """Norm whose unit ball is the convex hull of a symmetric vertex list."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 2 or v.shape[1] < 1:
            raise SpaceError("vertex list must be a (k, dim) array with k >= 2")
        if not np.all(np.isfinite(v)):
            raise SpaceError("vertices must be finite")
        scale = np.abs(v).max()
        for row in v:
            if np.abs(v + row).max(axis=1).min() > _SYMMETRY_TOL * max(scale, 1.0):
                raise SpaceError("vertex list must be centrally symmetric")
        object.__setattr__(self, "vertices", v)
        self._facets  # force hull construction so bad inputs fail fast

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @cached_property
    def _facets(self) -> tuple[np.ndarray, np.ndarray]:
        """Facet description (N, c) with ball = {x : N @ x <= c}, c > 0."""
        if self.dim == 1:
            m = float(np.abs(self.vertices).max())
            if m == 0.0:
                raise SpaceError("vertex list must span the space")
            return np.array([[1.0], [-1.0]]), np.array([m, m])
        # imported here: loading scipy.spatial costs a fresh process ~0.5 s
        from scipy.spatial import ConvexHull, QhullError
        try:
            hull = ConvexHull(self.vertices)
        except QhullError as exc:
            raise SpaceError("vertex hull has empty interior") from exc
        # Qhull's facets are simplices, so coplanar ones repeat a plane: keep
        # one row per facet, the first of those within _TIE_TOL of each other
        eq = hull.equations
        near = np.abs(eq[:, None, :] - eq[None, :, :]).max(axis=2) <= _TIE_TOL
        eq = eq[near.argmax(axis=1) == np.arange(len(eq))]
        normals, offsets = eq[:, :-1], -eq[:, -1]
        if offsets.min() <= _SYMMETRY_TOL:
            raise SpaceError("origin is not interior to the vertex hull")
        object.__setattr__(self, "_hull_vertex_ids", hull.vertices)
        return normals, offsets

    def norm_rows(self, rows):
        rows = np.asarray(rows, dtype=float)
        # the gauge is the largest facet ratio of the H-form
        normals, offsets = self._facets
        return np.maximum(_max_row_products(rows, normals, offsets), 0.0)

    def support_rows(self, rows):
        rows = np.asarray(rows, dtype=float)
        normals, offsets = self._facets
        pts = rows / self.norm_rows(rows)[:, None]
        # active facets: ratio 1 up to the tie tolerance
        active = _row_products(pts, normals) / offsets >= 1.0 - _TIE_TOL
        # mean of the active facet functionals
        total = _row_products(active, (normals / offsets[:, None]).T)
        return total / _reduce_rows(np.add, active)[:, None]

    def dual(self):
        return self._dual

    @cached_property
    def _dual(self) -> "Polytope":
        # one instance: a polytope hashes by identity, and caches key on it
        normals, offsets = self._facets
        return Polytope(normals / offsets[:, None])

    def ball_vertices(self):
        if self.dim == 1:
            m = float(np.abs(self.vertices).max())
            return np.array([[m], [-m]])
        self._facets
        return self.vertices[self._hull_vertex_ids]

    def describe(self):
        return {
            "kind": "polytope",
            "dim": self.dim,
            "vertices": [[float(c) for c in row] for row in self.vertices],
        }


def _row_products(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """``rows @ mat.T`` summed column by column, in place.

    Each entry then depends on its own row only; a BLAS product changes
    the last bit with the batch it is part of.
    """
    out = rows[:, :1] * mat[:, 0]
    term = np.empty_like(out)
    for j in range(1, rows.shape[1]):
        np.multiply(rows[:, j : j + 1], mat[:, j], out=term)
        out += term
    return out


def _loops(n: int, k: int) -> bool:
    """Whether n rows of k values reduce column by column."""
    return n >= _LOOP_ROWS and 0 < k < _LOOP_COLS


def _reduce_rows(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=1)`` for ``np.add`` or ``np.maximum``, bitwise.

    Long batches of narrow rows fold one column at a time, several times
    faster than one reduction over a short axis.  numpy reduces fewer than
    8 values per row in column order, so the bits are the same; from 8 it
    adds pairwise and takes maxima in vector lanes, which break ties of
    +-0 another way, so wider rows keep the one-call reduction.
    """
    if not _loops(*a.shape):
        return ufunc.reduce(a, axis=1)
    # numpy's own reduction of the first column: its dtype, and a sum of -0.0 is 0.0
    out = ufunc.reduce(a[:, :1], axis=1)
    for j in range(1, a.shape[1]):
        ufunc(out, a[:, j], out=out)
    return out


def _max_row_products(rows: np.ndarray, mat: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """``(_row_products(rows, mat) / scale).max(axis=1)``, bitwise.

    Long batches against fewer than 8 rows of ``mat`` take a running maximum
    of one column of the product at a time, each the same sequential sum,
    and never form the ``(n, len(mat))`` matrix.
    """
    if not _loops(len(rows), len(mat)):
        return (_row_products(rows, mat) / scale).max(axis=1)
    out = np.empty(len(rows))
    col, term = np.empty_like(out), np.empty_like(out)
    for k, m in enumerate(mat):
        dest = out if k == 0 else col
        np.multiply(rows[:, 0], m[0], out=dest)
        for j in range(1, len(m)):
            np.multiply(rows[:, j], m[j], out=term)
            dest += term
        dest /= scale[k]
        if k:
            np.maximum(out, col, out=out)
    return out


@dataclass(frozen=True)
class _DirectSum(NormedSpace):
    a: NormedSpace
    b: NormedSpace

    @property
    def dim(self) -> int:
        return self.a.dim + self.b.dim

    def support_rows(self, rows):
        # subclasses give _weights(na, nb): each component functional's share
        rows = np.asarray(rows, dtype=float)
        ra, rb = rows[:, : self.a.dim], rows[:, self.a.dim :]
        wa, wb = self._weights(self.a.norm_rows(ra), self.b.norm_rows(rb))
        return np.concatenate([_weighted_support(self.a, ra, wa),
                               _weighted_support(self.b, rb, wb)], axis=1)


def _weighted_support(space: NormedSpace, rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rows ``support(row) * w`` where w > 0 and 0 elsewhere; those may be zero."""
    used = w > 0.0
    if used.all():  # skips the masked copy, which dominates a one-row call
        return space.support_rows(rows) * w[:, None]
    f = np.zeros_like(rows)
    if used.any():
        f[used] = space.support_rows(rows[used]) * w[used, None]
    return f


class Sum1(_DirectSum):
    """Direct sum normed by the sum of the component norms."""

    def norm_rows(self, rows):
        rows = np.asarray(rows, dtype=float)
        da = self.a.dim
        return self.a.norm_rows(rows[:, :da]) + self.b.norm_rows(rows[:, da:])

    @staticmethod
    def _weights(na, nb):
        # every nonzero component attains its own norm
        return (na > 0.0).astype(float), (nb > 0.0).astype(float)

    def dual(self):
        return SumInf(self.a.dual(), self.b.dual())

    def ball_vertices(self):
        va = self.a.ball_vertices()
        vb = self.b.ball_vertices()
        za = np.zeros((len(va), self.b.dim))
        zb = np.zeros((len(vb), self.a.dim))
        return np.concatenate(
            [np.hstack([va, za]), np.hstack([zb, vb])], axis=0
        ) if len(va) or len(vb) else np.zeros((0, self.dim))

    def describe(self):
        return {"kind": "sum1", "dim": self.dim,
                "a": self.a.describe(), "b": self.b.describe()}


class SumInf(_DirectSum):
    """Direct sum normed by the max of the component norms."""

    def norm_rows(self, rows):
        rows = np.asarray(rows, dtype=float)
        da = self.a.dim
        return np.maximum(self.a.norm_rows(rows[:, :da]),
                          self.b.norm_rows(rows[:, da:]))

    @staticmethod
    def _weights(na, nb):
        # only the larger component attains the max; on a tie, the barycenter
        # of the two faces
        tie = np.abs(na - nb) <= _TIE_TOL * np.maximum(na, nb)
        wa = np.where(tie, 0.5, na > nb)
        return wa, 1.0 - wa

    def dual(self):
        return Sum1(self.a.dual(), self.b.dual())

    def ball_vertices(self):
        va = self.a.ball_vertices()
        vb = self.b.ball_vertices()
        if len(va) == 0 or len(vb) == 0:
            return np.zeros((0, self.dim))
        return np.array([np.concatenate([x, y]) for x in va for y in vb])

    def describe(self):
        return {"kind": "suminf", "dim": self.dim,
                "a": self.a.describe(), "b": self.b.describe()}


def sphere_chart(space: NormedSpace, angles, radius=1.0) -> np.ndarray:
    """The 2-d angular chart: rows ``radius * u / |u|`` at u = (cos t, sin t).

    ``radius`` is one value or one per angle.  Every angle-to-sphere step in
    the package goes through this map, so a refined point is bitwise the
    point the sample holds at the same angle and radius.  Each row depends
    on its own angle and radius only, whatever the batch.
    """
    angles = np.asarray(angles, dtype=float)
    dirs = np.empty((len(angles), 2))
    dirs[:, 0], dirs[:, 1] = np.cos(angles), np.sin(angles)
    radius = radius if np.isscalar(radius) else radius[:, None]
    return radius * dirs / space.norm_rows(dirs)[:, None]


def mesh_gap(space: NormedSpace, pts: np.ndarray) -> float:
    """Largest gap of a unit-sphere mesh in the space's own norm.

    Exact cyclic-adjacency bound in 2-d; otherwise an estimate from probes on
    the unit sphere, so a mesh scaled by r takes r times its unit gap.
    """
    if space.dim == 1:
        return 0.0
    if space.dim == 2:
        diffs = pts - np.roll(pts, -1, axis=0)
        return float(space.norm_rows(diffs).max())
    # a stream of its own: the 4-d sphere mesh draws from default_rng(_SEED)
    rng = np.random.default_rng([_SEED, 1])
    probes = rng.standard_normal((64, space.dim))
    probes /= space.norm_rows(probes)[:, None]
    worst = 0.0
    for q in probes:
        worst = max(worst, float(space.norm_rows(q[None, :] - pts).min()))
    return 2.0 * worst


# ---------------------------------------------------------------------------
# Space-spec grammar:  l1:2 | l2:3 | linf:2 | lp:3:p=1.5 | r:1 |
#                      poly:@file.json | sum1(<spec>,<spec>) | suminf(...)

_LP_RE = re.compile(r"^(l1|l2|linf):(\d+)$")
_LPP_RE = re.compile(r"^lp:(\d+):p=(.+)$")


def _split_top_level(body: str) -> tuple[str, str]:
    depth = 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return body[:i], body[i + 1 :]
    raise SpaceSpecError(f"expected a top-level comma in {body!r}")


def parse_space(spec: str) -> NormedSpace:
    """Parse a space-spec string into a NormedSpace."""
    s = spec.strip()
    if not s:
        raise SpaceSpecError("empty space spec")
    if s in ("r", "r:1"):
        return Lp(2.0, 1)
    m = _LP_RE.match(s)
    if m:
        p = {"l1": 1.0, "l2": 2.0, "linf": math.inf}[m.group(1)]
        return Lp(p, int(m.group(2)))
    m = _LPP_RE.match(s)
    if m:
        ptxt = m.group(2)
        p = math.inf if ptxt in ("inf", "infinity") else float(ptxt)
        return Lp(p, int(m.group(1)))
    for head, cls in (("sum1(", Sum1), ("suminf(", SumInf)):
        if s.startswith(head) and s.endswith(")"):
            left, right = _split_top_level(s[len(head) : -1])
            return cls(parse_space(left), parse_space(right))
    if s.startswith("poly:@"):
        path = Path(s[len("poly:@") :])
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            raise SpaceSpecError(f"cannot read polytope file {path}") from exc
        if not isinstance(payload, dict) or "vertices" not in payload:
            raise SpaceSpecError(f"{path} must contain a 'vertices' array")
        return Polytope(np.asarray(payload["vertices"], dtype=float))
    raise SpaceSpecError(f"unrecognized space spec {spec!r}")

"""The four workloads: their inputs, their operations and each operation's check.

A workload is built from ``--seed`` and yields a fixed list of operations;
every round of a run executes the whole list in order.  An operation returns
the program's output and its check returns ``None`` or the reason the output
is wrong.  Operations expected to show a named fault of the program carry
the fault's tag; see README.md for the faults and how to reproduce each one.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
TOL = 1e-9

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import bpbmod  # noqa: E402  (imported from the checkout's src/)
from bpbmod import moduli, pi_set, spaces  # noqa: E402


@dataclass
class Op:
    """One timed call into the program and the check of its output."""

    label: str
    run: Callable[[object], object]      # takes the tracer (or None), returns the output
    check: Callable[[object], str | None]
    fault: str | None = None             # tag of the named fault it is expected to show


def clear_program_caches() -> None:
    """Empty every functools cache of bpbmod, so each round rebuilds its Pi samples."""
    for name, mod in list(sys.modules.items()):
        if name == "bpbmod" or name.startswith("bpbmod."):
            for obj in vars(mod).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def _first(problems: list[str]) -> str | None:
    return problems[0] if problems else None


# ---------------------------------------------------------------------------
# Spaces: the program's object next to its reference formulas


def _cube_vertices() -> np.ndarray:
    return np.array([[a, b, c] for a in (1.0, -1.0) for b in (1.0, -1.0)
                     for c in (1.0, -1.0)])


R1 = ref.lp(2.0, 1)

# label -> (program space factory, reference norm, family)
# family: "square" spaces are isometric to the l-infinity plane, "euclid" are
# euclidean, "other" have only the universal references.
SPACES_2D = {
    "linf:2": (lambda: spaces.parse_space("linf:2"), ref.lp(math.inf, 2), "square"),
    "l2:2": (lambda: spaces.parse_space("l2:2"), ref.lp(2.0, 2), "euclid"),
    "lp:2:p=1.5": (lambda: spaces.parse_space("lp:2:p=1.5"), ref.lp(1.5, 2), "other"),
    "l1:2": (lambda: spaces.parse_space("l1:2"), ref.lp(1.0, 2), "square"),
    "hexagon": (lambda: spaces.Polytope(ref.regular_hexagon().polygon), ref.regular_hexagon(),
                "other"),
    "sum1(r:1,r:1)": (lambda: spaces.parse_space("sum1(r:1,r:1)"), ref.lp(1.0, 2), "square"),
    "suminf(r:1,r:1)": (lambda: spaces.parse_space("suminf(r:1,r:1)"),
                        ref.lp(math.inf, 2), "square"),
}

SPACES_HD = {
    "l2:3": (lambda: spaces.parse_space("l2:3"), ref.lp(2.0, 3), "euclid"),
    "linf:3": (lambda: spaces.parse_space("linf:3"), ref.lp(math.inf, 3), "other"),
    "l1:3": (lambda: spaces.parse_space("l1:3"), ref.lp(1.0, 3), "other"),
    "sum1(l2:2,r:1)": (lambda: spaces.parse_space("sum1(l2:2,r:1)"),
                       ref.sum1(ref.lp(2.0, 2), R1), "other"),
    "suminf(l1:2,r:1)": (lambda: spaces.parse_space("suminf(l1:2,r:1)"),
                         ref.suminf(ref.lp(1.0, 2), R1), "other"),
    "cube": (lambda: spaces.Polytope(_cube_vertices()), ref.lp(math.inf, 3), "other"),
    "l2:4": (lambda: spaces.parse_space("l2:4"), ref.lp(2.0, 4), "euclid"),
}


# ---------------------------------------------------------------------------
# Checks shared by the in-process workloads


def check_witness(norm: ref.Norm, x, f, witness) -> list[str]:
    """The witness lies in Pi and its distance to (x, f) is what it claims."""
    problems = []
    defect = ref.pi_defect(norm, witness.y, witness.g)
    if defect > TOL:
        problems.append(f"witness off Pi by {defect:.3e}")
    d = ref.pair_distance(norm, x, f, witness.y, witness.g)
    if abs(d - witness.distance) > TOL:
        problems.append(f"witness distance {witness.distance!r} recomputes to {d!r}")
    return problems


def check_estimate(norm: ref.Norm, est, *, mode: str, delta: float,
                   mu: float = 1.0, theta: float = 1.0,
                   upper: float | None = None, lower: float | None = None) -> str | None:
    """Argmax pair and witness properties, and the bracket against the references."""
    problems = []
    x, f = est.pair.x, est.pair.f
    nx, nf, act = norm.norm(x), norm.dual_norm(f), float(np.dot(x, f))
    if mode == "ball":
        if nx > 1.0 + TOL or nf > 1.0 + TOL:
            problems.append(f"pair outside the balls: |x|={nx!r} |f|*={nf!r}")
    elif abs(nx - mu) > TOL or abs(nf - theta) > TOL:
        problems.append(f"pair norms {nx!r}, {nf!r} != {mu}, {theta}")
    floor = min(1.0 - delta, mu * theta) if mode == "mut" else 1.0 - delta
    if act < floor - TOL:
        problems.append(f"pair action {act!r} below {floor!r}")
    problems += check_witness(norm, x, f, est.witness)
    if est.value != est.witness.distance:
        problems.append(f"estimate {est.value!r} != witness distance {est.witness.distance!r}")
    err = est.mesh_error
    if not err >= 0.0:
        problems.append(f"negative mesh_error {err!r}")
    if upper is not None and est.value - err > upper + TOL:
        problems.append(f"bracket {est.value:.6f} - {err:.6f} above the reference {upper:.6f}")
    if lower is not None and est.value + err < lower - TOL:
        problems.append(f"bracket {est.value:.6f} + {err:.6f} below the reference {lower:.6f}")
    return _first(problems)


def sphere_reference(family: str, delta: float) -> float | None:
    """Phi^S(delta) where it is known: sqrt(2 delta) on the square planes, the euclidean value."""
    if family == "square":
        return ref.universal_bound(delta)
    if family == "euclid":
        return ref.hilbert_sphere_modulus(delta)
    return None


def check_alpha(norm: ref.Norm, rep, family: str) -> str | None:
    problems = []
    x, y = rep.maximizer
    if abs(norm.norm(x) - 1.0) > TOL or abs(norm.norm(y) - 1.0) > TOL:
        problems.append("maximizer off the unit sphere")
    obj = (norm.norm(np.add(x, y)) + norm.norm(np.subtract(x, y))) / 2.0
    if abs((2.0 - obj) - rep.alpha) > TOL:
        problems.append(f"alpha {rep.alpha!r} != 2 - objective at the maximizer {2.0 - obj!r}")
    e = rep.mesh_error
    want = {"square": 0.0, "euclid": ref.ALPHA_CEILING}.get(family)
    lo, hi = (0.0, ref.ALPHA_CEILING) if want is None else (want, want)
    if rep.alpha - e > hi + TOL or rep.alpha + e < lo - TOL:
        problems.append(f"bracket {rep.alpha:.6f} +- {e:.6f} misses [{lo:.6f}, {hi:.6f}]")
    return _first(problems)


def check_convexity(reports, eps_values, family: str) -> str | None:
    if [r.eps for r in reports] != list(eps_values):
        return "eps values out of order"
    for r in reports:
        ceiling = ref.day_nordlander(r.eps)
        want = {"square": 0.0, "euclid": ceiling}.get(family)
        lo, hi = (0.0, ceiling) if want is None else (want, want)
        if r.delta_x - r.mesh_error > hi + TOL or r.delta_x + r.mesh_error < lo - TOL:
            return (f"delta_x({r.eps:.4f}) = {r.delta_x:.6f} +- {r.mesh_error:.6f} "
                    f"misses [{lo:.6f}, {hi:.6f}]")
    return None


def check_distance(norm: ref.Norm, x, f, w, lo: float, hi: float) -> str | None:
    """A valid witness, and a distance within the reference interval [lo, hi]."""
    problems = check_witness(norm, x, f, w)
    if not lo - TOL <= w.distance <= hi + TOL:
        problems.append(f"distance {w.distance!r} outside the reference [{lo!r}, {hi!r}]")
    return _first(problems)


def check_pi_sample(norm: ref.Norm, pairs, expected: int) -> str | None:
    if len(pairs) != expected:
        return f"{len(pairs)} attainment pairs, expected {expected}"
    y = np.array([p[0] for p in pairs])
    g = np.array([p[1] for p in pairs])
    defect = max(np.abs(norm.primal(y) - 1.0).max(), np.abs(norm.dual(g) - 1.0).max(),
                 np.abs((y * g).sum(axis=1) - 1.0).max())
    if defect > TOL:
        return f"sampled pair off Pi by {defect:.3e}"
    return None


def _ball_pair(rng, norm: ref.Norm) -> tuple[np.ndarray, np.ndarray]:
    """A point and a functional with uniform directions and radii in [0, 1]."""
    x = rng.standard_normal(norm.dim)
    f = rng.standard_normal(norm.dim)
    return (x * rng.uniform() / norm.norm(x), f * rng.uniform() / norm.dual_norm(f))


# ---------------------------------------------------------------------------
# sweep2d


class Sweep2d:
    """Modulus curves of 2-d spaces at the default resolution 400.

    Per space and round: sphere mode at two deltas, ball mode at one, mut
    mode at one (mu, theta, delta), alpha, and a convexity profile at three
    eps.  The grids are shared by all spaces and fixed: the cost of a sweep
    jumps with its inputs (linf:2 in sphere mode takes 70 ms at delta = 0.49
    and 114 ms at 0.51), so grids drawn from the seed would make the seed,
    not the program, the source of the spread.  Caches are emptied before
    each round, so every space builds its Pi sample once per round.
    """

    name = "sweep2d"
    min_rounds = 4
    tail_q = 0.75
    sphere_deltas = (0.1, 0.4)
    ball_delta = 0.3
    mut_queries = ((0.9, 0.9, 0.4),)
    eps = (0.5, 1.0, 1.5)

    def setup(self, seed: int) -> None:
        self.cfg = spaces.EstimatorConfig()
        self.spaces = {label: (make(), norm, fam) for label, (make, norm, fam) in SPACES_2D.items()}

    def before_round(self) -> None:
        clear_program_caches()

    def ops(self) -> list[Op]:
        cfg, out = self.cfg, []
        for label, (space, norm, fam) in self.spaces.items():
            for delta in self.sphere_deltas:
                exact = sphere_reference(fam, delta)
                out.append(Op(
                    f"{label} sphere delta={delta:.4f}",
                    lambda t, s=space, d=delta: moduli.estimate_phi(s, d, "sphere", cfg),
                    lambda e, n=norm, d=delta, x=exact: check_estimate(
                        n, e, mode="sphere", delta=d,
                        upper=ref.universal_bound(d) if x is None else x, lower=x)))
            # the ball modulus is at least the sphere modulus
            delta = self.ball_delta
            out.append(Op(
                f"{label} ball delta={delta:.4f}",
                lambda t, s=space, d=delta: moduli.estimate_phi(s, d, "ball", cfg),
                lambda e, n=norm, d=delta, lo=sphere_reference(fam, delta): check_estimate(
                    n, e, mode="ball", delta=d, upper=ref.universal_bound(d), lower=lo)))
            for mu, theta, delta in self.mut_queries:
                up = ref.phi_upper(mu, theta, delta)
                lo = up if fam == "square" else ref.phi_lower(mu, theta)
                out.append(Op(
                    f"{label} mut ({mu:.3f},{theta:.3f},{delta:.3f})",
                    lambda t, s=space, q=(mu, theta, delta): moduli.estimate_phi_mut(
                        s, bpbmod.ModulusQuery(*q), cfg),
                    lambda e, n=norm, q=(mu, theta, delta), u=up, l=lo: check_estimate(
                        n, e, mode="mut", mu=q[0], theta=q[1], delta=q[2], upper=u, lower=l)))
            out.append(Op(f"{label} alpha",
                          lambda t, s=space: moduli.estimate_alpha(s, cfg),
                          lambda r, n=norm, f=fam: check_alpha(n, r, f)))
            out.append(Op(f"{label} convexity",
                          lambda t, s=space: moduli.convexity_profile(s, self.eps, cfg),
                          lambda r, f=fam: check_convexity(r, self.eps, f)))
        return out


# ---------------------------------------------------------------------------
# query2d


# distance_to_pi on lp:2:p=1.5 can settle in the wrong basin and miss the
# distance by up to 0.00126 (2 of 6,000 queries, seeds 1-200; see CHANGES.md)
BASIN_MARGIN = 0.002

# alpha_tilde of the corrector queries: below each space's alpha (0.5858 for
# l2:2, 0.4126 for lp:2:p=1.5, 0.5 for the hexagon; each is self-dual)
CORRECTOR_ALPHA = {"l2:2": 0.58, "lp:2:p=1.5": 0.40, "hexagon": 0.45}


def _strata(rng, n: int) -> np.ndarray:
    """n values in [0, 1), one in each interval [i/n, (i+1)/n), shuffled."""
    return rng.permutation((np.arange(n) + rng.uniform(size=n)) / n)


class Query2d:
    """Independent distance and corrector queries on the 2-d spaces.

    Per space and round: 30 distance queries, half on pairs in the balls and
    half on almost-attaining unit pairs; on the three spaces with a positive
    non-squareness parameter, 10 corrector queries on unit pairs whose action
    sits just above 1 - delta.  Angles, radii and deltas are stratified, so
    each seed draws the same mix of easy and hard queries.  The Pi-sample
    cache is warmed during set-up and every query hits it.
    """

    name = "query2d"
    min_rounds = 3
    tail_q = 0.95
    n_distance = 30
    n_corrector = 10

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.cfg = spaces.EstimatorConfig()
        self.spaces = {label: (make(), norm, fam) for label, (make, norm, fam) in SPACES_2D.items()}
        self.distance_inputs = {}
        self.corrector_inputs = {}
        for label, (space, norm, _) in self.spaces.items():
            half = self.n_distance // 2
            phi, dphi, rx, rf = (2.0 * math.pi * _strata(rng, half) for _ in range(4))
            pairs = [(ref.unit_point(norm, a) * (r / (2.0 * math.pi)),
                      ref.unit_functional(norm, a + d) * (q / (2.0 * math.pi)))
                     for a, d, r, q in zip(phi, dphi, rx, rf)]
            phi, dphi, scale = (_strata(rng, half) for _ in range(3))
            pairs += [(ref.unit_point(norm, 2.0 * math.pi * a),
                       ref.unit_functional(norm, 2.0 * math.pi * a + (d - 0.5))
                       * (0.8 + 0.2 * c)) for a, d, c in zip(phi, dphi, scale)]
            self.distance_inputs[label] = pairs
            if label in CORRECTOR_ALPHA:
                phi, delta, edge = (_strata(rng, self.n_corrector) for _ in range(3))
                self.corrector_inputs[label] = [
                    self._corrector_input(norm, 2.0 * math.pi * a, 0.05 + 0.25 * d,
                                          0.01 + 0.2 * e, 1.0 if i % 2 else -1.0)
                    for i, (a, d, e) in enumerate(zip(phi, delta, edge))]
            pi_set.sample_pi(space, self.cfg)  # warm the Pi-sample cache

    @staticmethod
    def _corrector_input(norm: ref.Norm, phi: float, delta: float, edge: float, side: float):
        """A unit pair whose action is 1 - delta + edge * delta, up to the angle grid."""
        x = ref.unit_point(norm, phi)
        angles = np.linspace(0.0, 2.0 * math.pi, 8000, endpoint=False)
        u = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        funcs = u / norm.dual(u)[:, None]
        action = funcs @ x
        # walk away from the best-aligned functional while the action stays high
        walk = (int(np.argmax(action)) + int(side) * np.arange(len(angles) // 2)) % len(angles)
        high = action[walk] >= 1.0 - delta + edge * delta
        return x, funcs[walk[np.argmin(high) - 1]], delta

    def before_round(self) -> None:
        pass

    def ops(self) -> list[Op]:
        cfg, out = self.cfg, []
        for label, (space, norm, fam) in self.spaces.items():
            sample = ref.pi_sample(norm) if not norm.euclidean else None
            for i, (x, f) in enumerate(self.distance_inputs[label]):
                if norm.euclidean:
                    exact = ref.euclidean_distance(x, f)
                    bounds = (exact - 1e-7, exact + 1e-7)
                else:
                    # the witness lies in Pi, so only the upper side can fail:
                    # at most the brute-force bound, plus the basin margin on
                    # the smooth plane
                    ub = ref.brute_distance_2d(norm, sample, x, f)
                    bounds = (0.0, ub + (BASIN_MARGIN if norm.p else 0.0))
                out.append(Op(
                    f"{label} distance #{i}",
                    lambda t, s=space, x=x, f=f: pi_set.distance_to_pi(
                        s, pi_set.pair_state(s, x, f), cfg),
                    lambda w, n=norm, x=x, f=f, b=bounds: check_distance(n, x, f, w, *b)))
            alpha = CORRECTOR_ALPHA.get(label)
            for i, (x, f, delta) in enumerate(self.corrector_inputs.get(label, [])):
                k = ref.corrector_k(delta, alpha)
                out.append(Op(
                    f"{label} corrector #{i}",
                    lambda t, s=space, x=x, f=f, d=delta, k=k, a=alpha: moduli.bpb_corrector(
                        s, pi_set.pair_state(s, x, f), d, k, a, cfg),
                    lambda r, n=norm, x=x, f=f, d=delta, k=k, a=alpha: self._check_corrector(
                        n, x, f, d, k, a, r)))
        return out

    @staticmethod
    def _check_corrector(norm, x, f, delta, k, alpha, r) -> str | None:
        problems = check_witness(norm, x, f, r.witness)
        a = norm.norm(x - r.witness.y)
        b = norm.dual_norm(f - r.witness.g)
        b1, b2 = delta / k, 2.0 * k - (2.0 / 3.0) * k * alpha
        if a > b1 + TOL or b > b2 + TOL:
            problems.append(f"corrector distances {a:.6f}, {b:.6f} exceed {b1:.6f}, {b2:.6f}")
        if abs(r.slack_x - (b1 - a)) > TOL or abs(r.slack_f - (b2 - b)) > TOL:
            problems.append("reported slacks do not recompute")
        return _first(problems)


# ---------------------------------------------------------------------------
# highdim


class HighDim:
    """Pi-sample builds, distance queries, sphere moduli and alpha in 3-d and 4-d.

    Resolutions: 40 for the 3-d spaces (1600 sphere points), 8 for the cube
    polytope (64 points, every gauge row is a linear program) and 10 for
    l2:4 (1000 random points).  The cube gets its build and distance queries
    only: one sphere-mode modulus on it takes about 20 s.  The moduli inputs
    are fixed (sphere mode at delta = 0.2 everywhere); the seed draws the
    distance queries.
    """

    name = "highdim"
    min_rounds = 3
    tail_q = 0.96
    resolution = {"cube": 8, "l2:4": 10}
    sphere_delta = 0.2
    # the named fault each fixed-input operation shows; see README.md
    faults = {"linf:3 sphere": "c", "l1:3 sphere": "c", "sum1(l2:2,r:1) sphere": "c",
              "suminf(l1:2,r:1) sphere": "c", "l2:4 sphere": "b"}

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.spaces = {}
        self.queries = {}
        for label, (make, norm, fam) in SPACES_HD.items():
            cfg = spaces.EstimatorConfig(resolution=self.resolution.get(label, 40))
            self.spaces[label] = (make(), norm, fam, cfg)
            n = 4 if label == "cube" else 40
            self.queries[label] = [_ball_pair(rng, norm) for _ in range(n)]

    def before_round(self) -> None:
        clear_program_caches()

    def ops(self) -> list[Op]:
        out = []
        for label, (space, norm, fam, cfg) in self.spaces.items():
            out.append(Op(f"{label} pi sample",
                          lambda t, s=space, c=cfg: pi_set.sample_pi(s, c),
                          lambda r, n=norm, m=cfg.resolution ** (norm.dim - 1):
                              check_pi_sample(n, r, m)))
            for i, (x, f) in enumerate(self.queries[label]):
                if norm.euclidean:
                    exact = ref.euclidean_distance(x, f)
                    bounds = (exact - 1e-7, exact + 1e-7)
                else:  # (y, g) in Pi has |y| = |g|* = 1
                    bounds = (max(abs(norm.norm(x) - 1.0), abs(norm.dual_norm(f) - 1.0)), math.inf)
                out.append(Op(
                    f"{label} distance #{i}",
                    lambda t, s=space, c=cfg, x=x, f=f: pi_set.distance_to_pi(
                        s, pi_set.pair_state(s, x, f), c),
                    lambda w, n=norm, x=x, f=f, b=bounds: check_distance(n, x, f, w, *b)))
            if label == "cube":
                continue
            delta = self.sphere_delta
            exact = sphere_reference(fam, delta)
            out.append(Op(
                f"{label} sphere delta={delta}",
                lambda t, s=space, c=cfg, d=delta: moduli.estimate_phi(s, d, "sphere", c),
                lambda e, n=norm, d=delta, x=exact: check_estimate(
                    n, e, mode="sphere", delta=d,
                    upper=ref.universal_bound(d) if x is None else x, lower=x),
                fault=self.faults.get(f"{label} sphere")))
            # every non-euclidean space here holds an isometric l1 or l-infinity
            # plane, so its alpha is 0 like the square planes'
            out.append(Op(f"{label} alpha",
                          lambda t, s=space, c=cfg: moduli.estimate_alpha(s, c),
                          lambda r, n=norm, f=fam: check_alpha(n, r, "euclid" if f == "euclid"
                                                               else "square")))
        return out


# ---------------------------------------------------------------------------
# cli


README_EXAMPLES = [
    "psi --mu 1 --theta 1 --delta 0.1:0.5:0.1",
    "distance --space l2:2 --x 1,0 --f 0,1",
    "modulus --space linf:2 --mode sphere --delta 0.5",
    "modulus --space sum1(r:1,r:1) --mode mut --mu 0.9 --theta 0.9 --delta 0.4",
    "alpha --space l2:2 --self-dual",
    "convexity --space l2:2 --eps 0.5:2.0:0.5",
    "corrector --space l2:2 --x 1,0 --f 1,0 --delta 0.1 --alpha-tilde 0.58",
    "witness --family linf2 --mu 1 --theta 1 --delta 0.5",
    "verify --suite all",
]

# usage errors the documented contract answers with exit code 2 (fault a)
MALFORMED = [
    "modulus --space l2:2 --mode sphere --delta 0.5 --resolution 4",
    "modulus --space l2:2 --mode sphere --delta 0.5 --threads 0",
    "distance --space lp:2:p=0.5 --x 1,0 --f 1,0",
    "distance --space l2:2 --x 1,0,0 --f 1,0",
    "distance --space l2:2 --x nan,0 --f 1,0",
    "alpha --space l2:5",
    "corrector --space l2:2 --x 1,0 --f 0,1 --delta 0.1 --alpha-tilde 0.58",
]


# a command that runs longer has failed; subprocess.run kills it and waits
CLI_TIMEOUT = 60


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("BPB_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol


def _check_psi(out: str) -> str | None:
    rows = _csv_rows(out)
    if len(rows) != 5:
        return f"{len(rows)} rows, expected 5"
    for row in rows:
        d = float(row["delta"])
        for col, want in (("psi", ref.universal_bound(d)), ("min_bound", ref.phi_upper(1, 1, d)),
                          ("lower_bound", ref.phi_lower(1, 1))):
            if not _close(float(row[col]), want):
                return f"{col}({d}) = {row[col]}, reference {want!r}"
    return None


def _check_distance_cli(out: str) -> str | None:
    w = json.loads(out)["witness"]
    norm = ref.lp(2.0, 2)
    x, f = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    if ref.pi_defect(norm, w["y"], w["g"]) > TOL:
        return "witness off Pi"
    d = ref.pair_distance(norm, x, f, w["y"], w["g"])
    exact = ref.euclidean_distance(x, f)
    if not (_close(d, w["distance"]) and _close(d, exact, 1e-7)):
        return f"distance {w['distance']!r}, recomputed {d!r}, reference {exact!r}"
    return None


def _check_modulus_cli(out: str, upper: float, lower: float) -> str | None:
    row = _csv_rows(out)[0]
    v, e = float(row["estimate"]), float(row["mesh_error"])
    if v - e > upper + TOL or v + e < lower - TOL:
        return f"bracket {v} +- {e} misses [{lower!r}, {upper!r}]"
    return None


def _check_alpha_cli(out: str) -> str | None:
    row = _csv_rows(out)[0]
    for a, e in ((row["alpha"], row["mesh_error"]), (row["alpha_dual"], row["dual_mesh_error"])):
        if abs(float(a) - ref.ALPHA_CEILING) > float(e) + TOL:
            return f"alpha {a} +- {e} misses 2 - sqrt(2)"
    return None


def _check_convexity_cli(out: str) -> str | None:
    rows = _csv_rows(out)
    if len(rows) != 4:
        return f"{len(rows)} rows, expected 4"
    for row in rows:
        want = ref.day_nordlander(float(row["eps"]))
        if abs(float(row["delta_x"]) - want) > float(row["mesh_error"]) + TOL:
            return f"delta_x({row['eps']}) = {row['delta_x']} misses {want!r}"
    return None


def _check_corrector_cli(out: str) -> str | None:
    payload = json.loads(out)
    w = payload["witness"]
    norm = ref.lp(2.0, 2)
    x = f = np.array([1.0, 0.0])
    k = ref.corrector_k(0.1, 0.58)
    if ref.pi_defect(norm, w["y"], w["g"]) > TOL:
        return "witness off Pi"
    if not _close(payload["k"], k):
        return f"k = {payload['k']!r}, reference {k!r}"
    a, b = norm.norm(x - np.array(w["y"])), norm.dual_norm(f - np.array(w["g"]))
    if a > 0.1 / k + TOL or b > 2.0 * k - (2.0 / 3.0) * k * 0.58 + TOL:
        return "witness outside the corrector bounds"
    return None


def _check_witness_cli(out: str) -> str | None:
    p = json.loads(out)
    want = ref.phi_upper(1.0, 1.0, 0.5)
    norm = ref.lp(math.inf, 2)
    x, f = np.array(p["x"]), np.array(p["f"])
    if not (_close(p["predicted_distance"], want) and _close(norm.norm(x), 1.0)
            and _close(norm.dual_norm(f), 1.0) and float(np.dot(x, f)) >= 0.5 - TOL):
        return f"witness pair or prediction {p['predicted_distance']!r} off the reference {want!r}"
    return None


def _check_verify_cli(out: str) -> str | None:
    lines = out.strip().splitlines()
    checks = [ln for ln in lines if ln.startswith(("PASS ", "FAIL "))]
    if not checks or any(ln.startswith("FAIL") for ln in checks):
        return "a verification check failed"
    if lines[-1] != f"OK: {len(checks)}/{len(checks)} checks passed":
        return f"summary line {lines[-1]!r}"
    return None


CLI_CHECKS = {
    README_EXAMPLES[0]: _check_psi,
    README_EXAMPLES[1]: _check_distance_cli,
    README_EXAMPLES[2]: lambda out: _check_modulus_cli(out, ref.universal_bound(0.5),
                                                       ref.universal_bound(0.5)),
    README_EXAMPLES[3]: lambda out: _check_modulus_cli(out, ref.phi_upper(0.9, 0.9, 0.4),
                                                       ref.phi_upper(0.9, 0.9, 0.4)),
    README_EXAMPLES[4]: _check_alpha_cli,
    README_EXAMPLES[5]: _check_convexity_cli,
    README_EXAMPLES[6]: _check_corrector_cli,
    README_EXAMPLES[7]: _check_witness_cli,
    README_EXAMPLES[8]: _check_verify_cli,
}


def run_cli(args: list[str], tracer) -> subprocess.CompletedProcess:
    """One bpbmod process; traced runs go through child.py, which records spans."""
    if tracer is None:
        cmd = [sys.executable, "-m", "bpbmod.cli", *args]
        return subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=CLI_TIMEOUT)
    OUT.mkdir(exist_ok=True)
    fd, spans = tempfile.mkstemp(prefix="spans-", suffix=".json", dir=OUT)
    os.close(fd)
    try:
        cmd = [sys.executable, str(Path(__file__).with_name("child.py")), "cli", spans, *args]
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=CLI_TIMEOUT)
        tracer.merge_file(spans)
    finally:
        os.unlink(spans)
    return proc


class Cli:
    """The README's CLI examples and seven malformed inputs, each in a fresh process.

    ``verify --suite all`` runs at its default resolution; the README's
    ``--resolution 2000`` variant takes 18 s on its own and would leave room
    for a single round.  The inputs are fixed; the seed does not change them.
    """

    name = "cli"
    min_rounds = 4
    tail_q = 1.0  # 16 operations are too few for a percentile: the slowest command

    def setup(self, seed: int) -> None:
        import bpbmod.cli as cli
        cli.build_parser()

    def before_round(self) -> None:
        pass

    def ops(self) -> list[Op]:
        out = []
        for line in README_EXAMPLES:
            out.append(Op(line, lambda t, a=line.split(): run_cli(a, t),
                          lambda r, c=CLI_CHECKS[line]: self._check_ok(r, c)))
        for line in MALFORMED:
            out.append(Op(line, lambda t, a=line.split(): run_cli(a, t),
                          self._check_usage_error, fault="a"))
        return out

    @staticmethod
    def _check_ok(r: subprocess.CompletedProcess, check) -> str | None:
        if r.returncode != 0:
            return f"exit {r.returncode}: {r.stderr.strip()[-200:]}"
        return check(r.stdout)

    @staticmethod
    def _check_usage_error(r: subprocess.CompletedProcess) -> str | None:
        if r.returncode != 2 or "Traceback" in r.stderr:
            last = (r.stderr.strip().splitlines() or [""])[-1]
            return f"exit {r.returncode} instead of 2: {last[:200]}"
        return None


WORKLOADS = {w.name: w for w in (Sweep2d, Query2d, HighDim, Cli)}

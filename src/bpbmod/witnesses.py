"""Extremal pairs whose distance to the attainment set is known in closed form.

Each constructor returns a pair (as a PairState of the relevant space)
together with the predicted distance, and the constructed pair satisfies its
three declared identities -- point norm, functional norm, action value -- to
1e-10.  These pairs prove sharpness of the closed-form bounds on the max
space of dimension two, on direct sums, and on the real line.
"""

from __future__ import annotations

import math

import numpy as np

from .closed_forms import ModulusQuery, RegimeError, phi_upper_bound, psi, real_line_distance
from .pi_set import PairState, pair_state
from .spaces import Lp, NormedSpace, Sum1, SumInf

__all__ = [
    "linf2_witness",
    "sum1_witness",
    "suminf_witness",
    "real_witness",
    "canonical_pin",
]

_LINF2 = Lp(math.inf, 2)


def _root(q: ModulusQuery) -> float:
    return math.sqrt(max(0.0, (q.mu - q.theta) ** 2 + 8.0 * q.slack))


def linf2_witness(q: ModulusQuery) -> tuple[PairState, float]:
    """Extremal pair on the 2-d max-norm space.

    The construction depends on which term attains min{psi, 1+mu, 1+theta}
    (ties resolved toward the psi branch):

    * psi branch:     x = (mu, 1 - psi),  f = (theta (1-k), theta k)
    * 1+theta branch: x = (mu, -theta),   f = (0, theta)
    * 1+mu branch:    x = (mu, -mu),      f = ((theta-mu)/2, (theta+mu)/2)
    """
    q.require_psi()
    value = psi(q)
    bound = phi_upper_bound(q)
    if value <= min(1.0 + q.mu, 1.0 + q.theta):
        k = (q.theta - q.mu + _root(q)) / (4.0 * q.theta)
        x = np.array([q.mu, 1.0 - value])
        f = np.array([q.theta * (1.0 - k), q.theta * k])
    elif q.theta <= q.mu:
        x = np.array([q.mu, -q.theta])
        f = np.array([0.0, q.theta])
    else:
        x = np.array([q.mu, -q.mu])
        f = np.array([(q.theta - q.mu) / 2.0, (q.theta + q.mu) / 2.0])
    return pair_state(_LINF2, x, f), bound


def canonical_pin(space: NormedSpace) -> tuple[np.ndarray, np.ndarray]:
    """A deterministic attainment pair of a component space.

    First coordinate direction for p-norm spaces; first ball vertex with its
    supporting functional otherwise.
    """
    if isinstance(space, Lp):
        e = np.zeros(space.dim)
        e[0] = 1.0
        return e, space.support(e)
    verts = space.ball_vertices()
    if len(verts):
        v = verts[0] / space.norm(verts[0])
        return v, space.support(v)
    raise ValueError(f"no canonical attainment pair for {space!r}")


def sum1_witness(a: NormedSpace, b: NormedSpace, q: ModulusQuery) -> tuple[PairState, float]:
    """Extremal pair on the sum-normed direct sum of two spaces.

    With the canonical pins (y0, y0*) of A and (z0, z0*) of B and
    k = (mu - theta + root) / (4 mu):

        x = (mu k y0, mu (1-k) z0),   f = ((1 - psi) y0*, theta z0*).

    Requires the direct-sum regime delta < 1, 1-delta < mu theta <= 2(1-delta).
    """
    if not q.regime_sum:
        raise RegimeError(
            "direct-sum witness requires delta < 1 and 1-delta < mu*theta <= 2(1-delta)")
    y0, y0s = canonical_pin(a)
    z0, z0s = canonical_pin(b)
    value = psi(q)
    k = (q.mu - q.theta + _root(q)) / (4.0 * q.mu)
    space = Sum1(a, b)
    x = np.concatenate([q.mu * k * y0, q.mu * (1.0 - k) * z0])
    f = np.concatenate([(1.0 - value) * y0s, q.theta * z0s])
    return pair_state(space, x, f), value


def suminf_witness(a: NormedSpace, b: NormedSpace, q: ModulusQuery) -> tuple[PairState, float]:
    """Extremal pair on the max-normed direct sum; dual mirror of sum1_witness.

    With k = (theta - mu + root) / (4 theta):

        x = ((1 - psi) y0, mu z0),   f = (k theta y0*, (1-k) theta z0*).
    """
    if not q.regime_sum:
        raise RegimeError(
            "direct-sum witness requires delta < 1 and 1-delta < mu*theta <= 2(1-delta)")
    y0, y0s = canonical_pin(a)
    z0, z0s = canonical_pin(b)
    value = psi(q)
    k = (q.theta - q.mu + _root(q)) / (4.0 * q.theta)
    space = SumInf(a, b)
    x = np.concatenate([(1.0 - value) * y0, q.mu * z0])
    f = np.concatenate([k * q.theta * y0s, (1.0 - k) * q.theta * z0s])
    return pair_state(space, x, f), value


def real_witness(q: ModulusQuery) -> tuple[PairState, float]:
    """Extremal scalar pair attaining the real-line distance bound.

    delta <= 1:            x = mu,  f = theta
    1 < delta < 1+mu*theta: x = mu,  f = (1-delta)/mu
    delta >= 1+mu*theta:    x = mu,  f = -theta
    """
    q.require_admissible()
    if q.delta <= 1.0:
        x, f = q.mu, q.theta
    elif q.delta < 1.0 + q.mu * q.theta:
        if q.mu <= 0.0:
            raise RegimeError("mu must be positive for 1 < delta < 1 + mu*theta")
        x, f = q.mu, (1.0 - q.delta) / q.mu
    else:
        x, f = q.mu, -q.theta
    predicted = real_line_distance(x, f)
    return pair_state(Lp(2.0, 1), [x], [f]), predicted

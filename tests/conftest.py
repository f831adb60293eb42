import math

import numpy as np
import pytest

from bpbmod import EstimatorConfig, Lp, Polytope, Sum1, SumInf


@pytest.fixture(scope="session")
def l1():
    return Lp(1.0, 2)


@pytest.fixture(scope="session")
def l2():
    return Lp(2.0, 2)


@pytest.fixture(scope="session")
def linf():
    return Lp(math.inf, 2)


@pytest.fixture(scope="session")
def r1():
    return Lp(2.0, 1)


@pytest.fixture(scope="session")
def hexagon():
    verts = [[math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0)]
             for k in range(6)]
    return Polytope(np.array(verts))


@pytest.fixture(scope="session")
def diamond():
    return Polytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))


@pytest.fixture(scope="session")
def square():
    return Polytope(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]))


@pytest.fixture(scope="session")
def sum1_rr(r1):
    return Sum1(r1, r1)


@pytest.fixture(scope="session")
def suminf_rr(r1):
    return SumInf(r1, r1)


@pytest.fixture(scope="session")
def sweep_spaces(l2, linf, hexagon, sum1_rr):
    """2-d and 3-d kinds for the streamed-sweep oracle tests, by name."""
    cube = Polytope(np.array([[a, b, c] for a in (-1.0, 1.0) for b in (-1.0, 1.0)
                              for c in (-1.0, 1.0)]))
    return {"l2:2": l2, "linf:2": linf, "hexagon": hexagon, "sum1(r:1,r:1)": sum1_rr,
            "l2:3": Lp(2.0, 3), "linf:3": Lp(math.inf, 3),
            "sum1(l2:2,r:1)": Sum1(Lp(2.0, 2), Lp(2.0, 1)), "cube": cube}


@pytest.fixture(scope="session")
def cfg():
    return EstimatorConfig(resolution=400)


@pytest.fixture(scope="session")
def cfg_fast():
    return EstimatorConfig(resolution=160)

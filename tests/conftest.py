import math

import pytest

from grusskit.funcrep import PiecewiseFunction


@pytest.fixture
def ident():
    return PiecewiseFunction.from_coeffs((0.0, 1.0), 0.0, 1.0)


@pytest.fixture
def tsq():
    return PiecewiseFunction.from_coeffs((0.0, 0.0, 1.0), 0.0, 1.0)


@pytest.fixture
def tcube():
    return PiecewiseFunction.from_coeffs((0.0, 0.0, 0.0, 1.0), 0.0, 1.0)


@pytest.fixture
def one():
    return PiecewiseFunction.constant(1.0, 0.0, 1.0)


@pytest.fixture
def zero():
    return PiecewiseFunction.constant(0.0, 0.0, 1.0)


@pytest.fixture
def u_jump():
    """-1 at 0, 0 on (0, 1), 1 at 1: the pure endpoint-jump integrator."""
    return PiecewiseFunction.endpoint_step(0.0, 1.0, -1.0, 0.0, 1.0)


@pytest.fixture
def pm_step():
    """-1 on [0, 1/2], +1 on (1/2, 1]."""
    return PiecewiseFunction.step(0.0, 1.0, 0.5, -1.0, 1.0, value=-1.0)


@pytest.fixture
def centred_line():
    return PiecewiseFunction.from_coeffs((-0.5, 1.0), 0.0, 1.0)


@pytest.fixture
def step_at_b():
    """0 on [0, 1), 1 at 1."""
    return PiecewiseFunction((0.0, 1.0), ((0.0,),), (0.0, 1.0))


@pytest.fixture
def step_at_mid():
    """0 on [0, 1/2], 1 on (1/2, 1]."""
    return PiecewiseFunction((0.0, 0.5, 1.0), ((0.0,), (1.0,)),
                             (0.0, 0.0, 1.0))


@pytest.fixture
def vee():
    """|t - 1/2| as two linear pieces."""
    return PiecewiseFunction.build((0.0, 0.5, 1.0),
                                   ((0.5, -1.0), (-0.5, 1.0)))


@pytest.fixture
def sqrt_surrogate():
    """Chordal interpolant of sqrt on [0, 1] at the nodes (k/16)^2: a
    genuine (1, 1/2)-Holder test function."""
    nodes = [(k / 16) ** 2 for k in range(17)]
    bps, pieces = [0.0], []
    for lo, hi in zip(nodes, nodes[1:]):
        slope = (math.sqrt(hi) - math.sqrt(lo)) / (hi - lo)
        pieces.append((math.sqrt(lo) - slope * lo, slope))
        bps.append(hi)
    return PiecewiseFunction.build(bps, pieces)

import math
import sys

import pytest

from grusskit import poly
from grusskit.funcrep import PiecewiseFunction


@pytest.fixture(autouse=True)
def _empty_derivative_memo():
    """Every test starts with an empty ``poly`` derivative memo, so exact
    derivation counts do not depend on which tests ran before."""
    poly._tail_entry.cache_clear()


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


@pytest.fixture
def tent_above_chord():
    """t^2 on [0, 1] with a tent of half-width 1e-4 at t0 = 1000.5/2048
    whose peak sits 0.01 above the chord u = t: the divided-difference gap
    is negative only inside (t0 - 1e-4, t0 + 1e-4), which lies strictly
    between two neighbouring points k/2048 of a uniform 2049-point grid."""
    t0, h = 1000.5 / 2048, 1e-4
    top = t0 + 0.01
    lo, hi = t0 - h, t0 + h
    up, down = (top - lo * lo) / h, (hi * hi - top) / h
    return PiecewiseFunction.build(
        (0.0, lo, t0, hi, 1.0),
        ((0.0, 0.0, 1.0), (top - up * t0, up), (top - down * t0, down),
         (0.0, 0.0, 1.0)))


class CallCounts(dict):
    """Call counts keyed by function name; ``args[name]`` lists the
    positional arguments of every counted call, in call order."""

    def __init__(self, names):
        names = list(names)
        super().__init__(dict.fromkeys(names, 0))
        self.args = {name: [] for name in names}


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(*functions)`` wraps every binding of each function in
    the loaded grusskit modules, and in the classes they define, with a
    call counter and returns the ``CallCounts``, keyed by function name."""
    def install(*functions) -> CallCounts:
        counts = CallCounts(fn.__name__ for fn in functions)
        for fn in functions:
            def counted(*args, _fn=fn, **kwargs):
                counts[_fn.__name__] += 1
                counts.args[_fn.__name__].append(args)
                return _fn(*args, **kwargs)
            for name, mod in list(sys.modules.items()):
                if name == "grusskit" or name.startswith("grusskit."):
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            monkeypatch.setattr(mod, attr, counted)
                        elif isinstance(value, type):
                            for cattr, cvalue in list(vars(value).items()):
                                if cvalue is fn:
                                    monkeypatch.setattr(value, cattr,
                                                        counted)
        return counts
    return install

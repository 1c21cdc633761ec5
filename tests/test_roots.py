import math

import pytest

from darkfocus._roots import bracketed_root


def counted(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


def test_smooth_root_to_the_last_bit_in_few_evaluations():
    f, calls = counted(math.cos)
    assert bracketed_root(f, 1.0, 2.0) == math.pi / 2
    assert len(calls) <= 15


def test_ends_in_either_order():
    assert bracketed_root(math.cos, 2.0, 1.0) == math.pi / 2


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0)])
def test_zero_at_an_end_is_returned(a, b):
    assert bracketed_root(lambda x: x, a, b) == 0.0


@pytest.mark.parametrize("a,b", [(2.0, 3.0), (-1.0, 1.0)])
def test_no_sign_change_raises(a, b):
    with pytest.raises(ValueError, match="do not bracket a root"):
        bracketed_root(lambda x: x * x + 1.0, a, b)


def test_stops_on_adjacent_floats():
    # a step with no zero: the bracket can only collapse around it
    root = bracketed_root(lambda x: -1.0 if x < 1.0 else 1.0, 0.0, 3.0)
    assert root in (1.0, math.nextafter(1.0, 0.0))


def test_bracket_straddling_zero_terminates():
    # no relative tolerance is ever met around a root at 0
    root = bracketed_root(lambda x: -1.0 if x < 0.0 else 1.0, -1.0, 2.0)
    assert root in (0.0, -math.ulp(0.0))


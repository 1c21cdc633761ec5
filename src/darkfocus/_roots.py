"""The package's one scalar root finder, for roots that a sign change brackets:
the corner frequency of darkfocus.spectral.fit_lorentzian and the intensity
peaks of darkfocus.beam."""

import math


def bracketed_root(f, a, b):
    """A root of f between a and b, where f(a) and f(b) differ in sign.

    False position with the Illinois modification (an end kept twice in a
    row has its value halved, so neither end stalls), a bisection step
    after three steps in a row that each failed to halve the bracket, and a
    probe of the neighbouring float when the false-position point rounds
    onto an end.  The search stops at an exact zero or when the bracket has
    collapsed to adjacent floats, and returns the end with the smaller |f|:
    no tolerance is assumed, so the root comes out as exactly as f can be
    evaluated.  Raises ValueError when f(a) and f(b) have the same sign.
    """
    if a > b:
        a, b = b, a
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise ValueError(f"f({a!r}) = {fa!r} and f({b!r}) = {fb!r} do not bracket a root")
    ga, gb = fa, fb  # the end values the false-position step reads
    kept, slow = 0, 0  # the end kept by the last step (-1 a, 1 b); steps not halving
    while True:
        mid = a + 0.5 * (b - a)
        if not a < mid < b:
            break  # adjacent floats
        x = mid if slow >= 3 else a - ga * (b - a) / (gb - ga)
        if x <= a:  # the root is within rounding of an end: try its neighbour
            x = math.nextafter(a, b)
        elif x >= b:
            x = math.nextafter(b, a)
        fx = f(x)
        if fx == 0.0:
            return x
        width = b - a
        if (fx < 0.0) == (fa < 0.0):
            a, fa, ga = x, fx, fx
            if kept == 1:
                gb *= 0.5
            kept = 1
        else:
            b, fb, gb = x, fx, fx
            if kept == -1:
                ga *= 0.5
            kept = -1
        slow = 0 if x == mid or b - a <= 0.5 * width else slow + 1
    return a if math.fabs(fa) <= math.fabs(fb) else b

"""One check per kind of scalar argument: count() for an integer with a
least value, real() for a finite real number with an optional lower bound,
strict (above) or not (at_least).  Python and numpy numbers pass; bools,
numpy's too, strings and other non-numbers never do.  A refusal is a
ValueError that names the argument and the value, such as "n_bins must be
an integer >= 1, got True".  Nothing is converted, so no value changes."""

import math
import numbers


def count(name, value, least):
    """ValueError unless value is an integer >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def real(name, value, above=None, at_least=None):
    """ValueError unless value is a finite real number, and greater than
    above or at least at_least when one of them is given."""
    try:
        finite = math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an integer beyond every float
        finite = False
    if (isinstance(value, bool) or not isinstance(value, numbers.Real) or not finite
            or (above is not None and not value > above)
            or (at_least is not None and not value >= at_least)):
        wanted = ("a finite number" if above is None and at_least is None
                  else "finite and positive" if above == 0
                  else f"finite and > {above:g}" if above is not None
                  else f"finite and >= {at_least:g}")
        raise ValueError(f"{name} must be {wanted}, got {value!r}")

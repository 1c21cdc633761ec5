"""One check per kind of scalar argument: count() for an integer with an
optional least and most value, real() for a finite real number with an
optional lower bound, strict (above) or not (at_least), and an optional
strict upper bound (below), and choice() for one of a few names.  Python
and numpy numbers pass; bools, numpy's too, strings and other non-numbers
never do.  A refusal is a ValueError that names the argument and the value,
such as "n_bins must be an integer >= 1, got True" or, with both bounds,
"overlap must be finite and in [0, 1), got 1.0".  Nothing is converted, so
no value changes."""

import math
import numbers


class NumericalError(ValueError):
    """Valid input that the numerics cannot resolve: too few bins, too narrow a support."""


def count(name, value, least=-math.inf, most=math.inf):
    """ValueError unless value is an integer in [least, most]."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not least <= value <= most):
        wanted = ("an integer" if least == -math.inf and most == math.inf
                  else f"an integer >= {least}" if most == math.inf
                  else f"an integer in [{least}, {most}]")
        raise ValueError(f"{name} must be {wanted}, got {value!r}")


def real(name, value, above=None, at_least=None, below=None):
    """ValueError unless value is a finite real number, greater than above
    or at least at_least when one of them is given, and less than below
    when it is given."""
    try:
        finite = math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an integer beyond every float
        finite = False
    if (isinstance(value, bool) or not isinstance(value, numbers.Real) or not finite
            or (above is not None and not value > above)
            or (at_least is not None and not value >= at_least)
            or (below is not None and not value < below)):
        if below is not None and (above, at_least) != (None, None):
            wanted = (f"finite and in ({above:g}, {below:g})" if above is not None
                      else f"finite and in [{at_least:g}, {below:g})")
        else:
            wanted = ("finite and positive" if above == 0
                      else f"finite and > {above:g}" if above is not None
                      else f"finite and >= {at_least:g}" if at_least is not None
                      else f"finite and < {below:g}" if below is not None
                      else "a finite number")
        raise ValueError(f"{name} must be {wanted}, got {value!r}")


def choice(name, value, options):
    """ValueError unless value is one of options, a tuple of two or more."""
    if value not in options:
        *head, last = map(repr, options)
        raise ValueError(f"{name} must be {', '.join(head)} or {last}, got {value!r}")

"""Build and load the compiled kernels: integrator.c, the Euler-Maruyama chunk
stepper of darkfocus.dynamics.simulate and numpy's standard-normal ziggurat,
which draws numpy's bits from a numpy bit generator for the simulator's
noise and the KS null table; trajio.c, the row writer and parser
of darkfocus._text, through which every float table is written and read;
and binning.c: the support bounds and the (rho, z) binning of
darkfocus.calibration.reconstruct_potential, which derive rho from x and y,
the bounds in two passes and the binning counting every sample once into
the grid of its fold; the x and y
histograms of every run of darkfocus.calibration.estimate_na;
and the KS statistics of darkfocus.calibration.ks_gaussianity_test, whose
Gaussian CDF is 0.5 * erfc(-a * sqrt(1/2)) with libm's erfc.

The sources ship inside the package and are compiled together, on first
use, into one shared library with the system C compiler, without
floating-point contraction or fast-math so that every operation rounds as
Python's floats do.  The library is cached per user under
$XDG_CACHE_HOME/darkfocus (default ~/.cache/darkfocus) in a file named by a
hash of every source, the compiler's version and the flags; it is written to
a temporary file and renamed into place, so concurrent first runs are safe.
When no compiler works, load() logs one warning and returns None, and
darkfocus.dynamics, darkfocus._text and darkfocus.calibration run their
Python reference code for the stepper, the table I/O, the binning, the
support bounds and the KS statistics (libm's erfc again, through
math.erfc), and numpy draws the normals, which gives the same bits and the
same text.

The 128-bit power tables of the I/O kernels are computed here, exactly,
from Python integers.
"""

import contextlib
import ctypes
import functools
import hashlib
import logging
import os
import subprocess
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

COMPILER = "cc"
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
SOURCES = ("integrator.c", "trajio.c", "binning.c")

# ndpointer checks dtype and layout
_DOUBLES = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_OUT_DOUBLES = np.ctypeslib.ndpointer(np.float64, flags=("C_CONTIGUOUS", "WRITEABLE"))
_WORDS = np.ctypeslib.ndpointer(np.uint64, flags="C_CONTIGUOUS")
_BYTES = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
_OUT_BYTES = np.ctypeslib.ndpointer(np.uint8, flags=("C_CONTIGUOUS", "WRITEABLE"))
_COUNTS = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_OUT_COUNTS = np.ctypeslib.ndpointer(np.int64, flags=("C_CONTIGUOUS", "WRITEABLE"))
_LONG_P = ctypes.POINTER(ctypes.c_long)
_SIGNATURES = {
    # (model, coef, noise, rows of noise, out, bound, mobility, reflect, &status)
    "df_step_chunk": [ctypes.c_int, _DOUBLES, _DOUBLES, ctypes.c_long, _OUT_DOUBLES,
                      ctypes.c_double, ctypes.c_double, ctypes.c_int,
                      ctypes.POINTER(ctypes.c_int)],
    # (numpy bitgen_t *, count, scale, out)
    "df_normals": [ctypes.c_void_p, ctypes.c_long, ctypes.c_double, _OUT_DOUBLES],
    # (values, rows, columns, inv5, pow5, text, capacity)
    "df_format_rows": [_DOUBLES, ctypes.c_long, ctypes.c_long, _WORDS, _WORDS,
                       _OUT_BYTES, ctypes.c_long],
    # (text, length, final, comma, pow5, columns, first, lead, out, width,
    #  capacity, &nrows)
    "df_parse_rows": [_BYTES, ctypes.c_long, ctypes.c_int, ctypes.c_int, _WORDS,
                      ctypes.c_long, _OUT_DOUBLES, ctypes.c_long, _OUT_DOUBLES, ctypes.c_long,
                      ctypes.c_long, _LONG_P],
    # (positions, rows, rho edges, rho bins, z edges, z bins, counts)
    "df_bin_rho_z": [_DOUBLES, ctypes.c_long, _DOUBLES, ctypes.c_long, _DOUBLES, ctypes.c_long,
                     _OUT_COUNTS],
    # (positions, rows, first keys, bins, rho key counts, |z| key counts)
    "df_key_counts": [_DOUBLES, ctypes.c_long, _COUNTS, ctypes.c_long, _OUT_COUNTS,
                      _OUT_COUNTS],
    # (positions, rows, windows, caps, rho values, |z| values, counts found)
    "df_window_values": [_DOUBLES, ctypes.c_long, _DOUBLES, _COUNTS, _OUT_DOUBLES,
                         _OUT_DOUBLES, _OUT_COUNTS],
    # (positions, rows, x edges, x bins, y edges, y bins, x counts, y counts)
    "df_bin_xy": [_DOUBLES, ctypes.c_long, _DOUBLES, ctypes.c_long, _DOUBLES, ctypes.c_long,
                  _OUT_COUNTS, _OUT_COUNTS],
    # (sorted rows, rows, columns, row means, row standard deviations, out)
    "df_ks_rows": [_DOUBLES, ctypes.c_long, ctypes.c_long, _DOUBLES, _DOUBLES, _OUT_DOUBLES],
}


def _sources():
    return [resources.files(__package__).joinpath(name) for name in SOURCES]


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "darkfocus"


def _compile(sources, target: Path):
    """Compile sources into the shared library target, renamed into place."""
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=target.parent)
    os.close(fd)
    try:
        with contextlib.ExitStack() as stack:
            paths = [str(stack.enter_context(resources.as_file(s))) for s in sources]
            subprocess.run([COMPILER, *FLAGS, "-o", tmp, *paths, "-lm"],
                           check=True, capture_output=True, text=True)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def build() -> Path:
    """Path of the compiled library; compiles it unless the cache holds it."""
    sources = _sources()
    version = subprocess.run([COMPILER, "--version"], check=True,
                             capture_output=True, text=True).stdout
    key = hashlib.sha256("\0".join(
        (*(s.read_text() for s in sources), version, *FLAGS)).encode())
    target = _cache_dir() / f"darkfocus-{key.hexdigest()[:16]}.so"
    if not target.exists():
        target.parent.mkdir(parents=True, exist_ok=True)
        _compile(sources, target)
    return target


@functools.cache
def load():
    """The compiled library with every kernel of _SIGNATURES typed
    (df_step_chunk, df_normals, df_format_rows, df_parse_rows, df_bin_rho_z,
    df_key_counts, df_window_values, df_bin_xy and df_ks_rows), or None
    when it cannot be built; the outcome is kept for the life of the
    process.  Without it the KS statistics still have the same bits: both
    paths take the Gaussian CDF as 0.5 * erfc(-a * sqrt(1/2)) from libm."""
    fallback = ("the stepper, the table I/O, the binning, the support bounds and the KS "
                "statistics run their Python reference code and numpy draws the normals")
    try:
        library = ctypes.CDLL(str(build()))
    except subprocess.CalledProcessError as exc:
        log.warning("compiling %s failed, %s:\n%s", " ".join(SOURCES), fallback, exc.stderr)
        return None
    except OSError as exc:
        # no compiler on PATH, an unwritable cache or an unloadable library
        log.warning("cannot build %s (%s), %s", " ".join(SOURCES), exc, fallback)
        return None
    for name, argtypes in _SIGNATURES.items():
        function = getattr(library, name)
        function.argtypes = argtypes
        function.restype = ctypes.c_long
    return library


def _words(values):
    """Unsigned 128-bit integers as a read-only uint64 array of (low, high) pairs."""
    mask = (1 << 64) - 1
    words = np.array([(v & mask, v >> 64) for v in values], dtype=np.uint64)
    words.flags.writeable = False
    return words


@functools.cache
def shortest_tables():
    """Ryu's multipliers for df_format_rows, as (inv5, pow5): for q < 292,
    floor(2^(b(5^q) - 1 + 125) / 5^q) + 1, and for i < 326, 5^i shifted to
    125 bits (truncated), b being the bit length.  These cover every
    decimal exponent a finite double needs."""
    inv5 = [(1 << (5**q).bit_length() - 1 + 125) // 5**q + 1 for q in range(292)]
    pow5 = []
    for i in range(326):
        shift = (5**i).bit_length() - 125
        pow5.append(5**i >> shift if shift >= 0 else 5**i << -shift)
    return _words(inv5), _words(pow5)


@functools.cache
def decimal_table():
    """The Eisel-Lemire powers of five of df_parse_rows, q = -342 .. 308:
    for q >= 0, 5^q shifted to 128 bits with the top bit set (truncated);
    for q < 0, floor(2^b / 5^-q) + 1 truncated to 128 bits, where b is
    z + 127 for q >= -27 and 2z + 128 below, z the bit length of 5^-q."""
    powers = []
    for q in range(-342, 309):
        if q < 0:
            z = (5**-q).bit_length()
            c = (1 << (z + 127 if q >= -27 else 2 * z + 128)) // 5**-q + 1
            powers.append(c >> max(c.bit_length() - 128, 0))
        else:
            c = 5**q
            shift = c.bit_length() - 128
            powers.append(c >> shift if shift >= 0 else c << -shift)
    return _words(powers)

"""Build and load integrator.c, the compiled Euler-Maruyama chunk stepper.

The source ships inside the package and is compiled on first use with the
system C compiler, without floating-point contraction or fast-math so that
every operation rounds as Python's floats do.  The shared library is cached
per user under $XDG_CACHE_HOME/darkfocus (default ~/.cache/darkfocus) in a
file named by a hash of the source, the compiler's version and the flags; it
is written to a temporary file and renamed into place, so concurrent first
runs are safe.  When no compiler works, load() logs one warning and returns
None, and darkfocus.dynamics runs its Python reference loop, which gives the
same bits.
"""

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
SOURCE = "integrator.c"

_ARRAY = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
# df_step_chunk(model, coef, noise, rows of noise, out, bound, mobility,
#               reflect, &status); ndpointer checks dtype and layout
_ARGTYPES = [ctypes.c_int, _ARRAY, _ARRAY, ctypes.c_long,
             np.ctypeslib.ndpointer(np.float64, flags=("C_CONTIGUOUS", "WRITEABLE")),
             ctypes.c_double, ctypes.c_double, ctypes.c_int, ctypes.POINTER(ctypes.c_int)]


def _source():
    return resources.files(__package__).joinpath(SOURCE)


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "darkfocus"


def _compile(source, target: Path):
    """Compile source into the shared library target, renamed into place."""
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=target.parent)
    os.close(fd)
    try:
        with resources.as_file(source) as path:
            subprocess.run([COMPILER, *FLAGS, "-o", tmp, str(path), "-lm"],
                           check=True, capture_output=True, text=True)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def build() -> Path:
    """Path of the compiled stepper; compiles it unless the cache holds it."""
    source = _source()
    version = subprocess.run([COMPILER, "--version"], check=True,
                             capture_output=True, text=True).stdout
    key = hashlib.sha256("\0".join((source.read_text(), version, *FLAGS)).encode())
    target = _cache_dir() / f"integrator-{key.hexdigest()[:16]}.so"
    if not target.exists():
        target.parent.mkdir(parents=True, exist_ok=True)
        _compile(source, target)
    return target


@functools.cache
def load():
    """The compiled df_step_chunk as a ctypes function, or None when it
    cannot be built; the outcome is kept for the life of the process."""
    try:
        library = ctypes.CDLL(str(build()))
    except subprocess.CalledProcessError as exc:
        log.warning("compiling %s failed, simulate runs its Python loop:\n%s",
                    SOURCE, exc.stderr)
        return None
    except OSError as exc:
        # no compiler on PATH, an unwritable cache or an unloadable library
        log.warning("cannot build %s (%s), simulate runs its Python loop", SOURCE, exc)
        return None
    step = library.df_step_chunk
    step.argtypes = _ARGTYPES
    step.restype = ctypes.c_long
    return step

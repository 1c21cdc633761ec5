"""Property test of the CLI exit contract: any config drawn from the defaults
table with junk values substituted exits 0, 2, 3 or 4 without a traceback."""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from darkfocus.cli import _DEFAULTS, main  # noqa: E402

# sizes that keep every example fast: a short run and coarse grids
SMALL = copy.deepcopy(_DEFAULTS)
SMALL["simulation"]["n_steps"] = 2000
SMALL["grid"].update(n_transverse=41, n_z=41)
SMALL["analysis"]["fit_points"] = 5
SMALL["sweep"].update(na_start=0.44, na_stop=0.48, na_step=0.02, n_reps=3, n_steps=2000,
                      burn_in=500)

KEYS = [(section, key) for section, values in SMALL.items() for key in values]
JUNK = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e30, -1e30, 2.5, 1.0, 0, -1,
                     True, None, "1000", [1, "x"], {"nested": {"k_z": 1.0}}]),
    st.text(max_size=8),
)


@pytest.fixture(scope="module")
def target(tmp_path_factory):
    """A short quartic recording for sweep.target, written once."""
    tmp = tmp_path_factory.mktemp("target")
    path = tmp / "config.json"
    path.write_text(json.dumps({"simulation": {"n_steps": 4000}}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", str(path), "--out", str(tmp)]) == 0
    return str(tmp / "trajectory.txt")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(substitutions=st.lists(st.tuples(st.sampled_from(KEYS), JUNK), max_size=3))
def test_exit_contract(target, substitutions):
    config = copy.deepcopy(SMALL)
    config["sweep"]["target"] = target
    for (section, key), value in substitutions:
        config[section][key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        for command in ("beam", "absorb", "simulate", "psd", "calibrate", "forces-fit",
                        "sweep-na"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--config", str(path), "--out", str(Path(tmp) / command)])
            assert code in (0, 2, 3, 4), (command, err.getvalue())
            assert "Traceback" not in err.getvalue()

"""darkfocus runs on numpy alone: neither the import nor any simulate, psd,
calibrate, sweep, beam, absorption, force-fit or KS path loads scipy.  Each
check runs in a fresh interpreter, since this one has scipy loaded by the
tests.  Every module imports what it needs at its top, never in a function
body, every trap-model fit solves through the one call of lstsq, every
standard normal is drawn through the one call of standard_normal, the
package exports exactly the names in its modules' __all__, and every name
the package defines is used in it."""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import darkfocus
from darkfocus import _checks, absorption, beam, calibration, dynamics, forces, spectral

SRC = Path(darkfocus.__file__).resolve().parent.parent

PRINT_SCIPY = """
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""

# small runs of every path a benchmark task or a default CLI command takes
RUN_EVERY_PATH = """
from pathlib import Path

from darkfocus import calibration, cli, dynamics, spectral

out = Path(sys.argv[1])
quartic = {"n_steps": 20_000, "dt": 2e-5, "seed": 3, "boundary": "reflect",
           "domain_bound": 1.6e-7,
           "coefficients": {"k_z": 3.86e-7, "k_rho_z": 8.81e7, "k_rho": 2.26e8}}
target = str(out / "quartic" / "trajectory.txt")
runs = [
    ("simulate", "quartic", {"simulation": quartic}),
    ("simulate", "harmonic", {"simulation": {
        "force_model": "harmonic", "stiffness": 1e-6, "n_steps": 5000, "dt": 2e-4}}),
    ("simulate", "dipole", {"simulation": {
        "force_model": "dipole", "include_scattering": True, "boundary": "reflect",
        "n_steps": 5000}}),
    ("psd", "psd", {"analysis": {"trajectory": target}}),
    ("calibrate", "calibrate", {"simulation": dict(quartic, n_steps=300_000),
                                "analysis": {"burn_in": 20_000}}),
    ("sweep-na", "sweep", {"sweep": {
        "na_start": 0.44, "na_stop": 0.48, "na_step": 0.02, "n_reps": 3,
        "n_steps": 20_000, "dt": 1e-5, "target": target, "burn_in": 2000,
        "target_fc": [90.0, 1e6]}}),
    ("beam", "beam", {"beam": {"p_index": 2}, "grid": {"n_transverse": 21, "n_z": 21}}),
    ("absorb", "absorb", {}),
    ("forces-fit", "forces", {}),
]
for command, name, payload in runs:
    config = out / f"{name}.json"
    config.write_text(json.dumps(payload))
    code = cli.main([command, "--config", str(config), "--out", str(out / name)])
    assert code == 0, (command, name, code)
assert "# fc_interval=" in (out / "sweep" / "na_sweep.txt").read_text()


def sim_config(name):
    return cli._sim_config_from(cli.load_config(str(out / f"{name}.json")))


spectral.corner_frequency_of(sim_config("harmonic"), 3)
calibrate = dynamics.simulate(sim_config("calibrate")).positions
calibration.reconstruct_potential(calibrate, 293.0)
calibration.ks_gaussianity_test(calibrate[::20, 0], n_null=50)
""" + PRINT_SCIPY

KS_CALL = """
import numpy as np

from darkfocus import calibration

calibration.ks_gaussianity_test(np.random.default_rng(1).standard_normal(2000), n_null=50)
""" + PRINT_SCIPY


def scipy_modules(script, *args):
    """The scipy modules loaded once `script` has run in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", "import json, sys\n" + script, *args],
                            capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert scipy_modules("import darkfocus, darkfocus.cli\n" + PRINT_SCIPY) == []


def test_every_command_and_analysis_runs_without_scipy(tmp_path):
    assert scipy_modules(RUN_EVERY_PATH, str(tmp_path)) == []


def test_ks_test_loads_no_scipy():
    assert scipy_modules(KS_CALL) == []


def test_no_function_imports():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.joinpath("darkfocus").glob("*.py"))
             for function in ast.walk(ast.parse(path.read_text()))
             if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(function) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_one_least_squares_solve():
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.joinpath("darkfocus").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "lstsq"]
    assert len(calls) == 1, calls


def test_one_standard_normal_draw():
    def draws(tree):
        return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                and ast.unparse(node.func).split(".")[-1] == "standard_normal"]

    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.joinpath("darkfocus").glob("*.py"))}
    calls = [f"{name}:{node.lineno}" for name, tree in trees.items() for node in draws(tree)]
    (helper,) = [node for node in ast.walk(trees["dynamics.py"])
                 if isinstance(node, ast.FunctionDef) and node.name == "_standard_normals"]
    assert len(calls) == 1 and len(draws(helper)) == 1, calls


def test_one_numerical_error():
    assert darkfocus.NumericalError is spectral.NumericalError is _checks.NumericalError
    assert dynamics.NumericalError is _checks.NumericalError
    assert issubclass(darkfocus.NumericalError, ValueError)


def test_package_exports_are_its_modules_all():
    public = {name for name, value in vars(darkfocus).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    modules = (absorption, beam, calibration, dynamics, forces, spectral)
    assert public == {name for module in modules for name in module.__all__}


# EmpiricalPdf.centers: criterion 6 reads its model density at the bin centers
ACCEPTANCE_ORACLES = {"centers"}


def test_every_definition_is_used():
    # a function or class counts as used where a loaded name or attribute of
    # the package reads it or an __all__ lists it; a method or property counts
    # as used only where a loaded attribute reads it
    defined, names, attributes = [], set(), set()
    for path in sorted(SRC.joinpath("darkfocus").glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((node.name, id(node) in methods,
                                f"{path.name}:{node.lineno} {node.name}"))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif isinstance(node, ast.Assign) and "__all__" in map(ast.unparse, node.targets):
                names.update(entry.value for entry in node.value.elts)
    unused = [where for name, method, where in defined
              if name not in attributes and (method or name not in names)
              and name not in ACCEPTANCE_ORACLES
              and not (name.startswith("__") and name.endswith("__"))]
    assert unused == []

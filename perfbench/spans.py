"""Span tracer over the public functions of the darkfocus modules.

The tracer replaces each public function of `beam`, `forces`, `dynamics`,
`spectral`, `calibration` and `absorption` in every darkfocus namespace that
binds it, so calls made from inside the library (for example `simulate` as
looked up by `estimate_na` or `simulate_ensemble`) are seen too.  `cli.main`
is wrapped as one span per subcommand, named `cli.<subcommand>`.  Spans
(name, start, end, parent) stay in memory until `dump`; counts are taken from
return values and `warnings` records, never from inside the program.
"""

import importlib
import json
import time
import types
import warnings
from collections import defaultdict

LIBRARY_MODULES = ("beam", "forces", "dynamics", "spectral", "calibration", "absorption")
DT_WARNING = "exceeds the stability bound"

# per-layer metric -> unit; the traced run emits every one of these
PER_LAYER = {}


def _metric(name, unit):
    PER_LAYER[name] = unit


_metric("dynamics.simulate.calls", "count")
_metric("dynamics.simulate.busy_s", "s")
_metric("dynamics.lane_steps", "count")
_metric("dynamics.us_per_lane_step", "us")
for _kind in ("quartic", "quartic_reflect", "harmonic", "dipole"):
    _metric(f"dynamics.us_per_lane_step.{_kind}", "us")
_metric("dynamics.escapes", "count")
_metric("dynamics.dt_warnings", "count")
_metric("dynamics.save_trajectory.busy_s", "s")
_metric("dynamics.load_trajectory.busy_s", "s")
_metric("dynamics.io.rows_written", "count")
_metric("dynamics.io.rows_read", "count")
_metric("dynamics.io.us_per_row_written", "us")
_metric("dynamics.io.us_per_row_read", "us")
_metric("spectral.estimate_psd.busy_s", "s")
_metric("spectral.fit_lorentzian.busy_s", "s")
_metric("spectral.fit_yield", "ratio")
_metric("spectral.corner_frequency_of.self_s", "s")
_metric("calibration.estimate_na.busy_s", "s")
_metric("calibration.estimate_na.self_s", "s")
_metric("calibration.na_valid_ratio", "ratio")
_metric("calibration.reconstruct_potential.busy_s", "s")
_metric("calibration.reconstruct_potential.samples", "count")
for _fn in ("ks_gaussianity_test", "histogram_pdf", "kl_divergence"):
    _metric(f"calibration.{_fn}.busy_s", "s")
for _fn in ("beam.render_intensity_grid", "beam.bottle_geometry",
            "forces.quartic_coefficients", "forces.sample_force_grid",
            "forces.fit_polynomial_force", "absorption.absorption_ratio_sweep",
            "absorption.trap_comparison"):
    _metric(f"{_fn}.busy_s", "s")
CLI_SUBCOMMANDS = ("beam", "simulate", "psd", "calibrate", "sweep-na", "absorb", "forces-fit")
for _sub in CLI_SUBCOMMANDS:
    _metric(f"cli.{_sub}.busy_s", "s")
    _metric(f"cli.{_sub}.self_s", "s")
_metric("trace.overhead_s", "s")
_metric("trace.unattributed_s", "s")


def _lane_kind(cfg):
    return cfg.force_model + ("_reflect" if cfg.boundary == "reflect" else "")


class Tracer:
    """Records spans and counts while installed; `uninstall` restores the program."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self._stack = []
        self._patched = []  # (namespace, attribute, original)
        self._warning_registry = {}

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, name, fn, on_return=None):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name(args) if callable(name) else name, 0.0, 0.0, parent]
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if on_return is not None:
                on_return(span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _simulate(self, fn):
        tracer = self
        inner = self._wrap("dynamics.simulate", fn, self._count_simulate)

        def simulate(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = inner(*args, **kwargs)
            for w in caught:
                if DT_WARNING in str(w.message):
                    tracer.counts["dt_warnings"] += 1
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno,
                                       registry=tracer._warning_registry)
            return result

        simulate.__wrapped__ = fn
        return simulate

    def _count_simulate(self, span, args, kwargs, traj):
        steps = len(traj) - 1
        kind = _lane_kind(traj.config)
        self.counts["lane_steps"] += steps
        self.counts[f"lane_steps.{kind}"] += steps
        self.counts[f"simulate_s.{kind}"] += span[2] - span[1]
        self.counts["escapes"] += traj.escape is not None

    def _count(self, key, size):
        def hook(span, args, kwargs, result):
            self.counts[key] += size(args, result)
        return hook

    def _fit_hook(self, fn):
        tracer = self
        inner = self._wrap("spectral.fit_lorentzian", fn)

        def fit_lorentzian(*args, **kwargs):
            tracer.counts["fits_attempted"] += 1
            result = inner(*args, **kwargs)
            tracer.counts["fits_succeeded"] += 1
            return result

        fit_lorentzian.__wrapped__ = fn
        return fit_lorentzian

    def _na_hook(self, span, args, kwargs, result):
        self.counts["na_points"] += len(result.valid)
        self.counts["na_valid"] += int(result.valid.sum())

    def install(self):
        import darkfocus
        from darkfocus import cli

        modules = {m: importlib.import_module(f"darkfocus.{m}") for m in LIBRARY_MODULES}
        namespaces = [darkfocus, cli, *modules.values()]
        replacements = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                if name == "dynamics.simulate":
                    wrapped = self._simulate(obj)
                elif name == "spectral.fit_lorentzian":
                    wrapped = self._fit_hook(obj)
                elif name == "dynamics.save_trajectory":
                    wrapped = self._wrap(name, obj, self._count(
                        "rows_written", lambda a, r: len(a[0])))
                elif name == "dynamics.load_trajectory":
                    wrapped = self._wrap(name, obj, self._count(
                        "rows_read", lambda a, r: len(r)))
                elif name == "calibration.reconstruct_potential":
                    wrapped = self._wrap(name, obj, self._count(
                        "reconstruct_samples", lambda a, r: r.n_samples))
                elif name == "calibration.estimate_na":
                    wrapped = self._wrap(name, obj, self._na_hook)
                else:
                    wrapped = self._wrap(name, obj)
                replacements[id(obj)] = wrapped
        replacements[id(cli.main)] = self._wrap(
            lambda args: f"cli.{args[0][0]}", cli.main)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                wrapped = replacements.get(id(obj))
                if wrapped is not None:
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, wrapped)

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    # -- aggregation ------------------------------------------------------
    def _ancestors(self, i):
        parent = self.spans[i][3]
        while parent >= 0:
            yield parent
            parent = self.spans[parent][3]

    def busy_s(self, name):
        """Total time inside `name`, not counting re-entrant nested calls twice."""
        total = 0.0
        for i, (n, start, end, _) in enumerate(self.spans):
            if n == name and all(self.spans[a][0] != name for a in self._ancestors(i)):
                total += end - start
        return total

    def self_s(self, name, children=None):
        """Time in `name` spans less their direct children, or less the
        outermost descendants whose names are in `children`."""
        covered = 0.0
        for i, (n, start, end, _) in enumerate(self.spans):
            anc = list(self._ancestors(i))
            if not anc:
                continue
            if children is None:
                if self.spans[anc[0]][0] == name:
                    covered += end - start
            elif n in children and not any(self.spans[a][0] in children for a in anc):
                if any(self.spans[a][0] == name for a in anc):
                    covered += end - start
        return self.busy_s(name) - covered

    def root_time(self, t0, t1):
        """Time covered by outermost spans that started in [t0, t1]."""
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0 and t0 <= start <= t1)

    def metrics(self, overhead_s, unattributed_s):
        c = self.counts

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        m = {
            "dynamics.simulate.calls": float(sum(
                1 for s in self.spans if s[0] == "dynamics.simulate")),
            "dynamics.simulate.busy_s": self.busy_s("dynamics.simulate"),
            "dynamics.lane_steps": c["lane_steps"],
            "dynamics.escapes": c["escapes"],
            "dynamics.dt_warnings": c["dt_warnings"],
            "dynamics.io.rows_written": c["rows_written"],
            "dynamics.io.rows_read": c["rows_read"],
            "spectral.fit_yield": per(c["fits_succeeded"], c["fits_attempted"]),
            "spectral.corner_frequency_of.self_s": self.self_s("spectral.corner_frequency_of"),
            "calibration.estimate_na.self_s": self.self_s(
                "calibration.estimate_na",
                {"dynamics.simulate", "spectral.estimate_psd", "spectral.fit_lorentzian"}),
            "calibration.na_valid_ratio": per(c["na_valid"], c["na_points"]),
            "calibration.reconstruct_potential.samples": c["reconstruct_samples"],
            "trace.overhead_s": overhead_s,
            "trace.unattributed_s": unattributed_s,
        }
        m["dynamics.us_per_lane_step"] = per(
            m["dynamics.simulate.busy_s"], c["lane_steps"], 1e6)
        for kind in ("quartic", "quartic_reflect", "harmonic", "dipole"):
            m[f"dynamics.us_per_lane_step.{kind}"] = per(
                c[f"simulate_s.{kind}"], c[f"lane_steps.{kind}"], 1e6)
        m["dynamics.io.us_per_row_written"] = per(
            self.busy_s("dynamics.save_trajectory"), c["rows_written"], 1e6)
        m["dynamics.io.us_per_row_read"] = per(
            self.busy_s("dynamics.load_trajectory"), c["rows_read"], 1e6)
        for sub in CLI_SUBCOMMANDS:
            m[f"cli.{sub}.self_s"] = self.self_s(f"cli.{sub}")
        for name in PER_LAYER:
            if name.endswith(".busy_s") and name not in m:
                m[name] = self.busy_s(name[: -len(".busy_s")])
        return {name: {"value": float(m[name]), "unit": PER_LAYER[name]}
                for name in PER_LAYER}

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)
            fh.write("\n")

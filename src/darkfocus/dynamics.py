"""Overdamped Brownian dynamics of the trapped sphere.

Euler-Maruyama integration of gamma dx = F(x) dt + sqrt(2 kB T gamma) dW per
axis.  The quartic force model is only a local expansion: off axis at large
|z| its potential is unbounded below, so trajectories can leave the trap.
Leaving the configured domain is a physics signal, not a numerical failure;
the simulation halts and reports it.

The force models are the library's own: the quartic closure of
darkfocus.forces, and for the dipole model the bottle-field kernel of
darkfocus.beam evaluated on math's functions, so a run steps through the
same field that dft_intensity and dipole_gradient_force report.

_noise_chunks is the one place noise is drawn and scaled: a run's noise is
default_rng(seed)'s standard normals in draws of _NOISE_CHUNK steps, times
sqrt(2 kB T dt / gamma).  A run hands each chunk to a stepper: the
compiled one of integrator.c (built on first use by darkfocus._compiled),
or the Python reference loop when no C compiler works.
_force_model, the only code that knows a force model, resolves a run's
force once: integrator.c's model code with the numbers it reads, the
reference loop's plain-float closure built from those same numbers, and
the run's k_max and default domain bound, derived from them too.  The
compiled stepper repeats the reference's operations in the same order,
so both give the same bits.
A run is _start, which warns and allocates on the calling thread, then
_finish, which draws, steps and may run on any thread; simulate is one
run.  _map_runs is the one path of every batch of runs: it starts each run
on the calling thread in batch order when asked for, and finishes and
reduces it on up to one thread per usable core (darkfocus._parallel),
where the noise draws and the compiled stepper release the interpreter
lock.  The runs of simulate_ensemble and corner_frequency_of draw their
own noise from seeds spawned at the call; estimate_na draws each
repetition's noise once and hands it to every NA's run of that seed, since
its configs share the particle and dt.  The calibration sweeps keep no
positions.

Trajectory files are t x y z text rows under a '#' header.  save_trajectory
and load_trajectory write and read the header themselves and the rows
through darkfocus._text, the one writer and reader of every float table.
"""

import ctypes
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _checks, _compiled, _parallel
from ._roots import bracketed_root
from ._text import _ROWS_PER_BLOCK, read_table, write_blocks
from .beam import BeamParams, _bottle_constants, _bottle_field
from .forces import (
    BOLTZMANN,
    ParticleMedium,
    QuarticCoefficients,
    _potential_prefactor,
    _quartic_force,
    _scattering_prefactor,
    _warn,
    quartic_coefficients,
)

__all__ = [
    "SimConfig",
    "Trajectory",
    "EscapeReport",
    "SimulationUnstableError",
    "simulate",
    "simulate_ensemble",
    "spawn_seeds",
    "equilibrium_pdf",
    "save_trajectory",
    "load_trajectory",
]

_NOISE_CHUNK = 65536


class SimulationUnstableError(RuntimeError):
    """Single-step displacement exceeded the domain scale: dt is too large."""


@dataclass(frozen=True)
class EscapeReport:
    """Where and when a trajectory left the simulation domain."""

    position: tuple
    time: float
    step: int


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce one trajectory.

    force_model selects "quartic" (requires coefficients, or beam+particle
    from which they are derived), "dipole" (requires beam), or "harmonic"
    (requires stiffness: a scalar or per-axis triple, zero meaning free
    diffusion).  coefficients, stiffness and include_scattering are rejected
    under any other model, which would ignore them.  domain_bound None picks
    the model default: 3 max(w0, z_R) for the dipole field, 1.5x the
    distance to the escape saddle for the quartic model, twelve thermal
    standard deviations for the harmonic one; +inf means no wall.
    """

    particle: ParticleMedium
    dt: float
    n_steps: int
    force_model: str = "quartic"
    coefficients: QuarticCoefficients | None = None
    beam: BeamParams | None = None
    stiffness: float | tuple | None = None
    initial_position: tuple = (0.0, 0.0, 0.0)
    seed: int = 0
    domain_bound: float | None = None
    boundary: str = "absorb"
    include_scattering: bool = False

    def __post_init__(self):
        if self.force_model not in ("quartic", "dipole", "harmonic"):
            raise ValueError(f"unknown force model {self.force_model!r}")
        if self.boundary not in ("absorb", "reflect"):
            raise ValueError(f"boundary must be 'absorb' or 'reflect', got {self.boundary!r}")
        _checks.real("dt", self.dt, above=0.0)
        _checks.count("n_steps", self.n_steps, 1)
        _checks.count("seed", self.seed, 0)
        if self.force_model == "dipole" and self.beam is None:
            raise ValueError("dipole force model requires beam parameters")
        if self.force_model == "quartic" and self.coefficients is None and self.beam is None:
            raise ValueError("quartic force model requires coefficients or beam")
        if self.force_model == "harmonic":
            if self.stiffness is None:
                raise ValueError("harmonic force model requires a stiffness")
            self.stiffness_triple()  # checks each stiffness
        if len(self.initial_position) != 3:
            raise ValueError("initial_position must be three finite coordinates")
        for v in self.initial_position:
            _checks.real("initial_position", v)
        # +inf: no wall
        if self.domain_bound is not None and self.domain_bound != math.inf:
            _checks.real("domain_bound", self.domain_bound, above=0.0)
        for name, model, given in (
                ("coefficients", "quartic", self.coefficients is not None),
                ("stiffness", "harmonic", self.stiffness is not None),
                ("include_scattering", "dipole", self.include_scattering)):
            if given and self.force_model != model:
                raise ValueError(f"{name} applies only to the {model} force model")

    def stiffness_triple(self) -> tuple:
        if self.stiffness is None:
            return (0.0, 0.0, 0.0)
        ks = (self.stiffness,) * 3 if np.ndim(self.stiffness) == 0 else tuple(self.stiffness)
        if len(ks) != 3:
            raise ValueError("stiffness must be a scalar or a triple")
        for k in ks:
            _checks.real("stiffness", k, at_least=0.0)
        return tuple(float(k) for k in ks)

    def with_seed(self, seed: int) -> "SimConfig":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled positions (N, 3) with timestep and provenance."""

    dt: float
    positions: np.ndarray
    seed: int | None = None
    provenance: str = "simulated"
    escape: EscapeReport | None = None
    config: SimConfig | None = None

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions must have shape (N, 3)")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        _checks.real("dt", self.dt, above=0.0)
        object.__setattr__(self, "positions", pos)

    def __len__(self):
        return len(self.positions)

    @property
    def times(self):
        return self.dt * np.arange(len(self.positions))

    def axis(self, name):
        if name not in ("x", "y", "z"):
            raise ValueError(f"axis must be 'x', 'y' or 'z', got {name!r}")
        return self.positions[:, "xyz".index(name)]


def _noise_chunks(cfg: SimConfig):
    """The noise of cfg's run: default_rng(cfg.seed)'s standard normals drawn
    _NOISE_CHUNK rows of three at a time (the last draw shorter, n_steps rows
    in all), each draw scaled by sqrt(2 kB T dt / gamma) as it is yielded.
    Configs of the same seed, particle, dt and n_steps get the same bits."""
    kbt = BOLTZMANN * cfg.particle.temperature
    noise_scale = math.sqrt(2.0 * kbt * cfg.dt / cfg.particle.drag)
    rng = np.random.default_rng(cfg.seed)
    for done in range(0, cfg.n_steps, _NOISE_CHUNK):
        noise = rng.standard_normal((min(_NOISE_CHUNK, cfg.n_steps - done), 3))
        noise *= noise_scale
        yield noise


# outcome of one chunk, and force model codes, as integrator.c names them
_RAN, _ESCAPED, _UNSTABLE = 0, 1, 2
_HARMONIC, _QUARTIC, _DIPOLE = 0, 1, 2


def _force_model(cfg: SimConfig):
    """(model, coef, force, k_max, bound) of one run: integrator.c's model
    code, the numbers its force reads, the reference loop's plain-float
    force(x, y, z) -> (F_x, F_y, F_z) built from those same numbers, the
    largest local stiffness the run is expected to probe (N/m), and
    cfg.domain_bound, or the model's default bound when that is None."""
    kbt = BOLTZMANN * cfg.particle.temperature
    bound = cfg.domain_bound
    if cfg.force_model == "harmonic":
        k_x, k_y, k_z = coef = cfg.stiffness_triple()

        def force(x, y, z):
            return -k_x * x, -k_y * y, -k_z * z

        if bound is None:
            ks = [k for k in coef if k > 0]
            bound = 12.0 * math.sqrt(kbt / min(ks)) if ks else math.inf
        return _HARMONIC, coef, force, max(*coef, 0.0), bound
    if cfg.force_model == "quartic":
        qc = cfg.coefficients or quartic_coefficients(cfg.beam, cfg.particle)
        coef = (qc.k_z, qc.k_rho_z, qc.k_rho)
        # the stiffness at the thermal lengths sqrt(4 kB T / k_rho) and kB T / k_z
        if not (qc.k_rho > 0 and qc.k_z):
            name = "k_z" if qc.k_rho > 0 else "k_rho"
            raise ValueError("the stability bound 0.1 gamma/k_max needs quartic k_rho > 0 "
                             f"and k_z != 0, got {name}={getattr(qc, name)!r}")
        rho_th2 = math.sqrt(4.0 * kbt / qc.k_rho)
        z_th2 = kbt / qc.k_z
        k_max = max(qc.k_z, 3.0 * qc.k_rho * rho_th2, 2.0 * qc.k_rho_z * (rho_th2 + z_th2))
        if bound is None:
            # 1.5x the distance to the escape saddle
            s2 = 0.0
            if qc.k_rho_z:
                square = 4.0 * qc.k_rho_z**2
                if not square:
                    from .spectral import NumericalError  # spectral imports this module

                    raise NumericalError(
                        f"the default domain bound divides by 4 k_rho_z**2, which underflows "
                        f"to 0 at quartic k_rho_z={qc.k_rho_z!r}; set domain_bound")
                s2 = qc.k_z / (2.0 * qc.k_rho_z) + qc.k_rho * qc.k_z / square
            if not s2 > 0:
                name = "k_z" if qc.k_z < 0 else "k_rho_z"
                raise ValueError("the default domain bound needs an escape saddle, which quartic "
                                 f"{name}={getattr(qc, name)!r} does not give; set domain_bound")
            bound = 1.5 * math.sqrt(s2)
        return _QUARTIC, coef, _quartic_force(*coef), k_max, bound

    pref = _potential_prefactor(cfg.beam, cfg.particle)
    # an index-matched particle has no dipole and no scattering force
    scat = (_scattering_prefactor(cfg.beam, cfg.particle) / pref
            if cfg.include_scattering and pref else 0.0)
    coef = (*_bottle_constants(cfg.beam), math.pi, pref, scat)
    field = _bottle_field(cfg.beam, pref, (math.exp, math.atan, math.cos, math.sin))

    def force(x, y, z):
        intensity, radial, fz = field(x * x + y * y, z)
        if scat:
            fz += scat * intensity
        return radial * x, radial * y, fz

    reach = 3.0 * max(cfg.beam.waist, cfg.beam.rayleigh_range)
    k_max = _field_k_max(_bottle_field(cfg.beam, pref), field, kbt, reach)
    return _DIPOLE, coef, force, k_max, reach if bound is None else bound


def _field_k_max(grid, field, kbt, reach):
    """Largest eigenvalue of -(J + J^T)/2, J the central-difference Jacobian
    of the gradient force (the scattering force is not conservative), at the
    focus and one thermal length off it along rho, z and both: where the
    potential -field(rho^2, z)[0] first rises kB T above the focus's on a
    2001-point grid (on arrays) out to reach, then by bracketed_root."""
    s = np.linspace(0.0, reach, 2001)
    top = field(0.0, 0.0)[0] - kbt  # -I has risen kB T where top - I = 0
    lengths = []
    for a, b in ((1.0, 0.0), (0.0, 1.0)):  # along rho, along z
        with np.errstate(over="ignore", invalid="ignore"):  # L_p^2 of p = 100 overflows
            above = np.flatnonzero(top - grid(a * s * s, b * s)[0] >= 0)
        lengths.append(bracketed_root(lambda t: top - field(a * t * t, b * t)[0],
                                      *s[above[0] - 1:above[0] + 1].tolist())
                       if len(above) else 0.0)  # no new point
    h = 1e-6 * reach
    steps = h * np.vstack((np.eye(3), -np.eye(3)))
    points = [(r, 0.0, w) for r in (0.0, lengths[0]) for w in (0.0, lengths[1])]
    x, y, z = np.moveaxis(np.array(points)[:, None] + steps, -1, 0)
    _, radial, fz = grid(x * x + y * y, z)
    f = np.stack((radial * x, radial * y, fz), axis=-1)
    jac = (f[:, :3] - f[:, 3:]) / (2.0 * h)  # jac[n, j, i] = dF_i/dx_j at points[n]
    return float(np.linalg.eigvalsh(-0.5 * (jac + jac.transpose(0, 2, 1)))[:, -1].max())


def _python_stepper(force, bound, mob, reflect):
    """The reference chunk stepper: step(noise, out) -> (steps taken, outcome).

    out holds len(noise) + 1 positions; row 0 is the current one and step k
    writes row k.  A run stops at an escape, whose position is in row k, or
    at an unstable step k, which writes nothing.
    """
    bound2 = bound * bound

    def step(noise, out):
        x, y, z = out[0].tolist()
        k = 0
        # plain floats keep the loop's arithmetic off numpy scalars
        for nx, ny, nz in noise.tolist():
            fx, fy, fz = force(x, y, z)
            dx = fx * mob + nx
            dy = fy * mob + ny
            dz = fz * mob + nz
            if dx * dx + dy * dy + dz * dz > bound2:
                return k + 1, _UNSTABLE
            x += dx
            y += dy
            z += dz
            k += 1
            r2 = x * x + y * y + z * z
            if r2 > bound2:
                if not reflect:
                    out[k] = (x, y, z)
                    return k, _ESCAPED
                # radial fold across the spherical wall
                f = (2.0 * bound - math.sqrt(r2)) / math.sqrt(r2)
                x *= f
                y *= f
                z *= f
            out[k] = (x, y, z)
        return k, _RAN

    return step


def _compiled_stepper(kernel, model, coef, bound, mob, reflect):
    """integrator.c's df_step_chunk behind the reference stepper's signature."""
    coef = np.array(coef, dtype=float)
    status = ctypes.c_int()

    def step(noise, out):
        if out.shape != (len(noise) + 1, 3) or noise.shape[1:] != (3,):
            raise ValueError("out must hold one more row of three than noise")
        k = kernel(model, coef, noise, len(noise), out, bound, mob, reflect,
                   ctypes.byref(status))
        return k, status.value

    return step


def simulate(cfg: SimConfig) -> Trajectory:
    """Integrate one trajectory; deterministic for a given config and seed.

    With boundary="absorb" (default) a particle leaving the domain bound
    truncates the trajectory, which then carries an EscapeReport.  With
    boundary="reflect" the step is folded back radially across the bound;
    this emulates the bright shell that encloses the dark focus in the full
    beam, and makes the stationary density the Boltzmann density of the
    force model restricted to the domain.  Use it when the local quartic
    expansion alone would not confine the particle.
    """
    return _finish(*_start(cfg))


def _start(cfg: SimConfig, noise=None):
    """The calling thread's part of one run: the force model, a warning when
    dt exceeds the stability bound 0.1 gamma/k_max, the stepper and the run's
    positions array, allocated here so that glibc's main arena, not a worker
    thread's, recycles it.  noise is None, or list(_noise_chunks(c)) of a
    config c with cfg's particle, dt and n_steps, which the run then steps
    through.  Returns the arguments of _finish, which may run on any thread."""
    model, coef, force, k_max, bound = _force_model(cfg)
    gamma = cfg.particle.drag
    if k_max > 0 and cfg.dt > 0.1 * gamma / k_max:
        _warn(f"dt={cfg.dt:g} exceeds the stability bound 0.1 gamma/k_max="
              f"{0.1 * gamma / k_max:g}; results may be inaccurate")
    mob = cfg.dt / gamma
    reflect = cfg.boundary == "reflect"
    library = _compiled.load()
    if library is None:
        step = _python_stepper(force, bound, mob, reflect)
    else:
        step = _compiled_stepper(library.df_step_chunk, model, coef, bound, mob, reflect)

    out = np.empty((cfg.n_steps + 1, 3))
    out[0] = [float(v) for v in cfg.initial_position]
    return cfg, noise, step, bound, out


def _finish(cfg, noise, step, bound, out) -> Trajectory:
    """The rest of a run _start began: its noise drawn from cfg.seed unless
    given, stepped chunk by chunk into out, and the Trajectory.  It calls no
    public function and raises no warning, so it may run on a worker thread."""
    if noise is None:
        noise = _noise_chunks(cfg)
    done = 0
    outcome = _RAN
    for chunk in noise:
        k, outcome = step(chunk, out[done:done + len(chunk) + 1])
        if outcome == _UNSTABLE:
            raise SimulationUnstableError(
                f"step displacement exceeded the domain scale {bound:g} m "
                f"at step {done + k}; reduce dt"
            )
        done += k
        if outcome == _ESCAPED:
            break

    escape = None
    if outcome == _ESCAPED:
        escape = EscapeReport(position=tuple(out[done].tolist()), time=done * cfg.dt,
                              step=done)
    return Trajectory(
        dt=cfg.dt, positions=out[: done + 1], seed=cfg.seed, provenance="simulated",
        escape=escape, config=cfg,
    )


def spawn_seeds(seed: int, n: int) -> list:
    """n per-run seeds spawned deterministically from seed."""
    _checks.count("the number of runs", n, 0)
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _map_runs(runs, reduce=lambda traj: traj):
    """reduce(run) of each run of runs, (cfg, noise) pairs with noise None
    to draw it from cfg.seed, in run order.  Each run is started on the
    calling thread as it is asked for, and finished and reduced on
    darkfocus._parallel.ordered_map, so at most one run per usable core is
    in flight."""
    started = (_start(cfg, noise) for cfg, noise in runs)
    return _parallel.ordered_map(lambda run: reduce(_finish(*run)), started)


def simulate_ensemble(cfg: SimConfig, n_runs: int):
    """Independent repetitions with per-run seeds spawned from cfg.seed at the
    call: an iterator that simulates each run when asked for, on up to one
    thread per usable core, and keeps none it has yielded (take list() of it
    to use the runs twice).  Each run is simulate(cfg.with_seed(s)) to the
    bit, and its warnings name the line that asks for it."""
    return _map_runs((cfg.with_seed(s), None) for s in spawn_seeds(cfg.seed, n_runs))


def pooled_positions(trajectories, burn_in: int = 0):
    """Concatenate the samples of any iterable of runs after the first burn_in
    of each; a burn_in that is not an integer >= 0 raises ValueError."""
    _checks.count("burn_in", burn_in, 0)
    parts = [t.positions[burn_in:] for t in trajectories if len(t) > burn_in]
    if not parts:
        raise ValueError("no samples retained: all runs escaped before burn_in")
    return np.concatenate(parts, axis=0)


def equilibrium_pdf(potential_fn, temperature, axes):
    """Boltzmann density exp(-V/kB T) normalized on a rectangular grid.

    axes is a sequence of strictly increasing 1-D coordinate arrays; the
    potential is evaluated on their meshgrid.  Densities integrate to one
    over the grid (midpoint rule).  A potential whose minimum sits on the
    grid boundary is rejected as non-normalizable.
    """
    _checks.real("temperature", temperature, above=0.0)
    axes = [np.asarray(a, dtype=float) for a in axes]
    for a in axes:
        if a.ndim != 1 or len(a) < 2 or np.any(np.diff(a) <= 0):
            raise ValueError("each axis must be a strictly increasing 1-D array")
    mesh = np.meshgrid(*axes, indexing="ij")
    v = np.asarray(potential_fn(*mesh), dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("potential must be finite on the grid")

    vmin_idx = np.unravel_index(np.argmin(v), v.shape)
    on_edge = any(i == 0 or i == s - 1 for i, s in zip(vmin_idx, v.shape))
    if on_edge and v.min() < v.max():
        raise ValueError(
            "potential minimum lies on the grid boundary: density is not "
            "normalizable on this domain"
        )

    kbt = BOLTZMANN * temperature
    w = np.exp(-(v - v.min()) / kbt)
    cell = 1.0
    for a in axes:
        cell = cell * float(np.mean(np.diff(a)))
    total = w.sum() * cell
    return w / total


def marginal_density(density, axes, keep_axis: int):
    """Integrate an N-D grid density down to one axis (midpoint rule)."""
    axes = [np.asarray(a, dtype=float) for a in axes]
    out = np.asarray(density, dtype=float)
    for i in reversed(range(out.ndim)):
        if i == keep_axis:
            continue
        out = out.sum(axis=i) * float(np.mean(np.diff(axes[i])))
    return out


def _timed_rows(positions, start, dt):
    """The t x y z rows of positions from row start on: t = k * dt for row k."""
    # k * dt on Python floats overflows to inf, and 0 * inf gives nan, silently
    with np.errstate(over="ignore", invalid="ignore"):
        times = np.arange(start, start + len(positions)) * dt
    return np.column_stack((times, positions))


def save_trajectory(traj: Trajectory, path):
    """Write t x y z rows with every float in repr form, so load_trajectory
    reads back the same bits; the time column is k * dt.  The rows are built
    in blocks of _ROWS_PER_BLOCK as darkfocus._text.write_blocks asks for
    them, to bound the memory they take."""
    # a numpy scalar's repr is not a number
    dt = float(traj.dt)
    with open(path, "w") as fh:
        fh.write(f"# dt={dt!r}\n")
        if traj.seed is not None:
            fh.write(f"# seed={traj.seed}\n")
        fh.write(f"# provenance={traj.provenance}\n")
        if traj.escape is not None:
            e = traj.escape
            fh.write(f"# escape_step={e.step} escape_time={float(e.time)!r}\n")
        fh.write("t x y z\n")
        blocks = (_timed_rows(traj.positions[start:start + _ROWS_PER_BLOCK], start, dt)
                  for start in range(0, len(traj), _ROWS_PER_BLOCK))
        write_blocks(fh, blocks)


def load_trajectory(path, meters_per_pixel: float | None = None) -> Trajectory:
    """Read a trajectory file; honors a '# meters_per_pixel=' calibration comment.

    An explicit meters_per_pixel argument overrides the file header; either
    must be finite and positive.  The time column infers dt only without a
    '# dt=' comment; an '# escape_step= escape_time=' comment becomes the
    EscapeReport, at the last row.  darkfocus._text.read_table reads the file.
    """
    header, data = read_table(path)
    # the last value of each key= token of the comment lines
    meta = dict(token.split("=", 1) for line in header if line.startswith("#")
                for token in line.lstrip("#").split() if "=" in token)
    if data.shape[1] < 4:
        raise ValueError(f"expected columns t x y z in {path}")
    if "dt" in meta:
        dt = float(meta["dt"])
    else:
        steps = np.diff(data[:, 0])
        if len(steps) == 0 or np.ptp(steps) > 1e-9 * abs(steps[0]):
            raise ValueError("cannot infer a uniform dt from the time column")
        dt = float(steps[0])
    if meters_per_pixel is None:
        meters_per_pixel = float(meta.get("meters_per_pixel", 1.0))
    _checks.real("meters_per_pixel", meters_per_pixel, above=0.0)
    positions = data[:, 1:4] * meters_per_pixel
    escape = None
    if "escape_step" in meta and "escape_time" in meta:
        escape = EscapeReport(position=tuple(positions[-1].tolist()),
                              time=float(meta["escape_time"]), step=int(meta["escape_step"]))
    return Trajectory(dt=dt, positions=positions,
                      seed=int(meta["seed"]) if "seed" in meta else None,
                      provenance=meta.get("provenance", "ingested"), escape=escape)

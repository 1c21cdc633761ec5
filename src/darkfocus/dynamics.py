"""Overdamped Brownian dynamics of the trapped sphere.

Euler-Maruyama integration of gamma dx = F(x) dt + sqrt(2 kB T gamma) dW per
axis.  The quartic force model is only a local expansion: off axis at large
|z| its potential is unbounded below, so trajectories can leave the trap.
Leaving the configured domain is a physics signal, not a numerical failure;
the simulation halts and reports it.
"""

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.constants import k as BOLTZMANN

from .beam import BeamParams
from .forces import (
    ParticleMedium,
    QuarticCoefficients,
    quartic_coefficients,
)

__all__ = [
    "SimConfig",
    "Trajectory",
    "EscapeReport",
    "SimulationUnstableError",
    "simulate",
    "simulate_ensemble",
    "simulate_lanes",
    "spawn_seeds",
    "equilibrium_pdf",
    "save_trajectory",
    "load_trajectory",
]

_NOISE_CHUNK = 65536
# simulate_lanes steps ensembles of at least this many lanes in lockstep; below
# it the fixed cost of one numpy call per operation and step outweighs the
# saving over the scalar loop
LOCKSTEP_MIN_LANES = 16
# steps per noise draw and per position buffer in the lockstep loop
_LANE_BLOCK = 1024


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
    diffusion).  domain_bound None picks the model default: 3 max(w0, z_R)
    for the dipole field, 1.5x the distance to the escape saddle for the
    quartic model, twelve thermal standard deviations for the harmonic one.
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
        if not (self.dt > 0):
            raise ValueError("dt must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.force_model == "dipole" and self.beam is None:
            raise ValueError("dipole force model requires beam parameters")
        if self.force_model == "quartic" and self.coefficients is None and self.beam is None:
            raise ValueError("quartic force model requires coefficients or beam")
        if self.force_model == "harmonic":
            if self.stiffness is None:
                raise ValueError("harmonic force model requires a stiffness")
            if any(k < 0 or not math.isfinite(k) for k in self.stiffness_triple()):
                raise ValueError("stiffness values must be finite and nonnegative")
        if len(self.initial_position) != 3 or not all(
            math.isfinite(v) for v in self.initial_position
        ):
            raise ValueError("initial_position must be three finite coordinates")
        if self.domain_bound is not None and not (self.domain_bound > 0):
            raise ValueError("domain_bound must be positive")
        if self.include_scattering and self.beam is None:
            raise ValueError("scattering force requires beam parameters")

    def stiffness_triple(self) -> tuple:
        if self.stiffness is None:
            return (0.0, 0.0, 0.0)
        if np.ndim(self.stiffness) == 0:
            return (float(self.stiffness),) * 3
        if len(self.stiffness) != 3:
            raise ValueError("stiffness must be a scalar or a triple")
        return tuple(float(k) for k in self.stiffness)

    @property
    def duration(self) -> float:
        return self.n_steps * self.dt

    def effective_coefficients(self) -> QuarticCoefficients:
        if self.coefficients is not None:
            return self.coefficients
        return quartic_coefficients(self.beam, self.particle)

    def default_domain_bound(self) -> float:
        if self.force_model == "dipole":
            return 3.0 * max(self.beam.waist, self.beam.rayleigh_range)
        if self.force_model == "harmonic":
            ks = [k for k in self.stiffness_triple() if k > 0]
            if not ks:
                return math.inf
            kbt = BOLTZMANN * self.particle.temperature
            return 12.0 * math.sqrt(kbt / min(ks))
        qc = self.effective_coefficients()
        rho_s2 = qc.k_z / (2.0 * qc.k_rho_z)
        z_s2 = qc.k_rho * qc.k_z / (4.0 * qc.k_rho_z**2)
        return 1.5 * math.sqrt(rho_s2 + z_s2)

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
        if not (self.dt > 0):
            raise ValueError("dt must be positive")
        object.__setattr__(self, "positions", pos)

    def __len__(self):
        return len(self.positions)

    @property
    def times(self):
        return self.dt * np.arange(len(self.positions))

    def axis(self, name):
        return self.positions[:, "xyz".index(name)]


def _quartic_force(k_z, k_rz, k_r):
    """Quartic force with the integrator's operation order; the coefficients
    and coordinates are floats, or (R,) arrays for lanes stepped together."""

    def force(x, y, z):
        rho2 = x * x + y * y
        radial = 2.0 * k_rz * z * z - k_r * rho2
        return radial * x, radial * y, -k_z * z + 2.0 * k_rz * rho2 * z

    return force


def _dipole_scalar_force(beam: BeamParams, pm: ParticleMedium, include_scattering):
    """Closed-form dipole force as a plain-float function (hot loop path)."""
    from scipy.constants import c as c_light
    from .beam import _phase_components

    p = beam.p_index
    w0, zr = beam.waist, beam.rayleigh_range
    p_tot = beam.p_total
    ct, st = _phase_components(beam.theta_rel)
    pref = (
        2.0 * math.pi * pm.n_medium * pm.radius**3
        * pm.polarizability_factor / c_light
    )
    scat_pref = (
        128.0 * math.pi**5 * pm.radius**6 / (3.0 * c_light * beam.lambda0**4)
        * pm.polarizability_factor**2 * pm.n_medium**5
    ) if include_scattering else 0.0

    # Laguerre polynomials as plain coefficient tuples for Horner evaluation.
    from scipy.special import genlaguerre

    lag_c = tuple(np.asarray(genlaguerre(p, 0).coef, dtype=float))
    dlag_c = tuple(-np.asarray(genlaguerre(p - 1, 1).coef, dtype=float)) if p >= 1 else (0.0,)

    def horner(coeffs, u):
        acc = 0.0
        for cc in coeffs:
            acc = acc * u + cc
        return acc

    def force(x, y, z):
        rho2 = x * x + y * y
        t = z / zr
        one_t2 = 1.0 + t * t
        w2 = w0 * w0 * one_t2
        u = 2.0 * rho2 / w2
        lag = horner(lag_c, u)
        dlag = horner(dlag_c, u)
        tau = math.atan(t)
        c2p, s2p = math.cos(2 * p * tau), math.sin(2 * p * tau)
        cos_rel = ct * c2p + st * s2p
        sin_rel = st * c2p - ct * s2p
        bracket = 1.0 + lag * lag + 2.0 * lag * cos_rel
        ce = p_tot / (math.pi * w2) * math.exp(-u)
        shape = 2.0 * dlag * (lag + cos_rel) - bracket
        radial = pref * ce * (4.0 / w2) * shape
        g = 2.0 * t / (zr * one_t2)
        dtau = 1.0 / (zr * one_t2)
        fz = pref * ce * (-g * bracket - u * g * shape + 4.0 * p * lag * sin_rel * dtau)
        if scat_pref:
            fz += scat_pref * ce * bracket
        return radial * x, radial * y, fz

    return force


def _harmonic_force(k_x, k_y, k_z):
    def force(x, y, z):
        return -k_x * x, -k_y * y, -k_z * z

    return force


def stiffness_scale(cfg: SimConfig) -> float:
    """Largest local stiffness the trajectory is expected to probe (N/m)."""
    if cfg.force_model == "harmonic":
        return max(*cfg.stiffness_triple(), 0.0)
    qc = cfg.effective_coefficients()
    kbt = BOLTZMANN * cfg.particle.temperature
    rho_th2 = math.sqrt(4.0 * kbt / qc.k_rho)
    z_th2 = kbt / qc.k_z
    return max(qc.k_z, 3.0 * qc.k_rho * rho_th2, 2.0 * qc.k_rho_z * (rho_th2 + z_th2))


def _integration_constants(cfg: SimConfig):
    """(domain bound, mobility dt/gamma, noise scale) of one run; warns when dt
    exceeds the stability bound 0.1 gamma/k_max."""
    gamma = cfg.particle.drag
    k_max = stiffness_scale(cfg)
    if k_max > 0 and cfg.dt > 0.1 * gamma / k_max:
        warnings.warn(
            f"dt={cfg.dt:g} exceeds the stability bound 0.1 gamma/k_max="
            f"{0.1 * gamma / k_max:g}; results may be inaccurate",
            stacklevel=3,
        )
    bound = cfg.domain_bound if cfg.domain_bound is not None else cfg.default_domain_bound()
    kbt = BOLTZMANN * cfg.particle.temperature
    return bound, cfg.dt / gamma, math.sqrt(2.0 * kbt * cfg.dt / gamma)


def _force_coefficients(cfg: SimConfig) -> tuple:
    if cfg.force_model == "quartic":
        qc = cfg.effective_coefficients()
        return qc.k_z, qc.k_rho_z, qc.k_rho
    return cfg.stiffness_triple()


_LANE_FORCES = {"quartic": _quartic_force, "harmonic": _harmonic_force}


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
    bound, mob, noise_scale = _integration_constants(cfg)
    if cfg.force_model == "dipole":
        force = _dipole_scalar_force(cfg.beam, cfg.particle, cfg.include_scattering)
    else:
        force = _LANE_FORCES[cfg.force_model](*_force_coefficients(cfg))
    bound2 = bound * bound

    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_steps
    out = np.empty((n + 1, 3))
    x, y, z = (float(v) for v in cfg.initial_position)
    out[0] = (x, y, z)
    escape = None

    reflect = cfg.boundary == "reflect"
    done = 0
    step_index = 0
    while done < n and escape is None:
        chunk = min(_NOISE_CHUNK, n - done)
        noise = rng.standard_normal((chunk, 3))
        noise *= noise_scale
        # plain floats keep the loop's arithmetic off numpy scalars
        for nx, ny, nz in noise.tolist():
            fx, fy, fz = force(x, y, z)
            dx = fx * mob + nx
            dy = fy * mob + ny
            dz = fz * mob + nz
            if dx * dx + dy * dy + dz * dz > bound2:
                raise SimulationUnstableError(
                    f"step displacement exceeded the domain scale {bound:g} m "
                    f"at step {step_index + 1}; reduce dt"
                )
            x += dx
            y += dy
            z += dz
            step_index += 1
            r2 = x * x + y * y + z * z
            if r2 > bound2:
                if reflect:
                    # radial fold across the spherical wall
                    f = (2.0 * bound - math.sqrt(r2)) / math.sqrt(r2)
                    x *= f
                    y *= f
                    z *= f
                else:
                    out[step_index] = (x, y, z)
                    escape = EscapeReport(
                        position=(x, y, z), time=step_index * cfg.dt, step=step_index
                    )
                    break
            out[step_index] = (x, y, z)
        done += chunk

    positions = out[: step_index + 1]
    return Trajectory(
        dt=cfg.dt, positions=positions, seed=cfg.seed, provenance="simulated",
        escape=escape, config=cfg,
    )


def spawn_seeds(seed: int, n: int, offset: int = 0) -> list:
    """n per-run seeds spawned deterministically from seed, after the first offset."""
    state = np.random.SeedSequence(seed).generate_state(n + offset)
    return [int(s) for s in state[offset:]]


def simulate_lanes(cfgs) -> list:
    """Integrate one trajectory per config; lane i equals simulate(cfgs[i]) bit
    for bit.

    LOCKSTEP_MIN_LANES or more quartic or harmonic lanes that share the force
    model, boundary and step count are stepped together as arrays; any other
    ensemble runs simulate per lane.  The dipole model always runs per lane,
    because numpy's vectorized exp and cos need not round like libm.
    """
    cfgs = list(cfgs)
    shared = {(c.force_model, c.boundary, c.n_steps) for c in cfgs}
    if (len(cfgs) >= LOCKSTEP_MIN_LANES and len(shared) == 1
            and cfgs[0].force_model in _LANE_FORCES):
        return _simulate_lockstep(cfgs)
    return [simulate(c) for c in cfgs]


def _simulate_lockstep(cfgs) -> list:
    """simulate for every config at once, one numpy call per operation and
    step over the (R,) lanes still running.

    Each distinct seed owns one generator whose (_LANE_BLOCK, 3) draws continue
    the stream simulate draws in chunks, so lanes may share a seed.  Step
    vectors and positions are buffered per block; the unstable-step check runs
    on the buffer when it is written out, and an escaped lane is written out
    and dropped from the arrays at its escape step.
    """
    n, n_lanes = cfgs[0].n_steps, len(cfgs)
    make_force = _LANE_FORCES[cfgs[0].force_model]
    reflect = cfgs[0].boundary == "reflect"
    bound, mob, scale = (np.array(v) for v in zip(*map(_integration_constants, cfgs)))
    coef = [np.array(v) for v in zip(*map(_force_coefficients, cfgs))]
    generator_of = {}
    gen_index = np.array([generator_of.setdefault(c.seed, len(generator_of)) for c in cfgs])
    gens = [np.random.default_rng(seed) for seed in generator_of]

    start = np.array([c.initial_position for c in cfgs], dtype=float)
    # one array per lane, which can reuse freed heap blocks as one block could not
    out = [np.empty((n + 1, 3)) for _ in cfgs]
    for lane_out, position in zip(out, start):
        lane_out[0] = position
    x, y, z = start.T.copy()
    lanes = np.arange(n_lanes)
    lengths = [n + 1] * n_lanes
    escapes = [None] * n_lanes
    force = make_force(*coef)
    bound2, twice_bound = bound * bound, 2.0 * bound

    def write_out(lo, hi):
        d = steps[:, lo:hi]
        unstable = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] > bound2
        if unstable.any():
            k, j = np.argwhere(unstable)[0]
            raise SimulationUnstableError(
                f"step displacement exceeded the domain scale {bound[j]:g} m "
                f"at step {done + lo + k + 1} of lane {lanes[j]}; reduce dt"
            )
        for j, lane in enumerate(lanes.tolist()):
            out[lane][done + lo + 1:done + hi + 1] = states[:, lo:hi, j].T

    done = 0
    # past an unstable step the arithmetic may overflow before write_out raises
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while done < n and len(lanes):
            block = min(_LANE_BLOCK, n - done)
            draws = np.stack([g.standard_normal((block, 3)) for g in gens])
            noise = draws.transpose(2, 1, 0)[:, :, gen_index] * scale
            steps = np.empty((3, block, len(lanes)))
            states = np.empty_like(steps)
            lo = 0
            for k in range(block):
                fx, fy, fz = force(x, y, z)
                dx = np.multiply(fx, mob, out=steps[0, k])
                dy = np.multiply(fy, mob, out=steps[1, k])
                dz = np.multiply(fz, mob, out=steps[2, k])
                dx += noise[0, k]
                dy += noise[1, k]
                dz += noise[2, k]
                x = np.add(x, dx, out=states[0, k])
                y = np.add(y, dy, out=states[1, k])
                z = np.add(z, dz, out=states[2, k])
                r2 = x * x + y * y + z * z
                over = r2 > bound2
                if not over.any():
                    continue
                if reflect:
                    # radial fold across the spherical wall
                    r = np.sqrt(r2)
                    f = np.where(over, (twice_bound - r) / r, 1.0)
                    x *= f
                    y *= f
                    z *= f
                    continue
                write_out(lo, k + 1)
                lo = k + 1
                step = done + k + 1
                for j in np.flatnonzero(over):
                    lane = lanes[j]
                    lengths[lane] = step + 1
                    escapes[lane] = EscapeReport(
                        position=(float(x[j]), float(y[j]), float(z[j])),
                        time=step * cfgs[lane].dt, step=step,
                    )
                keep = ~over
                lanes, x, y, z = lanes[keep], x[keep], y[keep], z[keep]
                bound, mob, scale, bound2, twice_bound = (
                    a[keep] for a in (bound, mob, scale, bound2, twice_bound))
                coef = [a[keep] for a in coef]
                force = make_force(*coef)
                gen_index = gen_index[keep]
                noise, steps, states = (a[:, :, keep] for a in (noise, steps, states))
                if not len(lanes):
                    break
            write_out(lo, k + 1)
            done += block

    return [
        Trajectory(dt=c.dt, positions=out[i][:lengths[i]], seed=c.seed,
                   provenance="simulated", escape=escapes[i], config=c)
        for i, c in enumerate(cfgs)
    ]


def simulate_ensemble(cfg: SimConfig, n_runs: int, seed_offset: int = 0):
    """Independent repetitions with per-run seeds spawned from cfg.seed."""
    return simulate_lanes(cfg.with_seed(s) for s in spawn_seeds(cfg.seed, n_runs, seed_offset))


def pooled_positions(trajectories, burn_in: int = 0, drop_last: int = 0):
    """Concatenate retained samples from an ensemble.

    burn_in initial samples are dropped from each run; drop_last removes the
    samples just before an escape, where the density is no longer stationary.
    """
    parts = []
    for traj in trajectories:
        pos = traj.positions
        stop = len(pos) - (drop_last if traj.escape is not None else 0)
        if stop > burn_in:
            parts.append(pos[burn_in:stop])
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


def save_trajectory(traj: Trajectory, path):
    with open(path, "w") as fh:
        fh.write(f"# dt={traj.dt!r}\n")
        if traj.seed is not None:
            fh.write(f"# seed={traj.seed}\n")
        fh.write(f"# provenance={traj.provenance}\n")
        if traj.escape is not None:
            e = traj.escape
            fh.write(f"# escape_step={e.step} escape_time={e.time!r}\n")
        fh.write("t x y z\n")
        for k, (px, py, pz) in enumerate(traj.positions.tolist()):
            fh.write(f"{k * traj.dt!r} {px!r} {py!r} {pz!r}\n")


def load_trajectory(path, meters_per_pixel: float | None = None) -> Trajectory:
    """Read a trajectory file; honors a '# meters_per_pixel=' calibration comment.

    An explicit meters_per_pixel argument overrides the file header.  The
    time column is used only to infer dt when no '# dt=' comment is present.
    """
    dt = None
    seed = None
    provenance = "ingested"
    file_scale = None
    first_row = None
    n_header = 0
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                for token in body.split():
                    if token.startswith("dt="):
                        dt = float(token[3:])
                    elif token.startswith("seed="):
                        seed = int(token[5:])
                    elif token.startswith("meters_per_pixel="):
                        file_scale = float(token[len("meters_per_pixel="):])
                    elif token.startswith("provenance="):
                        provenance = token[len("provenance="):]
            elif line and line.replace(",", " ").split()[0] not in ("t", "x"):
                first_row = line
                break
            n_header += 1
    if first_row is None:
        raise ValueError(f"expected columns t x y z in {path}")
    data = np.loadtxt(path, delimiter="," if "," in first_row else None,
                      skiprows=n_header, ndmin=2)
    if data.shape[1] < 4:
        raise ValueError(f"expected columns t x y z in {path}")
    if dt is None:
        steps = np.diff(data[:, 0])
        if len(steps) == 0 or np.ptp(steps) > 1e-9 * abs(steps[0]):
            raise ValueError("cannot infer a uniform dt from the time column")
        dt = float(steps[0])
    scale = meters_per_pixel if meters_per_pixel is not None else file_scale
    positions = data[:, 1:4] * (scale if scale is not None else 1.0)
    return Trajectory(dt=dt, positions=positions, seed=seed, provenance=provenance)

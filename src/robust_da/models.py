"""Twin-experiment ground-truth generators and the contaminated observation
model.

Each simulator produces a truth trajectory (column 0 is the initial state at
time 0) plus observations drawn through the epsilon-contaminated noise

    V ~ (1 - eps) N(0, I) + eps N(0, lambda I),

applied through the symmetric square root of R.  Everything is deterministic
under a fixed seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ._linalg import psd_sym_sqrt
from .lgss import GaussianBelief, LgssModel, ObservationModel

__all__ = [
    "ContaminationSpec",
    "TrajectoryRecord",
    "contaminate",
    "simulate_ou",
    "simulate_target_tracking",
    "simulate_lorenz63",
    "simulate_lorenz96",
    "tracking_model",
    "lgss_sampler",
    "lorenz63_drift",
    "lorenz63_sampler",
    "lorenz96_drift",
    "lorenz96_sampler",
    "LORENZ63_X0",
]


@dataclass(frozen=True)
class ContaminationSpec:
    """Mixture contamination: frequency epsilon, variance inflation lam."""

    epsilon: float = 0.0
    lam: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if self.lam < 1.0:
            raise ValueError("lambda must be >= 1")

    @property
    def well_specified(self) -> bool:
        return self.epsilon == 0.0 or self.lam == 1.0


WELL_SPECIFIED = ContaminationSpec()


@dataclass(frozen=True)
class TrajectoryRecord:
    """Twin-experiment bookkeeping: truth, observations and contamination flags."""

    times: np.ndarray                 # (n + 1,), times[0] = 0
    states: np.ndarray                # (d_X, n + 1), column 0 = initial state
    observations: np.ndarray          # (d_Y, n_obs)
    obs_times: np.ndarray             # (n_obs,) index into the state columns
    contamination_flags: np.ndarray   # (n_obs,) bool, which mixture branch fired

    def __post_init__(self):
        obs_times = np.asarray(self.obs_times, dtype=int)
        if obs_times.size > 1 and np.any(np.diff(obs_times) <= 0):
            raise ValueError("obs_times must be strictly increasing")
        object.__setattr__(self, "obs_times", obs_times)

    @property
    def n_obs(self) -> int:
        return self.observations.shape[1]

    @property
    def initial_state(self) -> np.ndarray:
        return self.states[:, 0]

    def states_at_obs(self) -> np.ndarray:
        """Truth restricted to observation steps, shape (d_X, n_obs)."""
        return self.states[:, self.obs_times]

    def write_states_csv(self, path) -> None:
        d = self.states.shape[0]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "time"] + [f"state_{i}" for i in range(d)])
            for k in range(self.states.shape[1]):
                writer.writerow([k, repr(float(self.times[k]))]
                                + [repr(float(v)) for v in self.states[:, k]])

    def write_observations_csv(self, path) -> None:
        d = self.observations.shape[0]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["obs_index", "time"] + [f"y_{i}" for i in range(d)] + ["contaminated_flag"]
            )
            for k in range(self.n_obs):
                t = self.times[self.obs_times[k]]
                writer.writerow(
                    [k, repr(float(t))]
                    + [repr(float(v)) for v in self.observations[:, k]]
                    + [int(self.contamination_flags[k])]
                )


def contaminate(
    clean_noise: np.ndarray,
    spec: ContaminationSpec,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply mixture contamination to standardized noise draws.

    ``clean_noise`` has one column per observation.  Both mixture branches
    are sampled and a Bernoulli(epsilon) draw per observation selects which
    one fires; the returned flags record the inflated branch.
    """
    clean = np.atleast_2d(np.asarray(clean_noise, dtype=float))
    n = clean.shape[1]
    inflated = np.sqrt(spec.lam) * rng.standard_normal(clean.shape)
    flags = rng.random(n) < spec.epsilon
    noise = np.where(flags[None, :], inflated, clean)
    return noise, flags


def _observe(
    states_at_obs: np.ndarray,
    h: np.ndarray,
    r_sqrt: np.ndarray,
    spec: ContaminationSpec,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    n_obs = states_at_obs.shape[1]
    d_y = h.shape[0]
    clean = rng.standard_normal((d_y, n_obs))
    noise, flags = contaminate(clean, spec, rng)
    return h @ states_at_obs + r_sqrt @ noise, flags


# ---------------------------------------------------------------------------
# Linear Gaussian models


def lgss_sampler(model: LgssModel, noise_scale: float = 1.0):
    """Member propagator for the exact one-step LGSS transition."""
    q_sqrt = psd_sym_sqrt(model.Q)

    def step(members: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        out = model.A @ members
        if noise_scale:
            out = out + noise_scale * (q_sqrt @ rng.standard_normal(members.shape))
        return out

    return step


def simulate_ou(
    t_end: float = 10.0,
    dt: float = 0.1,
    seed: int = 0,
    contamination: ContaminationSpec = WELL_SPECIFIED,
    noise_scale: float = 1.0,
) -> tuple[TrajectoryRecord, LgssModel]:
    """Scalar Ornstein-Uhlenbeck twin experiment.

    Discrete AR(1) recursion with A=0.7, Q=1.3, H=1, R=0.1, truth started at
    5, observed every step.  The filter prior is centered at the start value
    with the stationary variance Q / (1 - A^2).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    a, q, h, r = 0.7, 1.3, 1.0, 0.1
    x0 = 5.0
    n = int(round(t_end / dt))
    rng = np.random.default_rng(seed)

    states = np.empty((1, n + 1))
    states[0, 0] = x0
    x = x0
    for k in range(1, n + 1):
        x = a * x + noise_scale * np.sqrt(q) * rng.standard_normal()
        states[0, k] = x
    times = dt * np.arange(n + 1)
    obs_times = np.arange(1, n + 1)
    observations, flags = _observe(
        states[:, obs_times], np.array([[h]]), np.array([[np.sqrt(r)]]), contamination, rng
    )
    record = TrajectoryRecord(times, states, observations, obs_times, flags)
    model = LgssModel(
        A=[[a]],
        Q=[[q]],
        H=[[h]],
        R=[[r]],
        prior=GaussianBelief(mean=[x0], cov=[[q / (1.0 - a * a)]]),
    )
    return record, model


def tracking_model(dt: float = 0.1) -> LgssModel:
    """Constant-velocity target-tracking system (positions observed)."""
    a = np.eye(4)
    a[0, 2] = dt
    a[1, 3] = dt
    q = np.array(
        [
            [dt**3 / 3.0, 0.0, dt**2 / 2.0, 0.0],
            [0.0, dt**3 / 3.0, 0.0, dt**2 / 2.0],
            [dt**2 / 2.0, 0.0, dt, 0.0],
            [0.0, dt**2 / 2.0, 0.0, dt],
        ]
    )
    h = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    r = np.array([[dt**2, dt**3], [dt**3, dt**2]])
    np.linalg.cholesky(r)  # guard: R must be SPD for the configured dt
    x0 = np.array([0.0, 0.0, 1.0, 1.0])
    return LgssModel(A=a, Q=q, H=h, R=r, prior=GaussianBelief(mean=x0, cov=np.eye(4)))


def simulate_target_tracking(
    t_end: float = 50.0,
    dt: float = 0.1,
    seed: int = 0,
    contamination: ContaminationSpec = WELL_SPECIFIED,
    noise_scale: float = 1.0,
) -> tuple[TrajectoryRecord, LgssModel]:
    """Two-dimensional constant-velocity tracking twin experiment."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    model = tracking_model(dt)
    n = int(round(t_end / dt))
    rng = np.random.default_rng(seed)
    q_sqrt = psd_sym_sqrt(model.Q)
    r_sqrt = psd_sym_sqrt(model.R)

    states = np.empty((4, n + 1))
    states[:, 0] = model.prior.mean
    x = model.prior.mean.copy()
    for k in range(1, n + 1):
        x = model.A @ x + noise_scale * (q_sqrt @ rng.standard_normal(4))
        states[:, k] = x
    times = dt * np.arange(n + 1)
    obs_times = np.arange(1, n + 1)
    observations, flags = _observe(states[:, obs_times], model.H, r_sqrt, contamination, rng)
    record = TrajectoryRecord(times, states, observations, obs_times, flags)
    return record, model


# ---------------------------------------------------------------------------
# Lorenz models


def lorenz63_drift(x: np.ndarray) -> np.ndarray:
    """Lorenz-63 vector field (sigma=10, rho=28, beta=8/3), vectorized over columns."""
    x1, x2, x3 = x[0], x[1], x[2]
    return np.stack([10.0 * (x2 - x1), x1 * (28.0 - x3) - x2, x1 * x2 - (8.0 / 3.0) * x3])


def lorenz63_sampler(dt: float, n_steps: int, noise_scale: float = 1.0):
    """Euler-Maruyama member propagator over ``n_steps`` substeps.

    Each substep adds sqrt(dt) times standard Gaussian noise per coordinate.
    """
    sqrt_dt = np.sqrt(dt)

    def step(members: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        x = members
        for _ in range(n_steps):
            x = x + dt * lorenz63_drift(x)
            if noise_scale:
                x = x + noise_scale * sqrt_dt * rng.standard_normal(x.shape)
        return x

    return step


LORENZ63_X0 = np.array([-0.587, -0.563, 16.87])


def simulate_lorenz63(
    t_end: float = 50.0,
    dt: float = 0.001,
    t_out: float = 0.05,
    seed: int = 0,
    contamination: ContaminationSpec = WELL_SPECIFIED,
    noise_scale: float = 1.0,
) -> tuple[TrajectoryRecord, ObservationModel]:
    """Stochastic Lorenz-63 twin experiment: first component observed with
    R = 0.5 every ``t_out`` time units."""
    steps_per_obs = int(round(t_out / dt))
    if abs(steps_per_obs * dt - t_out) > 1e-9:
        raise ValueError("t_out must be an integer multiple of dt")
    n = int(round(t_end / dt))
    rng = np.random.default_rng(seed)
    sqrt_dt = np.sqrt(dt)

    states = np.empty((3, n + 1))
    states[:, 0] = LORENZ63_X0
    x = LORENZ63_X0.copy()
    for k in range(1, n + 1):
        x = x + dt * lorenz63_drift(x) + noise_scale * sqrt_dt * rng.standard_normal(3)
        if not np.all(np.isfinite(x)):
            raise FloatingPointError(f"Lorenz-63 state blew up at step {k} (dt too large?)")
        states[:, k] = x
    times = dt * np.arange(n + 1)
    obs_times = np.arange(steps_per_obs, n + 1, steps_per_obs)
    obs = ObservationModel(H=[[1.0, 0.0, 0.0]], R=[[0.5]])
    observations, flags = _observe(
        states[:, obs_times], obs.H, np.array([[np.sqrt(0.5)]]), contamination, rng
    )
    record = TrajectoryRecord(times, states, observations, obs_times, flags)
    return record, obs


def _lorenz96_ring(d: int) -> np.ndarray:
    """Row gather [d-2, d-1, 0, ..., d-1, 0]: x[ring] holds x_{i-2} at i,
    x_{i-1} at i + 1 and x_{i+1} at i + 3."""
    return np.concatenate(([d - 2, d - 1], np.arange(d), [0]))


def lorenz96_drift(
    x: np.ndarray, forcing: np.ndarray | float = 8.0, ring: np.ndarray | None = None
) -> np.ndarray:
    """Cyclic Lorenz-96 vector field, vectorized over columns.

    ``ring`` is the neighbour gather of ``_lorenz96_ring``; integrators build
    it once and pass it to every call.
    """
    d = x.shape[0]
    if ring is None:
        ring = _lorenz96_ring(d)
    xe = x[ring]
    return (xe[3:] - xe[:d]) * xe[1 : d + 1] - x + forcing


def _lorenz96_rk4_step(x: np.ndarray, dt: float, forcing, ring: np.ndarray) -> np.ndarray:
    k1 = lorenz96_drift(x, forcing, ring)
    k2 = lorenz96_drift(x + 0.5 * dt * k1, forcing, ring)
    k3 = lorenz96_drift(x + 0.5 * dt * k2, forcing, ring)
    k4 = lorenz96_drift(x + dt * k3, forcing, ring)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _lorenz96_forcings(
    rng: np.random.Generator,
    n_steps: int,
    shape: tuple[int, ...],
    forcing_mean: float,
    forcing_std: float,
):
    """Per-step forcing draws F ~ N(mean, std^2) for ``n_steps`` steps, drawn
    in one call (the same numbers, in the same order, as one draw per step);
    the constant mean when ``forcing_std`` is zero."""
    if not forcing_std:
        return [forcing_mean] * n_steps
    return forcing_mean + forcing_std * rng.standard_normal((n_steps, *shape))


def lorenz96_sampler(
    dt: float,
    n_steps: int,
    forcing_mean: float = 8.0,
    forcing_std: float = 1.0,
):
    """RK4 member propagator with stochastic forcing.

    The forcing F_i ~ N(mean, std^2) is redrawn once per integration step and
    held constant across the four RK4 stages of that step, keeping each step
    a well-defined deterministic map given its forcing draw.
    """

    def step(members: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        ring = _lorenz96_ring(members.shape[0])
        x = members
        for forcing in _lorenz96_forcings(rng, n_steps, x.shape, forcing_mean, forcing_std):
            x = _lorenz96_rk4_step(x, dt, forcing, ring)
        return x

    return step


def simulate_lorenz96(
    d: int = 40,
    t_end: float = 73.0,
    dt: float = 0.01,
    t_out: float = 0.05,
    burn_in: float = 12.2,
    seed: int = 0,
    contamination: ContaminationSpec = WELL_SPECIFIED,
    forcing_std: float = 1.0,
) -> tuple[TrajectoryRecord, ObservationModel]:
    """Stochastic Lorenz-96 twin experiment, identity observations with R = I.

    The initial state is produced by a burn-in run (discarded from the
    record) started from the rest point F * ones perturbed in one coordinate.
    """
    if d < 4:
        raise ValueError("Lorenz-96 needs at least 4 dimensions")
    steps_per_obs = int(round(t_out / dt))
    if abs(steps_per_obs * dt - t_out) > 1e-9:
        raise ValueError("t_out must be an integer multiple of dt")
    rng = np.random.default_rng(seed)
    n_burn = int(round(burn_in / dt))
    n = int(round(t_end / dt))
    ring = _lorenz96_ring(d)
    forcings = _lorenz96_forcings(rng, n_burn + n, (d,), 8.0, forcing_std)

    x = np.full(d, 8.0)
    x[0] += 0.01
    for forcing in forcings[:n_burn]:
        x = _lorenz96_rk4_step(x, dt, forcing, ring)

    states = np.empty((d, n + 1))
    states[:, 0] = x
    for k in range(1, n + 1):
        x = _lorenz96_rk4_step(x, dt, forcings[n_burn + k - 1], ring)
        if not np.all(np.isfinite(x)):
            raise FloatingPointError(f"Lorenz-96 state blew up at step {k}")
        states[:, k] = x
    times = dt * np.arange(n + 1)
    obs_times = np.arange(steps_per_obs, n + 1, steps_per_obs)
    obs = ObservationModel(H=np.eye(d), R=np.eye(d))
    observations, flags = _observe(states[:, obs_times], obs.H, np.eye(d), contamination, rng)
    record = TrajectoryRecord(times, states, observations, obs_times, flags)
    return record, obs

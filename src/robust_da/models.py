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
        if not self.lam >= 1.0:  # refuses NaN too
            raise ValueError("lambda must be >= 1")


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
        header = ["step", "time", *(f"state_{i}" for i in range(self.states.shape[0]))]
        columns = [self.times, *self.states]
        _write_csv(path, header, zip(range(self.times.size), *(c.tolist() for c in columns)))

    def write_observations_csv(self, path) -> None:
        d = self.observations.shape[0]
        header = ["obs_index", "time", *(f"y_{i}" for i in range(d)), "contaminated_flag"]
        columns = [self.times[self.obs_times], *self.observations,
                   self.contamination_flags.astype(int)]
        _write_csv(path, header, zip(range(self.n_obs), *(c.tolist() for c in columns)))


def _write_csv(path, header: list[str], rows) -> None:
    """Write a header and rows of str, int and Python float; the csv module
    writes a Python float as its ``repr``.  Callers build float columns with
    ``.tolist()``, so no numpy scalar, formatted by numpy's rules, gets here."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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


def _twin_record(states, dt, steps_per_obs, h, r_sqrt, contamination, rng) -> TrajectoryRecord:
    """Observe the truth every ``steps_per_obs`` steps through contaminated
    noise applied by ``r_sqrt``, and keep the record."""
    n = states.shape[1] - 1
    obs_times = np.arange(steps_per_obs, n + 1, steps_per_obs)
    clean = rng.standard_normal((h.shape[0], obs_times.size))
    noise, flags = contaminate(clean, contamination, rng)
    observations = h @ states[:, obs_times] + r_sqrt @ noise
    return TrajectoryRecord(dt * np.arange(n + 1), states, observations, obs_times, flags)


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


def _simulate_lgss(model, t_end, dt, seed, contamination, noise_scale) -> TrajectoryRecord:
    """Truth x <- A x + noise_scale Q^{1/2} z from the prior mean, observed
    every step.  The draw is made even at ``noise_scale`` zero, so the
    observation draws that follow do not depend on it."""
    n = int(round(t_end / dt))
    rng = np.random.default_rng(seed)
    q_sqrt = psd_sym_sqrt(model.Q)
    states = np.empty((model.d_x, n + 1))
    states[:, 0] = x = model.prior.mean
    for k in range(1, n + 1):
        x = model.A @ x + noise_scale * (q_sqrt @ rng.standard_normal(model.d_x))
        states[:, k] = x
    return _twin_record(states, dt, 1, model.H, psd_sym_sqrt(model.R), contamination, rng)


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
    a, q = 0.7, 1.3
    model = LgssModel(
        A=[[a]], Q=[[q]], H=[[1.0]], R=[[0.1]],
        prior=GaussianBelief(mean=[5.0], cov=[[q / (1.0 - a * a)]]),
    )
    return _simulate_lgss(model, t_end, dt, seed, contamination, noise_scale), model


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
    return _simulate_lgss(model, t_end, dt, seed, contamination, noise_scale), model


# ---------------------------------------------------------------------------
# Lorenz models


def _lorenz63_field(x1, x2, x3, d1, d2, d3) -> None:
    """Write the Lorenz-63 field of the rows (x1, x2, x3) into the rows
    (d1, d2, d3), in place and with no temporaries."""
    np.multiply(8.0 / 3.0, x3, d3)
    np.multiply(x1, x2, d2)
    np.subtract(d2, d3, d3)    # x1 x2 - (8/3) x3
    np.subtract(28.0, x3, d2)
    np.multiply(x1, d2, d2)
    np.subtract(d2, x2, d2)    # x1 (28 - x3) - x2
    np.subtract(x2, x1, d1)
    np.multiply(10.0, d1, d1)  # 10 (x2 - x1)


def lorenz63_drift(x: np.ndarray) -> np.ndarray:
    """Lorenz-63 vector field (sigma=10, rho=28, beta=8/3), vectorized over columns."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    _lorenz63_field(*x.reshape(3, -1), *out.reshape(3, -1))
    return out


def lorenz63_sampler(dt: float, n_steps: int, noise_scale: float = 1.0):
    """Euler-Maruyama member propagator over ``n_steps`` substeps.

    Each substep adds sqrt(dt) times standard Gaussian noise per coordinate,
    x <- (x + dt * drift(x)) + noise_scale * sqrt(dt) * z.  One call draws
    the noise of all its substeps as one ``(n_steps, *members.shape)``
    block: the same numbers, in the same order, as one draw per substep, and
    no draw at all when ``noise_scale`` is zero.  Members are (3,) or (3, M);
    the result is a new C-ordered array whatever their layout (resampled
    particles arrive Fortran-ordered), so the rounding of the BLAS products
    taken from it does not depend on that layout.
    """
    sqrt_dt = np.sqrt(dt)

    def step(members: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        x = np.array(members, dtype=float, order="C")
        columns = x.reshape(3, -1)
        d = np.empty(columns.shape)
        rows = (*columns, *d)
        if noise_scale:
            noise = rng.standard_normal((n_steps, *columns.shape))
            noise *= noise_scale * sqrt_dt
        for k in range(n_steps):
            _lorenz63_field(*rows)
            d *= dt
            columns += d
            if noise_scale:
                columns += noise[k]
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
    R = 0.5 every ``t_out`` time units.

    The truth takes Euler-Maruyama steps x <- (x + dt * drift(x)) + e with
    e = noise_scale * sqrt(dt) * z.  The noise of all n steps is drawn as one
    ``(n, 3)`` block, the same numbers in the same order as one
    ``standard_normal(3)`` draw per step, so the observation draws that
    follow are unchanged too.  The steps run in Python floats: the same IEEE
    operations, in the same order, as the array form of ``lorenz63_drift``,
    so the states match it bit for bit.  Finiteness is checked once per
    observation interval; a blow-up is reported at its first non-finite step.
    """
    steps_per_obs = int(round(t_out / dt))
    if steps_per_obs < 1 or abs(steps_per_obs * dt - t_out) > 1e-9:
        raise ValueError("t_out must be a positive integer multiple of dt")
    n = int(round(t_end / dt))
    rng = np.random.default_rng(seed)
    noise = noise_scale * np.sqrt(dt) * rng.standard_normal((n, 3))

    states = np.empty((3, n + 1))
    states[:, 0] = LORENZ63_X0
    rows = states.T
    x1, x2, x3 = LORENZ63_X0.tolist()
    for start in range(0, n, steps_per_obs):
        interval = noise[start : start + steps_per_obs].tolist()
        for i, (e1, e2, e3) in enumerate(interval):
            d1 = 10.0 * (x2 - x1)
            d2 = x1 * (28.0 - x3) - x2
            d3 = x1 * x2 - (8.0 / 3.0) * x3
            x1, x2, x3 = x1 + dt * d1 + e1, x2 + dt * d2 + e2, x3 + dt * d3 + e3
            interval[i] = (x1, x2, x3)
        block = rows[start + 1 : start + 1 + len(interval)]
        block[:] = interval
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            k = start + 1 + int(np.argmin(finite))
            raise FloatingPointError(f"Lorenz-63 state blew up at step {k} (dt too large?)")
    obs = ObservationModel(H=[[1.0, 0.0, 0.0]], R=[[0.5]])
    return _twin_record(states, dt, steps_per_obs, obs.H, np.sqrt(obs.R), contamination, rng), obs


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
    obs = ObservationModel(H=np.eye(d), R=np.eye(d))
    return _twin_record(states, dt, steps_per_obs, obs.H, np.eye(d), contamination, rng), obs

"""Twin-experiment ground-truth generators and the contaminated observation
model.

Each simulator produces a truth trajectory (column 0 is the initial state at
time 0) plus observations drawn through the epsilon-contaminated noise

    V ~ (1 - eps) N(0, I) + eps N(0, lambda I),

applied through the symmetric square root of R.  Everything is deterministic
under a fixed seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._linalg import psd_sym_sqrt
from .lgss import GaussianBelief, LgssModel, ObservationModel

__all__ = [
    "ContaminationSpec",
    "TrajectoryRecord",
    "contaminate",
    "simulate_lgss",
    "simulate_ou",
    "simulate_target_tracking",
    "simulate_lorenz63",
    "simulate_lorenz96",
    "ou_model",
    "tracking_model",
    "lgss_sampler",
    "lorenz63_sampler",
    "lorenz96_drift",
    "lorenz96_sampler",
    "LORENZ63_X0",
]

LGSS_DT = 0.1         # OU and tracking: time step and observation interval
LORENZ63_DT = 0.001   # Euler-Maruyama step
LORENZ96_DT = 0.01    # RK4 step
LORENZ_T_OUT = 0.05   # observation interval of both Lorenz models


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
        if self.lam == np.inf:
            raise ValueError("lambda must be finite")


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
    """Write a header and rows of ints, Python floats (``str`` is ``repr``)
    and identifiers as ``csv.writer`` does; a field it would quote is refused.
    Callers build float columns with ``.tolist()``, so no numpy scalar,
    formatted by numpy's rules, gets here."""
    lines = []
    for row in itertools.chain((header,), rows):
        line = ",".join(map(str, row))
        if line.count(",") != len(row) - 1 or '"' in line or "\r" in line or "\n" in line:
            raise ValueError(f"a field of CSV line {line!r} needs quoting")
        lines.append(line + "\r\n")
    with open(path, "w", newline="") as fh:
        fh.writelines(lines)


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


def step_counts(t_end: float, dt: float, t_out: float) -> tuple[int, int]:
    """(n, steps_per_obs): n truth steps of ``dt`` up to ``t_end``, observed
    every ``steps_per_obs`` of them (n // steps_per_obs observations)."""
    steps_per_obs = int(round(t_out / dt))
    if steps_per_obs < 1 or abs(steps_per_obs * dt - t_out) > 1e-9:
        raise ValueError("t_out must be a positive integer multiple of dt")
    return int(round(t_end / dt)), steps_per_obs


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
# Member propagators (``*_sampler``): called with a list of (d, M_i) member
# blocks, one per filter, and one generator per block, they return the
# stacked (d, sum M_i) next members.  Each block draws its own process noise;
# the dynamics act on each column alone, so a block's columns come out as
# they would from a call with that block alone.


def _stack(blocks) -> np.ndarray:
    """The (d, M_i) member blocks side by side, as one new C-ordered (d, sum M_i)
    array whatever their layout (resampled particles arrive Fortran-ordered),
    so that the rounding of the BLAS products taken from it does not depend on
    that layout."""
    out = np.empty((blocks[0].shape[0], sum(block.shape[1] for block in blocks)))
    return np.concatenate(blocks, axis=1, out=out)


def _stacked_draws(blocks, rngs, draw) -> np.ndarray:
    """``draw(rng, m)`` for each block's generator and member count, side by
    side on the last (member) axis: each block's draws come from its own
    generator, in the order and shape a call with that block alone makes."""
    return np.concatenate([draw(rng, block.shape[1]) for block, rng in zip(blocks, rngs)], axis=-1)


# ---------------------------------------------------------------------------
# Linear Gaussian models


def lgss_sampler(model: LgssModel):
    """Member propagator for the exact one-step LGSS transition: each block
    draws its (d_X, M_i) standard normals, x <- A x + Q^{1/2} z."""
    q_sqrt = psd_sym_sqrt(model.Q)

    def step(blocks, rngs) -> np.ndarray:
        noise = _stacked_draws(blocks, rngs, lambda rng, m: rng.standard_normal((model.d_x, m)))
        return model.A @ _stack(blocks) + q_sqrt @ noise

    return step


def simulate_lgss(
    model: LgssModel,
    t_end: float,
    seeds: Sequence,
    contaminations: Sequence[ContaminationSpec],
) -> list[TrajectoryRecord]:
    """Twin runs of a linear Gaussian model, one per (seed, contamination):
    the truth x <- A x + Q^{1/2} z from the prior mean, observed every
    LGSS_DT step.

    Each run draws the n process-noise vectors of its truth as one
    ``(n, d_X)`` block from its own generator, the same numbers in the same
    order as one draw per step, and then its observation noise and
    contamination.  The truths of all runs step together as one (B, d_X)
    recursion, by the matrix-vector products that one run alone takes, so a
    run does not depend on the others.
    """
    n, _ = step_counts(t_end, LGSS_DT, LGSS_DT)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    z = np.stack([rng.standard_normal((n, model.d_x)) for rng in rngs], axis=1)
    noise = (psd_sym_sqrt(model.Q) @ z[..., None])[..., 0]  # (n, B, d_X)
    states = np.empty((len(rngs), model.d_x, n + 1))
    states[:, :, 0] = x = np.broadcast_to(model.prior.mean, noise.shape[1:])
    for k in range(n):
        x = (model.A @ x[..., None])[..., 0] + noise[k]
        states[:, :, k + 1] = x
    r_sqrt = psd_sym_sqrt(model.R)
    return [
        _twin_record(run, LGSS_DT, 1, model.H, r_sqrt, contamination, rng)
        for run, contamination, rng in zip(states, contaminations, rngs)
    ]


def ou_model() -> LgssModel:
    """Scalar Ornstein-Uhlenbeck model: the discrete AR(1) recursion with
    A=0.7, Q=1.3, H=1, R=0.1; the prior is centered at the start value 5
    with the stationary variance Q / (1 - A^2)."""
    a, q = 0.7, 1.3
    return LgssModel(
        A=[[a]], Q=[[q]], H=[[1.0]], R=[[0.1]],
        prior=GaussianBelief(mean=[5.0], cov=[[q / (1.0 - a * a)]]),
    )


def simulate_ou(
    t_end: float = 10.0,
    seed: int = 0,
    contamination: ContaminationSpec = WELL_SPECIFIED,
) -> tuple[TrajectoryRecord, LgssModel]:
    """Scalar Ornstein-Uhlenbeck twin experiment (``ou_model``), truth
    started at the prior mean and observed every step."""
    model = ou_model()
    return simulate_lgss(model, t_end, [seed], [contamination])[0], model


def tracking_model() -> LgssModel:
    """Constant-velocity target tracking at step LGSS_DT, positions observed."""
    dt = LGSS_DT
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
    seed: int = 0,
    contamination: ContaminationSpec = WELL_SPECIFIED,
) -> tuple[TrajectoryRecord, LgssModel]:
    """Two-dimensional constant-velocity tracking twin experiment."""
    model = tracking_model()
    return simulate_lgss(model, t_end, [seed], [contamination])[0], model


# ---------------------------------------------------------------------------
# Lorenz models


def lorenz63_sampler(dt: float, n_steps: int):
    """Euler-Maruyama member propagator over ``n_steps`` substeps.

    Each substep adds sqrt(dt) times standard Gaussian noise per coordinate,
    x <- (x + dt * drift(x)) + sqrt(dt) * z, with the Lorenz-63 field
    (sigma=10, rho=28, beta=8/3).  Each (3, M_i) block draws the noise of all
    its substeps as one ``(n_steps, 3, M_i)`` block from its own generator:
    the same numbers, in the same order, as one draw per substep.

    The N members of all blocks are stepped together in rows 1-3 of one
    17-row buffer, laid out so that operations of one kind on independent
    operands sit side by side and a substep is 9 in-place ufunc calls on
    contiguous rows, with no temporaries.  Row by row the buffer holds

        0 b = 28 - x3    1-3 x1 x2 x3     4 a = x2 - x1   5 8/3   6 10
        7 p2 = b x1      8 p3 = x1 x2     9 p4 = (8/3) x3  10 p1 = 10 a
        11 d2 = p2 - x2  12 d3 = p3 - p4  13 28           14-16 dt

    so that rows 10-12 hold the field (p1, d2, d3), scaled in place by rows
    14-16.  Each product and difference has the operands, and each
    difference the order, of the field written out per coordinate (IEEE
    products commute exactly).  Every constant is a row of the buffer, not a
    Python float: a ufunc call with a Python-float operand costs nearly
    twice the same call with an array operand, for the same IEEE result.

    Every row starts on a 64-byte line: the buffer is aligned, each row is
    N padded with zeros to a multiple of 8 doubles, and the noise rows share
    its allocation and stride.  At thousands of columns, rows that split
    cache lines made the 9 calls slower than the 11 calls of the unpaired
    field.  The padding is zero outside the constant rows, and every
    operation keeps it zero.  The buffer, its noise rows and their views are
    kept for the column count of the last call and built anew when a call
    brings another count.
    """
    sqrt_dt = np.sqrt(dt)
    layout = None

    def build(n):
        s = -(-n // 8) * 8  # row stride
        raw = np.zeros((17 + 3 * n_steps) * s + 8)
        start = -raw.ctypes.data % 64 // 8
        row = raw[start : start + 17 * s]
        buf = row.reshape(17, s)
        buf[5], buf[6], buf[13], buf[14:] = 8.0 / 3.0, 10.0, 28.0, dt
        noise = raw[start + 17 * s : start + (17 + 3 * n_steps) * s].reshape(n_steps, 3, s)
        views = [row[i * s : i * s + n] for i in (0, 1, 2, 3, 4, 7, 8, 9, 11, 12, 13)]
        views += [
            row[i * s : (j - 1) * s + n]
            for i, j in ((1, 4), (0, 2), (1, 3), (7, 9), (5, 7), (3, 5), (9, 11), (10, 13), (14, 17))
        ]
        return n, buf[1:4, :n], noise, noise.reshape(n_steps, 3 * s)[:, : 2 * s + n], views

    def step(blocks, rngs) -> np.ndarray:
        nonlocal layout
        n = sum(block.shape[1] for block in blocks)
        if layout is None or layout[0] != n:
            layout = build(n)
        _, members, noise, noise_rows, views = layout
        (b, x1, x2, x3, a, p2, p3, p4, d2, d3, c28,
         x, b_x1, x1_x2, p2_p3, c_x3, x3_a, p4_p1, field, dt_rows) = views
        np.concatenate(blocks, axis=1, out=members)
        np.concatenate(
            [rng.standard_normal((n_steps, 3, block.shape[1])) for block, rng in zip(blocks, rngs)],
            axis=-1, out=noise[..., :n],
        )
        noise *= sqrt_dt
        subtract, multiply, add = np.subtract, np.multiply, np.add
        for noise_k in noise_rows:
            subtract(x2, x1, a)
            subtract(c28, x3, b)
            multiply(b_x1, x1_x2, p2_p3)  # (28 - x3) x1, x1 x2
            multiply(c_x3, x3_a, p4_p1)   # (8/3) x3, 10 (x2 - x1)
            subtract(p2, x2, d2)
            subtract(p3, p4, d3)
            multiply(field, dt_rows, field)
            add(x, field, x)
            add(x, noise_k, x)
        return members.copy()

    return step


LORENZ63_X0 = np.array([-0.587, -0.563, 16.87])


def simulate_lorenz63(
    t_end: float = 50.0,
    dt: float = LORENZ63_DT,
    t_out: float = LORENZ_T_OUT,
    seed: int = 0,
    contamination: ContaminationSpec = WELL_SPECIFIED,
) -> tuple[TrajectoryRecord, ObservationModel]:
    """Stochastic Lorenz-63 twin experiment: first component observed with
    R = 0.5 every ``t_out`` time units.

    The truth takes Euler-Maruyama steps x <- (x + dt * drift(x)) + e with
    e = sqrt(dt) * z.  The noise of all n steps is drawn as one
    ``(n, 3)`` block, the same numbers in the same order as one
    ``standard_normal(3)`` draw per step, so the observation draws that
    follow are unchanged too.  The steps run in Python floats: the same IEEE
    operations, in the same order, as the row-laid kernel ``lorenz63_sampler``
    steps its members with, so the states match it bit for bit.  Finiteness
    is checked once per observation interval; a blow-up is reported at its
    first non-finite step.
    """
    n, steps_per_obs = step_counts(t_end, dt, t_out)
    rng = np.random.default_rng(seed)
    noise = np.sqrt(dt) * rng.standard_normal((n, 3))

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
        if not np.logical_and.reduce(np.isfinite(block), axis=None):
            k = start + 1 + int(np.argmin(np.isfinite(block).all(axis=1)))
            raise FloatingPointError(f"Lorenz-63 state blew up at step {k} (dt too large?)")
    obs = ObservationModel(H=[[1.0, 0.0, 0.0]], R=[[0.5]])
    return _twin_record(states, dt, steps_per_obs, obs.H, np.sqrt(obs.R), contamination, rng), obs


def _lorenz96_field(d: int):
    """The cyclic Lorenz-96 field ``field(x, forcing, out)`` of states with
    ``d`` rows, vectorized over columns: (x_{i+1} - x_{i-2}) x_{i-1} - x_i +
    F_i, written into ``out`` and returned.  The neighbours come from one
    gather of the ring [d-2, d-1, 0, ..., d-1, 0]: x[ring] holds x_{i-2} at
    i, x_{i-1} at i + 1 and x_{i+1} at i + 3.  On a 40-vector a call is
    mostly Python overhead, so the ufuncs are closure locals and take their
    outputs positionally: an ``out=`` keyword costs as much as the
    allocation it saves."""
    ring = np.concatenate(([d - 2, d - 1], np.arange(d), [0]))
    behind2, behind1, ahead = slice(0, d), slice(1, d + 1), slice(3, d + 3)
    subtract, multiply, add = np.subtract, np.multiply, np.add

    def field(x: np.ndarray, forcing, out: np.ndarray) -> np.ndarray:
        xe = x[ring]
        subtract(xe[ahead], xe[behind2], out)
        multiply(out, xe[behind1], out)
        subtract(out, x, out)
        return add(out, forcing, out)

    return field


def lorenz96_drift(x: np.ndarray, forcing: np.ndarray | float = 8.0) -> np.ndarray:
    """Cyclic Lorenz-96 vector field (x_{i+1} - x_{i-2}) x_{i-1} - x_i + F_i,
    vectorized over columns, as a new array."""
    out = np.empty(np.broadcast_shapes(x.shape, np.shape(forcing)))
    return _lorenz96_field(x.shape[0])(x, forcing, out)


def _lorenz96_rk4_step(dt: float, shape: tuple[int, ...]):
    """The RK4 step ``step(x, forcing)`` of the Lorenz-96 field for states of
    ``shape``.  Its constants 0.5 dt, dt, 2 and dt / 6 are float64 arrays of
    that shape: a ufunc call with a Python-float operand costs nearly twice
    the same call with an array operand, for the same IEEE result.

    The stages k1-k4, the stage state and the weighted sum of the stages are
    buffers built here and written in place by every call, with the IEEE
    operations of x + dt/6 (k1 + 2 k2 + 2 k3 + k4) in their written order;
    a call allocates only each stage's neighbour gather and the state it
    returns, which no later call touches.  So one step is not to be called
    from two threads at once."""
    field = _lorenz96_field(shape[0])
    half_dt, full_dt, two, sixth_dt = (np.full(shape, c) for c in (0.5 * dt, dt, 2.0, dt / 6.0))
    k1, k2, k3, k4, stage, total = np.empty((6, *shape))
    multiply, add = np.multiply, np.add

    def step(x: np.ndarray, forcing: np.ndarray) -> np.ndarray:
        field(x, forcing, k1)
        multiply(half_dt, k1, stage)
        field(add(x, stage, stage), forcing, k2)
        multiply(half_dt, k2, stage)
        field(add(x, stage, stage), forcing, k3)
        multiply(full_dt, k3, stage)
        field(add(x, stage, stage), forcing, k4)
        multiply(two, k2, total)
        add(k1, total, total)
        multiply(two, k3, stage)
        add(total, stage, total)
        add(total, k4, total)
        multiply(sixth_dt, total, total)
        return add(x, total)

    return step


def _lorenz96_forcings(
    rng: np.random.Generator, n_steps: int, shape: tuple[int, ...]
) -> np.ndarray:
    """Per-step forcing draws F ~ N(8, 1) for ``n_steps`` steps, drawn in one
    call (the same numbers, in the same order, as one draw per step)."""
    return 8.0 + rng.standard_normal((n_steps, *shape))


def lorenz96_sampler(dt: float, n_steps: int):
    """RK4 member propagator with stochastic forcing.

    The forcing F_i ~ N(8, 1) is redrawn once per integration step and held
    constant across the four RK4 stages of that step, keeping each step a
    well-defined deterministic map given its forcing draw.  Each (d, M_i)
    block draws its ``(n_steps, d, M_i)`` forcings from its own generator.
    The RK4 step of the member shape of the last call is kept, with its
    stage buffers, and built anew when a call brings another shape; so a
    sampler is not to be called from two threads at once.
    """
    shape = rk4 = None

    def step(blocks, rngs) -> np.ndarray:
        nonlocal shape, rk4
        x = _stack(blocks)
        if x.shape != shape:
            shape, rk4 = x.shape, _lorenz96_rk4_step(dt, x.shape)
        forcings = _stacked_draws(
            blocks, rngs, lambda rng, m: _lorenz96_forcings(rng, n_steps, (shape[0], m))
        )
        for forcing in forcings:
            x = rk4(x, forcing)
        return x

    return step


def simulate_lorenz96(
    t_end: float = 73.0,
    seed: int = 0,
    contamination: ContaminationSpec = WELL_SPECIFIED,
) -> tuple[TrajectoryRecord, ObservationModel]:
    """Stochastic Lorenz-96 twin experiment in 40 dimensions: RK4 steps of
    LORENZ96_DT with forcing F ~ N(8, 1), identity observations with R = I
    every LORENZ_T_OUT.

    The initial state is produced by a burn-in run of 12.2 time units
    (discarded from the record) started from the rest point F * ones
    perturbed in one coordinate.  Finiteness is checked once per observation
    interval; a blow-up is reported at its first non-finite step.
    """
    d, dt = 40, LORENZ96_DT
    n, steps_per_obs = step_counts(t_end, dt, LORENZ_T_OUT)
    rng = np.random.default_rng(seed)
    n_burn = int(round(12.2 / dt))
    rk4 = _lorenz96_rk4_step(dt, (d,))
    forcings = _lorenz96_forcings(rng, n_burn + n, (d,))

    x = np.full(d, 8.0)
    x[0] += 0.01
    for forcing in forcings[:n_burn]:
        x = rk4(x, forcing)

    states = np.empty((d, n + 1))
    states[:, 0] = x
    for start in range(0, n, steps_per_obs):
        stop = min(start + steps_per_obs, n)
        for k in range(start + 1, stop + 1):
            x = rk4(x, forcings[n_burn + k - 1])
            states[:, k] = x
        block = states[:, start + 1 : stop + 1]
        if not np.logical_and.reduce(np.isfinite(block), axis=None):
            k = start + 1 + int(np.argmin(np.isfinite(block).all(axis=0)))
            raise FloatingPointError(f"Lorenz-96 state blew up at step {k}")
    obs = ObservationModel(H=np.eye(d), R=np.eye(d))
    return _twin_record(states, dt, steps_per_obs, obs.H, np.eye(d), contamination, rng), obs

"""Shared test oracles: dense-grid quadrature posteriors and
finite-difference gradients; a per-window LETKF loop, an np.roll-based
Lorenz-96 integrator, a draw-per-step Lorenz-63 integrator and the two
hand-written linear Gaussian truth loops (scalar OU in Python floats,
constant-velocity tracking in arrays), references for the shared library
code; a machine-speed calibration loop for wall-time budgets; and the marks
that let a test drive one of the library's intended overflows.

The quadrature and gradient oracles deliberately avoid the library's update
formulas so that agreement is evidence, not tautology.  The LETKF and Lorenz
oracles are the straightforward loops: they pin the batched code to the same
numbers computed one window, or one step, at a time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from robust_da import EnsembleState, SpdFactor, contaminate, psd_sym_sqrt, symmetrize
from robust_da.models import tracking_model
from robust_da.weights import robust_update


def grid_posterior_1d(log_unnormalized, lo=-20.0, hi=20.0, n=400_000):
    """Mean and variance of a 1-D density known up to a constant."""
    x = np.linspace(lo, hi, n)
    log_p = log_unnormalized(x)
    log_p = log_p - log_p.max()
    p = np.exp(log_p)
    z = np.trapezoid(p, x)
    mean = np.trapezoid(x * p, x) / z
    var = np.trapezoid((x - mean) ** 2 * p, x) / z
    return mean, var


def grid_posterior_2d(log_unnormalized, lo=-12.0, hi=12.0, n=700):
    """Mean vector and covariance of a 2-D density known up to a constant.

    ``log_unnormalized`` maps an (2, K) array of points to (K,) log-values.
    """
    axis = np.linspace(lo, hi, n)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()])
    log_p = log_unnormalized(pts)
    log_p = log_p - log_p.max()
    p = np.exp(log_p)
    z = p.sum()
    mean = pts @ p / z
    centered = pts - mean[:, None]
    cov = (centered * p) @ centered.T / z
    return mean, cov


# Intended overflows.  Each of these lines overflows on purpose for a finite
# residual too large to square: the whitening's first try, redone on the
# residual scaled by a power of two, and the products that then give s = inf
# and a weight of 0.  The suite turns every RuntimeWarning into an error; the
# harness runs under np.errstate, so only a test that calls the library
# directly meets these, and it names each one it drives.
# SpdFactor.mahalanobis_sq: the first z @ z, then the rescaled * scale * scale.
WHITENING_OVERFLOWS = pytest.mark.filterwarnings(
    "ignore:overflow encountered in matmul:RuntimeWarning:robust_da._linalg"
)
RESCALED_SQUARE_OVERFLOWS = pytest.mark.filterwarnings(
    "ignore:overflow encountered in (scalar )?multiply:RuntimeWarning:robust_da._linalg"
)
# weights.eval_kernel: a block's s_b * scale * scale.
BLOCK_SQUARE_OVERFLOWS = pytest.mark.filterwarnings(
    "ignore:overflow encountered in scalar multiply:RuntimeWarning:robust_da.weights"
)
# ensemble._transform_analysis: a window's s * d_scale * d_scale.
WINDOW_SQUARE_OVERFLOWS = pytest.mark.filterwarnings(
    "ignore:overflow encountered in multiply:RuntimeWarning:robust_da.ensemble"
)


def central_diff_gradient(fn, y, rel_step=1e-6):
    """Central finite differences with per-coordinate step 1e-6 (1 + |y_i|)."""
    y = np.asarray(y, dtype=float)
    grad = np.zeros_like(y)
    for i in range(y.size):
        step = rel_step * (1.0 + abs(y[i]))
        up = y.copy()
        dn = y.copy()
        up[i] += step
        dn[i] -= step
        grad[i] = (fn(up) - fn(dn)) / (2.0 * step)
    return grad


def random_spd(rng, d, scale=1.0):
    """Random well-conditioned SPD matrix."""
    a = rng.standard_normal((d, d))
    return scale * (a @ a.T + d * np.eye(d))


# Calibrated timing: the loop of ``perfbench/calibration.py``, copied because
# the suite also runs where ``perfbench`` is not importable.  A shared host's
# speed drifts by up to 1.6x; a wall-time budget is read at reference speed by
# scaling with how fast this fixed loop ran right before and right after.
CALIBRATION_REFERENCE_S = 0.02  # seconds the loop takes on a quiet 2-vCPU Xeon VM

_CALIBRATION_SPD = np.eye(40) * 40.0 + np.add.outer(np.arange(40.0), np.arange(40.0)) / 40.0


def calibration_seconds() -> float:
    """Wall time of one run of the fixed calibration loop."""
    start = time.perf_counter()
    x = np.ones(4)
    a = np.eye(4) * 2.0 + 0.1
    total = 0.0
    for step in range(1500):
        x = a @ x + 0.5
        x = x / np.sqrt(x @ x)
        total += float(np.linalg.cholesky(a)[0, 0]) + sum(float(v) for v in x)
        if step % 100 == 0:
            total += float(
                np.linalg.eigh(_CALIBRATION_SPD)[0][0]
                + np.linalg.cholesky(_CALIBRATION_SPD)[0, 0]
            )
    if not np.isfinite(total):
        raise FloatingPointError("calibration loop produced a non-finite value")
    return time.perf_counter() - start


def calibration_reading(runs: int = 5) -> float:
    """Median wall time of ``runs`` runs of the calibration loop: single runs
    of the ~20 ms loop scatter by 1.8x on a shared host."""
    return statistics.median(calibration_seconds() for _ in range(runs))


def calibrated_seconds(wall: float, before: float, after: float) -> float:
    """``wall`` seconds read at reference speed, given the calibration
    readings taken right before and right after them."""
    return wall * CALIBRATION_REFERENCE_S / (0.5 * (before + after))


# ---------------------------------------------------------------------------
# Looped LETKF: one anomaly-space analysis per state index.


def window_indices(state_index, d_y, half_width):
    """Cyclic observation window around a state index and the index distances."""
    offsets = np.arange(-half_width, half_width + 1)
    return (state_index + offsets) % d_y, np.abs(offsets)


def anomaly_posterior_cov(gram, m, rho=1.0):
    """Anomaly-space analysis covariance [(M-1)/rho I + gram]^{-1}."""
    gram = symmetrize(np.asarray(gram, dtype=float))
    return symmetrize(SpdFactor((m - 1) / rho * np.eye(gram.shape[0]) + gram).inverse())


def solve_anomaly_analysis(y_anom, ninv, innovation, rho=1.0):
    """(cov, mean weights, symmetric transform) of the anomaly-space analysis
    with weighted observation precision ``ninv`` = W^{1/2} R^{-1} W^{1/2} and
    target innovation."""
    m = y_anom.shape[1]
    weighted = ninv @ y_anom
    cov = anomaly_posterior_cov(y_anom.T @ weighted, m, rho)
    mean = cov @ (weighted.T @ innovation)
    transform = psd_sym_sqrt((m - 1) * cov, min_eig_tol=-1e-10)
    return cov, mean, transform


def _local_analysis(spec, y, y_mean, y_anom, r, rho):
    m = y_anom.shape[1]
    r_factor = SpdFactor(r)
    w, target = robust_update(spec, y, y_mean, lambda: y_anom @ y_anom.T / (m - 1), r_factor)
    root_w = np.sqrt(w)
    ninv = root_w[:, None] * r_factor.inverse() * root_w
    return solve_anomaly_analysis(y_anom, ninv, target - y_mean, rho)


def letkf_analysis_looped(ensemble, obs, y, spec, config):
    """The LETKF one window at a time, each through the shared robust update."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    r = obs.R
    y_mean = obs.H @ ensemble.mean
    y_anom = obs.H @ ensemble.members - y_mean[:, None]
    x_anom = ensemble.anomalies
    loc = config.localization
    if loc is None:
        _, mean, transform = _local_analysis(spec, y, y_mean, y_anom, r, config.rho)
        mean_a = ensemble.mean + x_anom @ mean
        return EnsembleState(members=mean_a[:, None] + x_anom @ transform)

    r_diag = np.diag(r)
    _, dist = window_indices(0, y.shape[0], loc.half_width)
    taper = np.exp(-(dist.astype(float) ** 2) / loc.taper_length**2)
    members = np.empty_like(ensemble.members)
    for j in range(ensemble.d_x):
        idx, _ = window_indices(j, y.shape[0], loc.half_width)
        _, mean, transform = _local_analysis(
            spec, y[idx], y_mean[idx], y_anom[idx, :], np.diag(r_diag[idx] / taper), config.rho
        )
        members[j, :] = ensemble.mean[j] + x_anom[j] @ mean + x_anom[j] @ transform
    return EnsembleState(members=members)


# ---------------------------------------------------------------------------
# Lorenz-96 with np.roll neighbours and one forcing draw per step.


def lorenz96_drift_rolled(x, forcing=8.0):
    xp1 = np.roll(x, -1, axis=0)
    xm2 = np.roll(x, 2, axis=0)
    xm1 = np.roll(x, 1, axis=0)
    return (xp1 - xm2) * xm1 - x + forcing


def lorenz96_sampler_rolled(dt, n_steps, forcing_mean=8.0, forcing_std=1.0):
    def step(members, rng):
        x = members
        for _ in range(n_steps):
            if forcing_std:
                forcing = forcing_mean + forcing_std * rng.standard_normal(x.shape)
            else:
                forcing = forcing_mean
            k1 = lorenz96_drift_rolled(x, forcing)
            k2 = lorenz96_drift_rolled(x + 0.5 * dt * k1, forcing)
            k3 = lorenz96_drift_rolled(x + 0.5 * dt * k2, forcing)
            k4 = lorenz96_drift_rolled(x + dt * k3, forcing)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return x

    return step


def simulate_lorenz96_rolled(d, t_end, dt, t_out, burn_in, seed, contamination, forcing_std=1.0):
    """(states, observations, flags, generator) of the Lorenz-96 twin run."""
    steps_per_obs = int(round(t_out / dt))
    rng = np.random.default_rng(seed)
    x = np.full(d, 8.0)
    x[0] += 0.01
    step = lorenz96_sampler_rolled(dt, 1, forcing_std=forcing_std)
    for _ in range(int(round(burn_in / dt))):
        x = step(x[:, None], rng)[:, 0]
    n = int(round(t_end / dt))
    states = np.empty((d, n + 1))
    states[:, 0] = x
    for k in range(1, n + 1):
        x = step(x[:, None], rng)[:, 0]
        states[:, k] = x
    obs_times = np.arange(steps_per_obs, n + 1, steps_per_obs)
    clean = rng.standard_normal((d, obs_times.size))
    noise, flags = contaminate(clean, contamination, rng)
    identity = np.eye(d)
    return states, identity @ states[:, obs_times] + identity @ noise, flags, rng


# ---------------------------------------------------------------------------
# Lorenz-63 with an np.stack field and one noise draw per Euler-Maruyama step.


def lorenz63_drift_stacked(x):
    x1, x2, x3 = x[0], x[1], x[2]
    return np.stack([10.0 * (x2 - x1), x1 * (28.0 - x3) - x2, x1 * x2 - (8.0 / 3.0) * x3])


def lorenz63_sampler_stepwise(dt, n_steps, noise_scale=1.0):
    sqrt_dt = np.sqrt(dt)

    def step(members, rng):
        x = members
        for _ in range(n_steps):
            x = x + dt * lorenz63_drift_stacked(x)
            if noise_scale:
                x = x + noise_scale * sqrt_dt * rng.standard_normal(x.shape)
        return x

    return step


def simulate_lorenz63_stepwise(t_end, dt, t_out, seed, contamination, noise_scale=1.0):
    """(states, observations, flags, generator) of the Lorenz-63 twin run;
    raises FloatingPointError at the first step with a non-finite state."""
    steps_per_obs = int(round(t_out / dt))
    n = int(round(t_end / dt))
    rng = np.random.default_rng(seed)
    sqrt_dt = np.sqrt(dt)
    states = np.empty((3, n + 1))
    states[:, 0] = [-0.587, -0.563, 16.87]
    x = states[:, 0].copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n + 1):
            x = x + dt * lorenz63_drift_stacked(x) + noise_scale * sqrt_dt * rng.standard_normal(3)
            if not np.all(np.isfinite(x)):
                raise FloatingPointError(f"Lorenz-63 state blew up at step {k} (dt too large?)")
            states[:, k] = x
    obs_times = np.arange(steps_per_obs, n + 1, steps_per_obs)
    clean = rng.standard_normal((1, obs_times.size))
    noise, flags = contaminate(clean, contamination, rng)
    h = np.array([[1.0, 0.0, 0.0]])
    return states, h @ states[:, obs_times] + np.array([[np.sqrt(0.5)]]) @ noise, flags, rng


# ---------------------------------------------------------------------------
# Linear Gaussian truths, each with its own loop and observation tail.


def simulate_ou_floats(t_end, dt, seed, contamination, noise_scale=1.0):
    """(states, observations, flags) of the OU twin run, stepped in Python floats."""
    a, q, r = 0.7, 1.3, 0.1
    n = int(round(t_end / dt))
    rng = np.random.default_rng(seed)
    states = np.empty((1, n + 1))
    states[0, 0] = x = 5.0
    for k in range(1, n + 1):
        x = a * x + noise_scale * np.sqrt(q) * rng.standard_normal()
        states[0, k] = x
    clean = rng.standard_normal((1, n))
    noise, flags = contaminate(clean, contamination, rng)
    return states, np.array([[1.0]]) @ states[:, 1:] + np.array([[np.sqrt(r)]]) @ noise, flags


def simulate_tracking_stepwise(t_end, dt, seed, contamination, noise_scale=1.0):
    """(states, observations, flags) of the constant-velocity tracking twin run."""
    model = tracking_model(dt)
    n = int(round(t_end / dt))
    rng = np.random.default_rng(seed)
    q_sqrt = psd_sym_sqrt(model.Q)
    states = np.empty((4, n + 1))
    states[:, 0] = x = model.prior.mean.copy()
    for k in range(1, n + 1):
        x = model.A @ x + noise_scale * (q_sqrt @ rng.standard_normal(4))
        states[:, k] = x
    clean = rng.standard_normal((2, n))
    noise, flags = contaminate(clean, contamination, rng)
    return states, model.H @ states[:, 1:] + psd_sym_sqrt(model.R) @ noise, flags

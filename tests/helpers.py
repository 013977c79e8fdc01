"""Shared test oracles: dense-grid quadrature posteriors and
finite-difference gradients; the per-residual multi-block kernel loop; a
strategy of float matrices of any magnitude and memory layout, and
observations in other forms than a float vector; LAPACK's solves with one
Cholesky factor, references for ``SpdFactor``; the information-form robust
update and the outlier-influence sweep; a per-window LETKF loop and the
transform analysis solved in the full M-dimensional member space, an
np.roll-based Lorenz-96 integrator, a draw-per-step Lorenz-63 integrator
and the two hand-written linear Gaussian truth loops (scalar OU in Python
floats, constant-velocity tracking in arrays), references for the shared
library code; the per-step q-IC and coverage loops, references for the
stacked metrics; a machine-speed calibration loop for wall-time budgets;
the mark that lets a test drive one of the library's intended overflows;
one replicate's setup and lock-stepped filters; and the
one-filter-at-a-time run, the reference for the harness's lock-stepped
filters.

The quadrature, gradient and information-form oracles deliberately avoid
the library's update formulas so that agreement is evidence, not tautology.
The multi-block kernel, LETKF, Lorenz and metric oracles are the
straightforward loops: they pin the batched code to the same numbers
computed one residual, one window, or one step, at a time.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrs, dtrtrs
from scipy.stats import norm

from robust_da import (
    EnsembleState,
    GaussianBelief,
    ParticleCloud,
    SpdFactor,
    contaminate,
    dsm_analysis,
    enkf_perturbed_analysis,
    esrf_analysis,
    kf_analysis,
    kf_forecast,
    letkf_analysis,
    pf_step,
    psd_sym_sqrt,
    symmetrize,
    wolf_analysis,
)
from robust_da import harness
from robust_da._linalg import pow2_scale
from robust_da.ensemble import _tapered_windows
from robust_da.metrics import _q_log_from_log
from robust_da.models import tracking_model
from robust_da.weights import CONDITIONAL, robust_update, weigh


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


# An intended overflow.  This line overflows on purpose for a finite
# residual too large to square: the product that gives s = inf and a weight
# of 0.  The suite turns every RuntimeWarning into an error; the harness
# runs under np.errstate, so only a test that calls the library directly
# meets it, and it names the mark.  (SpdFactor.mahalanobis_sq and the
# multi-block kernel silence their own: their result is inf.)
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


@np.errstate(over="ignore", invalid="ignore")  # s_b = inf gives k^2_b = 0
def block_kernel_looped(spec, y, center, std_cov):
    """k^2_b, shaped (B, n_blocks), and grad log k^2_b, shaped (B, n_blocks,
    d_Y), of a (B, d_Y) stack of observations under a multi-block DSM spec,
    one residual and one block at a time: the residual, divided by a power
    of two, is whitened by the symmetric root cov^{-1/2} of its element (or
    of all), s_b is the squared norm of the block slice, and the gradient of
    a block with k^2_b > 0 is 2 slope root[:, block] z[block].  The
    reference for ``weights.eval_kernel``."""
    d_y = y.shape[-1]
    partition = spec.partition_for(d_y)
    thresholds = spec.thresholds_for(d_y)
    roots = std_cov.inv_sym_sqrt
    k_sq = np.empty((len(y), len(partition)))
    log_grads = np.zeros((len(y), len(partition), d_y))
    for i, residual in enumerate(y - center):
        root = roots if roots.ndim == 2 else roots[i]
        scale = pow2_scale(residual)
        z_scaled = root @ (residual / scale)
        for b, (start, stop) in enumerate(partition):
            s_b = float(z_scaled[start:stop] @ z_scaled[start:stop]) * scale * scale
            k, slope = weigh(spec, s_b, thresholds[b])
            k_sq[i, b] = k
            if k > 0.0:
                log_grads[i, b] = 2.0 * slope * (root[:, start:stop] @ (z_scaled[start:stop] * scale))
    return k_sq, log_grads


def random_spd(rng, d, scale=1.0):
    """Random well-conditioned SPD matrix."""
    a = rng.standard_normal((d, d))
    return scale * (a @ a.T + d * np.eye(d))


# A one-component observation in other forms than a float64 vector, each
# with the float64 vector it stands for (2.1 is not a float32).
OBSERVATION_FORMS = [
    *((y, np.array([2.1])) for y in (2.1, np.float64(2.1), np.array(2.1), [2.1])),
    *((y, np.array([2.0])) for y in (2, [2], np.array([2]))),
    (np.array([2.1], dtype=np.float32), np.array([float(np.float32(2.1))])),
]

_SPECIAL_FLOATS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2e-310, 1e-320])


@st.composite
def float_matrices(draw, rows=(1, 5), cols=(2, 40)):
    """(d, M) float64 arrays whose magnitudes span 1e-300 to 1e300 (a drawn
    sub-range, so that some rows sum without overflow), with subnormals,
    signed zeros, infinities and NaN sprinkled in, laid out C-ordered,
    Fortran-ordered or as a strided view of a larger array."""
    d, m = draw(st.integers(*rows)), draw(st.integers(*cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.integers(-300, 300))
    hi = draw(st.integers(lo, 300))
    x = rng.choice([-1.0, 1.0], (d, m)) * 10.0 ** rng.uniform(lo, hi, (d, m))
    special = rng.random((d, m)) < draw(st.sampled_from([0.0, 0.05, 0.3]))
    x[special] = rng.choice(_SPECIAL_FLOATS, special.sum())
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "strided":
        wide = np.full((2 * d, 3 * m), 7.0)
        wide[::2, ::3] = x
        return wide[::2, ::3]
    return x


# ---------------------------------------------------------------------------
# One matrix's solves by the LAPACK calls themselves: (d,) or (d, n) right-
# hand sides under the C-ordered lower Cholesky factor L of A = L L^T.


def lapack_solve(chol, b):
    """A^{-1} b by LAPACK's ``dpotrs``, which ``scipy.linalg.cho_solve``
    wraps; a non-finite b flows through."""
    x, info = dpotrs(chol, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dpotrs")
    return x


def lapack_whiten(chol, r):
    """L^{-1} r by LAPACK's ``dtrtrs``: L z = r as (L^T)^T z = r, with L^T
    the Fortran-ordered view of the C-ordered factor, the call
    ``scipy.linalg.solve_triangular`` makes for it."""
    z, info = dtrtrs(chol.T, r, lower=0, trans=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dtrtrs failed with info {info}")
    return z


def lapack_solve_by_sweeps(chol, b):
    """A^{-1} b as two ``dtrtrs`` calls on one vector: ``lapack_whiten``
    with L, then with L^T, which with its rows and columns reversed is lower
    triangular (a C-ordered copy), on the reversed vector.  A (d, n) block
    goes column by column, for ``dtrtrs`` on two or more columns is
    ``dtrsm``."""
    if b.ndim == 2:
        return np.stack([lapack_solve_by_sweeps(chol, col) for col in b.T], axis=1)
    flipped = np.ascontiguousarray(chol.T[::-1, ::-1])
    return lapack_whiten(flipped, lapack_whiten(chol, b)[::-1])[::-1]


def lapack_mahalanobis_sq(chol, r):
    """||L^{-1} r||^2 of a (d,) residual, or of each column of a (d, n) one,
    by ``lapack_whiten``; a square that is not finite is redone on the
    residual divided by ``pow2_scale``."""

    def squares(z):
        return float(z @ z) if z.ndim == 1 else np.sum(z * z, axis=0)

    s = squares(lapack_whiten(chol, r))
    if np.isfinite(s).all():
        return s
    scale = pow2_scale(r, axis=0)
    return squares(lapack_whiten(chol, r / scale)) * scale * scale


# ---------------------------------------------------------------------------
# The robust update in information form, and its bounded influence.


def _lapack_inverse(a):
    return lapack_solve(SpdFactor(a).chol, np.eye(a.shape[0]))


def information_form_update(forecast, h, r, w, target):
    """Information-form route to the robust posterior.

    With the weighted precision J_w = W^{1/2} R^{-1} W^{1/2}, W = diag(w):
    P^a = [(P^f)^{-1} + H^T J_w H]^{-1} and
    m^a = m^f - P^a H^T J_w (H m^f - target), against which the library's
    gain-form update is checked.
    """
    root_w = np.sqrt(w)
    weighted_precision = root_w[:, None] * _lapack_inverse(r) * root_w
    forecast_precision = symmetrize(_lapack_inverse(forecast.cov))
    precision = forecast_precision + h.T @ weighted_precision @ h
    p_a = symmetrize(_lapack_inverse(precision))
    mean = forecast.mean - p_a @ (h.T @ (weighted_precision @ (h @ forecast.mean - target)))
    return GaussianBelief(mean=mean, cov=p_a)


def influence_sweep(model, forecast, spec_dsm, spec_wolf, magnitudes):
    """{method: {magnitude: posterior-mean displacement}} of the regular
    ("kf"), score-matching ("dsm") and weighted-likelihood ("wolf") updates
    for the observation H m^f + magnitude * u, with u the leading eigenvector
    of the innovation covariance.  A displacement plateau as the magnitude
    grows is the robustness signature; the regular gain is constant in y, so
    its displacement grows linearly without bound.
    """
    h = model.H
    center = h @ forecast.mean
    eigvals, eigvecs = np.linalg.eigh(symmetrize(model.R + h @ forecast.cov @ h.T))
    direction = eigvecs[:, np.argmax(eigvals)]
    direction = direction / np.linalg.norm(direction)
    shifts = {"kf": {}, "dsm": {}, "wolf": {}}
    for magnitude in magnitudes:
        y0 = center + float(magnitude) * direction
        posteriors = {
            "kf": kf_analysis(model, forecast, y0),
            "dsm": dsm_analysis(model, forecast, y0, spec_dsm).posterior,
            "wolf": wolf_analysis(model, forecast, y0, spec_wolf).posterior,
        }
        for method, post in posteriors.items():
            shifts[method][float(magnitude)] = float(np.linalg.norm(post.mean - forecast.mean))
    return shifts


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
    """Cyclic observation window around a state index, the observations
    within ``half_width`` sites of it by cyclic distance, and those
    distances.  A window at least as wide as the ring holds each
    observation once."""
    offsets = (np.arange(d_y) - state_index) % d_y
    dist = np.minimum(offsets, d_y - offsets)
    idx = np.flatnonzero(dist <= half_width)
    return idx, dist[idx]


def anomaly_posterior_cov(gram, m, rho=1.0):
    """Anomaly-space analysis covariance [(M-1)/rho I + gram]^{-1}."""
    gram = symmetrize(np.asarray(gram, dtype=float))
    eye = np.eye(gram.shape[0])
    return symmetrize(_lapack_inverse((m - 1) / rho * eye + gram))


def solve_anomaly_analysis(y_anom, ninv, innovation, rho=1.0):
    """(cov, mean weights, symmetric transform) of the anomaly-space analysis
    with weighted observation precision ``ninv`` = W^{1/2} R^{-1} W^{1/2} and
    target innovation."""
    m = y_anom.shape[1]
    weighted = ninv @ y_anom
    cov = anomaly_posterior_cov(y_anom.T @ weighted, m, rho)
    mean = cov @ (weighted.T @ innovation)
    if np.linalg.eigvalsh((m - 1) * cov).min() < -1e-10:
        raise np.linalg.LinAlgError("anomaly-space analysis covariance is not PSD")
    transform = psd_sym_sqrt((m - 1) * cov)
    return cov, mean, transform


def _local_analysis(spec, y, y_mean, y_anom, r, rho):
    m = y_anom.shape[1]
    r_factor = SpdFactor(r)
    w, target = robust_update(
        ((spec, slice(None)),), y, y_mean, lambda rows: y_anom @ y_anom.T / (m - 1), r_factor
    )
    root_w = np.sqrt(w)
    ninv = root_w[:, None] * lapack_solve(r_factor.chol, np.eye(r.shape[0])) * root_w
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
    members = np.empty_like(ensemble.members)
    for j in range(ensemble.d_x):
        idx, dist = window_indices(j, y.shape[0], loc.half_width)
        taper = np.exp(-(dist.astype(float) ** 2) / loc.taper_length**2)
        # An observation whose tapered variance R / taper is inf carries no
        # information: it leaves the window, which still counts it for the
        # default threshold.
        with np.errstate(divide="ignore", over="ignore"):
            local_r = r_diag[idx] / taper
        kept = np.isfinite(local_r)
        idx, local_r = idx[kept], local_r[kept]
        _, mean, transform = _local_analysis(
            _resolved(spec, kept.size), y[idx], y_mean[idx], y_anom[idx, :], np.diag(local_r),
            config.rho,
        )
        members[j, :] = ensemble.mean[j] + x_anom[j] @ mean + x_anom[j] @ transform
    return EnsembleState(members=members)


def transform_analysis_full(ensemble, obs, y, spec, config):
    """The batched transform analysis of ``letkf_analysis`` solved in all M
    member coordinates: one stacked ``eigh`` of the (n, M, M) window Grams,
    whose null space holds the ones vector, in place of the library's
    (M - 1)-dimensional zero-sum subspace.  Otherwise the same algebra, step
    for step."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    y_mean = obs.H @ ensemble.mean
    y_anom = obs.H @ ensemble.members - y_mean[:, None]
    innovation = y - y_mean
    loc = config.localization
    if loc is None:
        n_obs = y.shape[0]
        weights = np.ones((1, n_obs))
        d_scale = pow2_scale(innovation)[None]
        y_hat = obs.r_factor.whiten(y_anom.T).T
        f = obs.r_factor.whiten(innovation / d_scale)[None]
    else:
        idx, inside, weights = _tapered_windows(
            ensemble.d_x, y.shape[0], loc.half_width, loc.taper_length
        )
        n_obs = idx.shape[1]
        r_sqrt = np.sqrt(obs.r_diagonal)
        d_scale = pow2_scale(innovation[idx], axis=1)
        f = np.divide(innovation, d_scale[:, None], out=np.zeros(weights.shape), where=inside)
        f /= r_sqrt
        y_hat = y_anom / r_sqrt[:, None]

    n, m = weights.shape[0], y_anom.shape[1]
    outer = np.einsum("im,ik->imk", y_hat, y_hat).reshape(-1, m * m)
    gram_vals, vecs = np.linalg.eigh((weights @ outer).reshape(n, m, m))
    weighted_f = weights * f
    s_scaled = np.vecdot(weighted_f, f)
    rows = np.concatenate(
        ((weighted_f @ y_hat)[:, None, :], ensemble.anomalies.reshape(n, -1, m)), axis=1
    )
    projected = rows @ vecs
    b_scaled, x_proj = projected[:, 0, :], projected[:, 1:, :]
    std_proj = b_scaled
    if spec.standardization != CONDITIONAL:
        solved = b_scaled / ((m - 1) + gram_vals)
        s_scaled = s_scaled - np.vecdot(b_scaled, solved)
        std_proj = (m - 1) * solved
    s = np.maximum(s_scaled, 0.0) * d_scale * d_scale
    k_sq, slope = weigh(spec, s, spec.thresholds_for(n_obs)[0])
    w = 2.0 * k_sq
    slope = np.asarray(slope).reshape(-1, 1)
    target_proj = (w * d_scale)[:, None] * (b_scaled - 2.0 * slope * std_proj)
    a_vals = (m - 1) / config.rho + w[:, None] * gram_vals
    mean_a = ensemble.mean + (x_proj @ (target_proj / a_vals)[:, :, None]).reshape(-1)
    spread = (x_proj * np.sqrt((m - 1) / a_vals)[:, None, :]) @ vecs.swapaxes(1, 2)
    return EnsembleState(members=mean_a[:, None] + spread.reshape(ensemble.members.shape))


def _resolved(spec, n_obs):
    """``spec`` with its threshold resolved against ``n_obs`` observations."""
    return replace(spec, threshold=float(spec.thresholds_for(n_obs)[0]))


# ---------------------------------------------------------------------------
# The Lorenz samplers at other noise levels than the library's: a generator
# scaled by 0 drives a sampler's noise-free map.  The oracles below take the
# noise level as an argument, draw at every level, and multiply the draws by
# it first, so that they match a sampler driven by ``ScaledNormals``.


class ScaledNormals:
    """A generator whose standard normal draws are ``scale`` times those of
    ``rng``."""

    def __init__(self, rng, scale):
        self.rng, self.scale = rng, scale

    def standard_normal(self, size):
        return self.scale * self.rng.standard_normal(size)


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
            forcing = forcing_mean + forcing_std * rng.standard_normal(x.shape)
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
            x = x + sqrt_dt * (noise_scale * rng.standard_normal(x.shape))
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


def simulate_ou_floats(t_end, seed, contamination, noise_scale=1.0):
    """(states, observations, flags) of the OU twin run, stepped in Python floats."""
    a, q, r = 0.7, 1.3, 0.1
    n = int(round(t_end / 0.1))
    rng = np.random.default_rng(seed)
    states = np.empty((1, n + 1))
    states[0, 0] = x = 5.0
    for k in range(1, n + 1):
        x = a * x + noise_scale * np.sqrt(q) * rng.standard_normal()
        states[0, k] = x
    clean = rng.standard_normal((1, n))
    noise, flags = contaminate(clean, contamination, rng)
    return states, np.array([[1.0]]) @ states[:, 1:] + np.array([[np.sqrt(r)]]) @ noise, flags


def simulate_tracking_stepwise(t_end, seed, contamination, noise_scale=1.0):
    """(states, observations, flags) of the constant-velocity tracking twin run."""
    model = tracking_model()
    n = int(round(t_end / 0.1))
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


# ---------------------------------------------------------------------------
# Per-step metrics: one density, one factorization and one diagonal per step.
# Run them under np.errstate: like the library code they copy, a residual too
# large to square overflows on its way to the capped score.

_LOG_2PI = float(np.log(2.0 * np.pi))


def gaussian_log_density_stepwise(truth, mean, cov, diagonalize):
    """Log-density of one step's truth under N(mean, cov)."""
    d = truth.shape[0]
    residual = truth - mean
    if diagonalize:
        diag = np.diag(np.atleast_2d(cov)).copy()
        if np.any(diag < 0.0):
            raise ValueError("diagonalized covariance has negative entries")
        if np.any(diag == 0.0):
            return -np.inf
        return -0.5 * float(
            d * _LOG_2PI + np.sum(np.log(diag)) + np.sum(residual**2 / diag)
        )
    factor = SpdFactor(cov)
    if np.isnan(factor.chol).any():  # no jitter repairs it
        if np.any(np.diag(cov) == 0.0):
            return -np.inf
        raise np.linalg.LinAlgError("covariance is not positive definite")
    maha = lapack_mahalanobis_sq(factor.chol, residual)
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor.chol))))
    return -0.5 * (d * _LOG_2PI + logdet + maha)


def q_ic_series_stepwise(truth, means, covariances, q=0.9, diagonalize=False):
    """Per-step q-IC summands, one step at a time."""
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    means = np.atleast_2d(np.asarray(means, dtype=float))
    covariances = np.asarray(covariances, dtype=float)
    log_densities = np.array([
        gaussian_log_density_stepwise(
            truth[k], means[k], np.atleast_2d(covariances[k]), diagonalize
        )
        for k in range(truth.shape[0])
    ])
    return -_q_log_from_log(log_densities, q)


def ci_coverage_stepwise(truth, means, covariances, level=0.95):
    """Marginal CI coverage with one np.diag per step."""
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    means = np.atleast_2d(np.asarray(means, dtype=float))
    covariances = np.asarray(covariances, dtype=float)
    diags = np.array([np.diag(np.atleast_2d(covariances[k])) for k in range(truth.shape[0])])
    half_width = norm.ppf(0.5 + 0.5 * level) * np.sqrt(np.clip(diags, 0.0, None))
    return float(np.mean(np.abs(truth - means) <= half_width))


# ---------------------------------------------------------------------------
# One replicate: its setup, and its filters in one lock-stepped loop.


def build_setup(config, traj_seed):
    """The ``harness.ModelSetup`` of one replicate, its truth drawn from ``traj_seed``."""
    return harness.build_setups([config], [traj_seed])[0]


def run_filters(setup, configs, rngs):
    """The configs' filters over one replicate's observations in lock-step, each
    drawing from its own generator."""
    return harness._filter_loop(harness._slices(setup, configs, rngs), setup)


# ---------------------------------------------------------------------------
# One filter at a time: the harness loop before a replicate's filters ran in
# lock-step.  Each filter forecasts its own members alone (a sampler call
# with one block) and runs the library's analysis, until the first step that
# raises or whose forecast is non-finite.


def _forecast_alone(sampler, members, rng):
    with np.errstate(over="ignore", invalid="ignore"):
        propagated = sampler([members], [rng])
    if not np.all(np.isfinite(propagated)):
        raise FloatingPointError("forecast produced non-finite members")
    return propagated


def run_filter_alone(setup, config, rng):
    """The ``harness.FilterRun`` of ``config``'s filter over the setup's
    observations, run on its own from the generator ``rng``."""
    analysis, weight = harness._FILTER_TABLE[config.filter]
    spec = harness._weight_spec(config)
    obs, sampler = setup.obs, setup.sampler
    if analysis == "kf":
        model = setup.lgss

        def step(state, y):
            forecast = kf_forecast(model, state[0])
            if weight is None:
                return kf_analysis(model, forecast, y), np.nan
            update = wolf_analysis if weight == "wolf" else dsm_analysis
            result = update(model, forecast, y, spec)
            return result.posterior, result.weight.min() / 2.0

        state = (model.prior, np.nan)

        def moments(s):
            return s[0].mean, s[0].cov, s[1]
    elif analysis == "pf":
        state = ParticleCloud.uniform(harness._initial_members(setup, config.ensemble_size, rng))

        def step(cloud, y):
            propagated = _forecast_alone(sampler, cloud.particles, rng)
            return pf_step(cloud, propagated, y, obs, spec, rng, config.resample_threshold)

        def moments(c):
            return c.weighted_mean(), c.weighted_cov(), np.nan
    else:
        state = EnsembleState(harness._initial_members(setup, config.ensemble_size, rng))
        letkf_cfg = harness._letkf_config(config)

        def step(ensemble, y):
            forecast = EnsembleState(_forecast_alone(sampler, ensemble.members, rng))
            if analysis == "letkf":
                return letkf_analysis(forecast, obs, y, spec, letkf_cfg)
            if analysis == "esrf":
                return esrf_analysis(forecast, obs, y, spec)
            return enkf_perturbed_analysis(forecast, obs, y, spec, mode=config.enkf_mode, rng=rng)

        def moments(e):
            return e.mean, e.cov, np.nan

    ys = setup.record.observations
    n_obs = ys.shape[1]
    mean, cov, _ = moments(state)
    means = np.full((n_obs, *mean.shape), np.nan)
    covs = np.full((n_obs, *cov.shape), np.nan)
    weights = np.full(n_obs, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_obs):
            try:
                state = step(state, ys[:, k])
            except (np.linalg.LinAlgError, FloatingPointError):
                break
            means[k], covs[k], weights[k] = moments(state)
    finite = np.isfinite(means).all(axis=1) & np.isfinite(covs).all(axis=(1, 2))
    if finite.all():
        return harness.FilterRun(means=means, covariances=covs, weights=weights)
    k = int(np.argmin(finite))
    means[k:] = covs[k:] = weights[k:] = np.nan
    return harness.FilterRun(means=means, covariances=covs, weights=weights, divergence_step=k)

"""Property tests for the shared robust-update core over random SPD systems.

Systems have 1 to 6 state and observation dimensions and residuals
|y - H m^f| up to 1e3 per component, or log-uniform from 1e3 to 1e307 for
the scale-safety properties.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_da import (
    EnsembleState,
    GaussianBelief,
    LgssModel,
    dsm_analysis,
    esrf_analysis,
    kf_analysis,
    kf_forecast,
    wolf_analysis,
)
from robust_da.lgss import robust_analysis
from robust_da.weights import CONSTANT, IMQ, SQEXP, WOLF, WeightKernelSpec, robust_update
from helpers import information_form_update, random_spd

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def systems(draw, magnitudes=st.floats(0.0, 1e3), r_exponents=(-2, 2)):
    """(model, forecast, y) with random SPD P^f and R, and y = H m^f + t u for
    a magnitude t drawn from ``magnitudes`` and u uniform on [-1, 1]^d_Y.  R is
    scaled by 10^e, e uniform over ``r_exponents``."""
    d_x = draw(st.integers(1, 6))
    d_y = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    magnitude = draw(magnitudes)
    model = LgssModel(
        A=np.eye(d_x), Q=np.eye(d_x),
        H=rng.standard_normal((d_y, d_x)), R=random_spd(rng, d_y, scale=10.0 ** rng.uniform(*r_exponents)),
        prior=GaussianBelief(mean=np.zeros(d_x), cov=np.eye(d_x)),
    )
    forecast = GaussianBelief(
        mean=rng.standard_normal(d_x) * 3.0,
        cov=random_spd(rng, d_x, scale=10.0 ** rng.uniform(-2, 2)),
    )
    direction = rng.uniform(-1.0, 1.0, d_y)
    y = model.H @ forecast.mean + magnitude * direction
    return model, forecast, y


ROBUST_SPECS = [
    WeightKernelSpec(family=IMQ),
    WeightKernelSpec(family=IMQ, standardization="conditional"),
    WeightKernelSpec(family=SQEXP, threshold=4.0),
    WeightKernelSpec(family=WOLF, standardization="conditional"),
    WeightKernelSpec(family=WOLF, standardization="marginal"),
]


def analyse(model, forecast, y, spec):
    update = wolf_analysis if spec.family == WOLF else dsm_analysis
    return update(model, forecast, y, spec)


def assert_close_relative(actual, expected, rtol):
    """Entry-wise agreement within rtol of the largest entry of ``expected``."""
    scale = max(np.abs(expected).max(), np.finfo(float).tiny)
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=rtol * scale)


@PROPERTY_SETTINGS
@given(systems(), st.sampled_from(["marginal", "conditional"]))
def test_constant_kernel_is_the_kalman_filter_bit_for_bit(system, standardization):
    model, forecast, y = system
    spec = WeightKernelSpec(family=CONSTANT, standardization=standardization)
    h = model.H
    w, target = robust_update(
        ((spec, slice(None)),), y, h @ forecast.mean, lambda rows: h @ forecast.cov @ h.T,
        model.observation.r_factor,
    )
    np.testing.assert_array_equal(w, np.ones_like(y))
    np.testing.assert_array_equal(target, y)

    robust = dsm_analysis(model, forecast, y, spec).posterior
    regular = kf_analysis(model, forecast, y)
    np.testing.assert_array_equal(robust.mean, regular.mean)
    np.testing.assert_array_equal(robust.cov, regular.cov)


@PROPERTY_SETTINGS
@given(systems(), st.sampled_from(ROBUST_SPECS))
def test_gain_form_equals_information_form(system, spec):
    model, forecast, y = system
    result = analyse(model, forecast, y, spec)
    # One weight w = 2 k^2 over the single block, WoLF's r^2 included.
    np.testing.assert_array_equal(result.weight, np.full_like(y, result.weight[0]))
    info = information_form_update(forecast, model.H, model.R, result.weight, result.target)
    assert_close_relative(result.posterior.mean, info.mean, rtol=1e-9)
    assert_close_relative(result.posterior.cov, info.cov, rtol=1e-9)


@st.composite
def ensembles(draw):
    """(model, ensemble, y): a system from ``systems`` with 3 to 12 members
    drawn from its forecast."""
    model, forecast, y = draw(systems())
    m = draw(st.integers(3, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = rng.standard_normal((model.d_x, m))
    members = forecast.mean[:, None] + np.linalg.cholesky(forecast.cov) @ noise
    return model, EnsembleState(members=members), y


@PROPERTY_SETTINGS
@given(ensembles(), st.sampled_from([*ROBUST_SPECS, WeightKernelSpec(family=CONSTANT)]))
def test_esrf_is_the_closed_form_analysis_at_the_ensemble_moments(system, spec):
    # The ESRF's second moment is exact for any ensemble size: its analysis
    # mean and covariance are the closed-form analysis of the ensemble's own
    # mean and covariance, rank-deficient ones (M - 1 < d_X) included.
    model, ensemble, y = system
    updated = esrf_analysis(ensemble, model.observation, y, spec)
    forecast = GaussianBelief(mean=ensemble.mean, cov=ensemble.cov)
    closed = analyse(model, forecast, y, spec).posterior
    assert_close_relative(updated.mean, closed.mean, rtol=1e-8)
    assert_close_relative(updated.cov, closed.cov, rtol=1e-8)


def influence_supremum(model, forecast, spec):
    """Analytic bound on the posterior-mean shift of a single-block robust
    analysis, over every observation.

    With d = y - H m^f, s = d^T Sigma^{-1} d and Sigma >= R the standardizing
    covariance, the shift is K (d - R grad log k^2) with
    K = w P H^T L^{-T} (I + w L^{-1} H P H^T L^{-T})^{-1} L^{-1}, L L^T = R,
    and grad log k^2 = 2 (d log k^2/ds) Sigma^{-1} d.  So
    |shift| <= |P H^T L^{-T}| w(s) sqrt(s) (c + 2 |d log k^2/ds|) with
    c = |L^{-1} Sigma^{1/2}|, using |L^T Sigma^{-1/2}| <= 1.  The supremum over
    s is taken on a fine grid, with the kernels written out here.
    """
    h, r = model.H, model.R
    l_inv = np.linalg.inv(np.linalg.cholesky(r))
    sigma = r if spec.standardization == "conditional" else h @ forecast.cov @ h.T + r
    c = np.sqrt(np.linalg.eigvalsh(l_inv @ sigma @ l_inv.T).max())
    gain_norm = np.linalg.norm(forecast.cov @ h.T @ l_inv.T, 2)
    s = np.logspace(-8, 12, 20001)
    d_y = h.shape[0]
    if spec.family == WOLF:
        c_sq = spec.threshold or d_y
        w, slope = (1.0 if spec.standardization == "conditional" else 2.0) / (1.0 + s / c_sq), 0.0
    elif spec.family == IMQ:
        q_sq = spec.threshold or d_y
        w, slope = 2.0 / (1.0 + s / q_sq), 1.0 / (q_sq + s)
    else:
        w, slope = 2.0 * np.exp(-s / spec.threshold), 1.0 / spec.threshold
    return 1.01 * gain_norm * np.max(w * np.sqrt(s) * (c + 2.0 * slope))


@PROPERTY_SETTINGS
@given(
    systems(st.floats(3.0, 307.0).map(lambda e: 10.0**e), r_exponents=(-12, 2)),
    st.sampled_from([*ROBUST_SPECS, WeightKernelSpec(family=CONSTANT)]),
)
def test_robust_analysis_is_scale_safe(system, spec):
    # Bounded influence in floating point: however large the outlier, the
    # analysis raises nothing, its posterior is finite and PSD, and its mean
    # moves no further than the analytic supremum of the influence; a weight
    # that underflows to 0 returns the forecast itself.
    model, forecast, y = system
    result = analyse(model, forecast, y, spec)
    posterior = result.posterior
    if spec == WeightKernelSpec(family=CONSTANT):
        regular = kf_analysis(model, forecast, y)
        np.testing.assert_array_equal(posterior.mean, regular.mean)
        np.testing.assert_array_equal(posterior.cov, regular.cov)
        return
    assert np.all(np.isfinite(posterior.mean)) and np.all(np.isfinite(posterior.cov))
    eigs = np.linalg.eigvalsh(posterior.cov)
    assert eigs.min() >= -1e-10 * np.abs(eigs).max()
    if np.all(result.weight == 0.0):
        np.testing.assert_array_equal(posterior.mean, forecast.mean)
        np.testing.assert_array_equal(posterior.cov, forecast.cov)
    shift = np.linalg.norm(posterior.mean - forecast.mean)
    assert shift <= influence_supremum(model, forecast, spec)


def test_outlier_too_large_to_square_gets_zero_weight():
    # Both components near 1e154: the whitened residual's square overflows.
    # The weight is 0 and the posterior is the forecast, where a quadratic
    # form that cancelled to -inf once read s = 0 and full weight.
    model = LgssModel(
        A=np.eye(1), Q=np.eye(1), H=[[1.0], [1.0]], R=0.1 * np.eye(2),
        prior=GaussianBelief(mean=np.zeros(1), cov=np.eye(1)),
    )
    y = np.array([1e154, 2e154])
    result = dsm_analysis(model, model.prior, y, WeightKernelSpec(family=IMQ))
    np.testing.assert_array_equal(result.weight, [0.0, 0.0])
    np.testing.assert_array_equal(result.posterior.mean, model.prior.mean)
    np.testing.assert_array_equal(result.posterior.cov, model.prior.cov)


@pytest.mark.parametrize(
    "spec",
    [
        WeightKernelSpec(family=IMQ, standardization="conditional"),
        WeightKernelSpec(family=SQEXP, threshold=4.0, standardization="conditional"),
        WeightKernelSpec(family=IMQ, standardization="conditional", block_partition=((0, 1), (1, 2))),
        WeightKernelSpec(family=IMQ, block_partition=((0, 1), (1, 2))),
    ],
    ids=["imq", "sqexp", "imq_two_blocks", "imq_two_blocks_marginal"],
)
@pytest.mark.parametrize("y_size, r_scale", [(1e300, 1e-10), (1e307, 1e-2), (1e307, 1e-10)])
def test_outlier_whose_solve_overflows_gets_zero_weight(spec, y_size, r_scale):
    # Whitening or solving with the residual overflows, so s could read NaN
    # or the log-weight gradient inf beside a weight of 0.  The weight is 0,
    # the target y and the posterior the forecast.
    model = LgssModel(
        A=np.eye(1), Q=np.eye(1), H=[[1.0], [1.0]], R=r_scale * np.eye(2),
        prior=GaussianBelief(mean=np.zeros(1), cov=np.eye(1)),
    )
    y = np.array([y_size, y_size])
    result = dsm_analysis(model, model.prior, y, spec)
    np.testing.assert_array_equal(result.weight, [0.0, 0.0])
    np.testing.assert_array_equal(result.target, y)
    np.testing.assert_array_equal(result.posterior.mean, model.prior.mean)
    np.testing.assert_array_equal(result.posterior.cov, model.prior.cov)


def test_robust_analysis_takes_stacks_only():
    # A single forecast is the single-belief step's, which runs it as a stack
    # of one; the stacked step refuses a 1-D mean instead of guessing.
    model = LgssModel(A=[[1.0]], Q=[[1.0]], H=[[1.0]], R=[[1.0]],
                      prior=GaussianBelief(mean=[0.0], cov=[[1.0]]))
    forecast = model.prior
    with pytest.raises(ValueError, match=r"^expected a stack of forecasts, got a mean of shape \(1,\)$"):
        robust_analysis(model, forecast.mean, forecast.cov, np.ones(1),
                        ((WeightKernelSpec(), slice(None)),))


@st.composite
def stacked_systems(draw):
    """(model, means, covs, ys, specs, broken): 1 to 6 forecasts and
    observations of one random system, each with its weight spec, the
    elements of a spec next to each other as ``lgss.robust_analysis`` takes
    them.  When d_Y >= 2, R may be made block-diagonal over two blocks, and
    the two-block DSM kernel over them is then one of the specs.  ``broken``
    is None or an element weighted by a single-block spec standardized by
    HPH^T + R, whose forecast covariance is made negative definite so that
    no jitter repairs that matrix."""
    model, _, _ = draw(systems())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = [*ROBUST_SPECS, WeightKernelSpec(family=CONSTANT)]
    if model.d_y >= 2 and draw(st.booleans()):
        split = draw(st.integers(1, model.d_y - 1))
        r = model.R.copy()
        r[:split, split:] = r[split:, :split] = 0.0
        model = LgssModel(A=model.A, Q=model.Q, H=model.H, R=r, prior=model.prior)
        pool.append(WeightKernelSpec(family=IMQ, block_partition=((0, split), (split, model.d_y))))
    b = draw(st.integers(1, 6))
    specs = [pool[i] for i in sorted(
        draw(st.lists(st.integers(0, len(pool) - 1), min_size=b, max_size=b))
    )]
    means = rng.standard_normal((b, model.d_x)) * 3.0
    covs = np.stack([random_spd(rng, model.d_x, scale=10.0 ** rng.uniform(-2, 2)) for _ in range(b)])
    ys = (model.H @ means[..., None])[..., 0] + 10.0 ** rng.uniform(-1, 3) * rng.uniform(
        -1.0, 1.0, (b, model.d_y)
    )
    marginal = [
        i for i, spec in enumerate(specs)
        if spec in ROBUST_SPECS and spec.standardization == "marginal"
    ]
    broken = draw(st.sampled_from([None, *marginal]))
    if broken is not None:
        # H P^f H^T + R = c H H^T + R with c < -lambda_max(R) / sigma_max(H)^2.
        c = 10.0 * (np.linalg.eigvalsh(model.R)[-1] + 1.0) / np.linalg.norm(model.H, 2) ** 2
        covs[broken] = -(c + 1.0) * np.eye(model.d_x)  # the forecast adds Q = I
    return model, means, covs, ys, specs, broken


@PROPERTY_SETTINGS
@given(stacked_systems())
def test_stacked_closed_form_step_is_each_elements_step_bit_for_bit(system):
    # One stacked forecast and robust analysis, each element weighted by its
    # own spec, give every element's batch-of-one step bit for bit; the
    # constant kernel inside the mixed stack is the Kalman filter.  An element
    # whose HPH^T + R cannot be factored gets NaN, and no other element moves.
    model, means, covs, ys, specs, broken = system
    forecast = kf_forecast(model, GaussianBelief(mean=means, cov=covs))
    rows = [(spec, slice(specs.index(spec), len(specs) - specs[::-1].index(spec)))
            for spec in dict.fromkeys(specs)]
    mean, cov, w, target = robust_analysis(model, forecast.mean, forecast.cov, ys, rows)
    posterior = GaussianBelief(mean=mean, cov=cov)
    if broken is not None:
        assert np.isnan(w[broken]).all() and np.isnan(posterior.mean[broken]).all()
        assert np.isnan(posterior.cov[broken]).all()
    for i, spec in enumerate(specs):
        alone = kf_forecast(model, GaussianBelief(mean=means[i], cov=covs[i]))
        np.testing.assert_array_equal(forecast.mean[i], alone.mean)
        np.testing.assert_array_equal(forecast.cov[i], alone.cov)
        if spec == WeightKernelSpec(family=CONSTANT):
            regular = kf_analysis(model, alone, ys[i])
            np.testing.assert_array_equal(posterior.mean[i], regular.mean)
            np.testing.assert_array_equal(posterior.cov[i], regular.cov)
            np.testing.assert_array_equal(w[i], np.ones(model.d_y))
            continue
        result = analyse(model, alone, ys[i], spec)
        np.testing.assert_array_equal(posterior.mean[i], result.posterior.mean)
        np.testing.assert_array_equal(posterior.cov[i], result.posterior.cov)
        np.testing.assert_array_equal(w[i], result.weight)
        np.testing.assert_array_equal(target[i], result.target)

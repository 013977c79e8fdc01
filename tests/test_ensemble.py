import numpy as np
import pytest

from robust_da import (
    EnsembleState,
    GaussianBelief,
    LetkfConfig,
    Localization,
    LgssModel,
    ObservationModel,
    WolfSpec,
    dsm_analysis,
    enkf_perturbed_analysis,
    ensemble_forecast,
    esrf_analysis,
    kf_analysis,
    kf_forecast,
    letkf_analysis,
    wolf_analysis,
)
from robust_da.ensemble import _window_indices
from robust_da.models import lgss_sampler, lorenz63_drift, lorenz63_sampler
from robust_da.weights import CONSTANT, IMQ, SQEXP, WeightKernelSpec
from helpers import (
    WINDOW_SQUARE_OVERFLOWS,
    anomaly_posterior_cov,
    letkf_analysis_looped,
    random_spd,
    solve_anomaly_analysis,
)


def scalar_model(r=1.0):
    return LgssModel(
        A=[[0.7]], Q=[[1.3]], H=[[1.0]], R=[[r]],
        prior=GaussianBelief(mean=[0.0], cov=[[1.0]]),
    )


def make_model(rng, d_x, d_y):
    return LgssModel(
        A=np.eye(d_x), Q=np.eye(d_x),
        H=rng.standard_normal((d_y, d_x)), R=random_spd(rng, d_y),
        prior=GaussianBelief(mean=np.zeros(d_x), cov=np.eye(d_x)),
    )


# ---------------------------------------------------------------------------
# EnsembleState and forecasting


def test_anomalies_sum_to_zero():
    rng = np.random.default_rng(0)
    ens = EnsembleState(members=rng.standard_normal((4, 17)))
    col_sum = ens.anomalies.sum(axis=1)
    assert np.linalg.norm(col_sum) <= 1e-10 * ens.size * (1 + np.linalg.norm(ens.mean))
    eigs = np.linalg.eigvalsh(ens.cov)
    assert eigs.min() >= -1e-12


def test_forecast_identity_zero_noise():
    members = np.arange(12.0).reshape(3, 4)
    ens = EnsembleState(members=members)

    def identity(m, rng):
        return m

    out = ensemble_forecast(identity, ens, np.random.default_rng(0))
    assert np.array_equal(out.members, members)


def test_forecast_lgss_monte_carlo_consistency():
    rng = np.random.default_rng(1)
    model = scalar_model()
    m = 100_000
    members = model.prior.mean[:, None] + np.sqrt(model.prior.cov[0, 0]) * rng.standard_normal(
        (1, m)
    )
    out = ensemble_forecast(lgss_sampler(model), EnsembleState(members=members), rng)
    exact = kf_forecast(model, model.prior)
    se_mean = np.sqrt(exact.cov[0, 0] / m)
    assert abs(out.mean[0] - exact.mean[0]) <= 3 * se_mean
    se_var = exact.cov[0, 0] * np.sqrt(2.0 / m)
    assert abs(out.cov[0, 0] - exact.cov[0, 0]) <= 3 * se_var


def test_forecast_lorenz63_deterministic_euler_step():
    x0 = np.array([-0.587, -0.563, 16.87])
    sampler = lorenz63_sampler(dt=0.001, n_steps=1, noise_scale=0.0)
    out = sampler(x0[:, None], np.random.default_rng(0))[:, 0]
    expected = x0 + 0.001 * lorenz63_drift(x0)
    assert np.allclose(out, expected, rtol=1e-14)
    assert out[0] == pytest.approx(-0.58676, abs=1e-12)
    # Origin is a fixed point of the drift.
    origin = np.zeros((3, 1))
    assert np.array_equal(sampler(origin, np.random.default_rng(0)), origin)


def test_forecast_detects_blowup():
    ens = EnsembleState(members=np.ones((2, 3)))

    def explode(m, rng):
        return m * np.inf

    with pytest.raises(FloatingPointError):
        ensemble_forecast(explode, ens, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Stochastic EnKF with perturbed observations


def test_constant_kernel_is_textbook_perturbed_enkf():
    rng = np.random.default_rng(2)
    model = make_model(rng, 3, 2)
    members = rng.standard_normal((3, 40))
    y = rng.standard_normal(2)
    seed = 1234

    ens = EnsembleState(members=members.copy())
    spec = WeightKernelSpec(family=CONSTANT)
    updated = enkf_perturbed_analysis(
        ens, model.observation, y, spec, rng=np.random.default_rng(seed)
    )

    # Textbook update with the same draw sequence.
    rng2 = np.random.default_rng(seed)
    p_f = np.cov(members, ddof=1)
    gain = p_f @ model.H.T @ np.linalg.inv(model.R + model.H @ p_f @ model.H.T)
    noise = np.linalg.cholesky(model.R) @ rng2.standard_normal((2, 40))
    expected = members - gain @ (model.H @ members + noise - y[:, None])
    assert np.allclose(updated.members, expected, rtol=1e-12, atol=1e-12)


def test_frozen_gain_matches_closed_form_at_large_m():
    rng = np.random.default_rng(3)
    model = scalar_model()
    forecast = GaussianBelief(mean=[0.3], cov=[[1.7]])
    y = np.array([2.5])
    spec = WeightKernelSpec(family=IMQ, threshold=1.0)
    target = dsm_analysis(model, forecast, y, spec).posterior

    # Members standardized to the forecast's mean and variance freeze the
    # gain and weight at the closed form's.
    m = 100_000
    draws = rng.standard_normal((1, m))
    draws -= draws.mean()
    members = forecast.mean[:, None] + np.sqrt(forecast.cov[0, 0]) * draws / draws.std(ddof=1)
    updated = enkf_perturbed_analysis(
        EnsembleState(members=members), model.observation, y, spec, rng=rng
    )
    se_mean = np.sqrt(target.cov[0, 0] / m) * 3.0
    # The ensemble mean has extra spread from the perturbed observations; use
    # a conservative multiple of the posterior sd.
    assert abs(updated.mean[0] - target.mean[0]) <= 5 * se_mean
    se_var = target.cov[0, 0] * np.sqrt(2.0 / m) * 5.0
    assert abs(updated.cov[0, 0] - target.cov[0, 0]) <= se_var


def test_degenerate_two_member_ensemble_runs():
    rng = np.random.default_rng(5)
    model = make_model(rng, 3, 2)
    base = rng.standard_normal(3)
    members = np.stack([base + 0.1, base - 0.1], axis=1)  # collinear anomalies
    updated = enkf_perturbed_analysis(
        EnsembleState(members=members), model.observation, rng.standard_normal(2),
        WeightKernelSpec(family=IMQ, threshold=2.0), rng=np.random.default_rng(0),
    )
    eigs = np.linalg.eigvalsh(updated.cov)
    assert eigs[:-1].max() <= 1e-12 * max(eigs.max(), 1.0)  # rank <= 1


def test_per_particle_mode_runs_and_tracks():
    rng = np.random.default_rng(6)
    model = scalar_model(r=0.5)
    members = 0.4 + rng.standard_normal((1, 4000))
    updated = enkf_perturbed_analysis(
        EnsembleState(members=members), model.observation, np.array([1.0]),
        WeightKernelSpec(family=IMQ, threshold=1e12, standardization="conditional"),
        mode="per_particle", rng=rng,
    )
    # Near-unit weights reduce to the regular EnKF: compare to the exact
    # Kalman posterior built from the empirical forecast within MC error.
    forecast = GaussianBelief(mean=[float(np.mean(members))], cov=[[float(np.var(members, ddof=1))]])
    exact = kf_analysis(model, forecast, [1.0])
    assert abs(updated.mean[0] - exact.mean[0]) <= 5 * np.sqrt(exact.cov[0, 0] / 4000) * 3


def test_enkf_deterministic_under_seed():
    rng = np.random.default_rng(7)
    model = make_model(rng, 2, 2)
    members = rng.standard_normal((2, 10))
    y = rng.standard_normal(2)
    spec = WeightKernelSpec(family=IMQ, threshold=2.0)
    a = enkf_perturbed_analysis(
        EnsembleState(members=members), model.observation, y, spec,
        rng=np.random.default_rng(99),
    )
    b = enkf_perturbed_analysis(
        EnsembleState(members=members), model.observation, y, spec,
        rng=np.random.default_rng(99),
    )
    assert np.array_equal(a.members, b.members)


# ---------------------------------------------------------------------------
# Deterministic square-root filter


@pytest.mark.parametrize("m", [3, 10, 50])
def test_esrf_second_moment_exactness(m):
    rng = np.random.default_rng(8)
    model = make_model(rng, 3, 2)
    members = rng.standard_normal((3, m)) * 1.5
    ens = EnsembleState(members=members)
    spec = WeightKernelSpec(family=IMQ, threshold=2.0)
    y = rng.standard_normal(2) * 2.0
    updated = esrf_analysis(ens, model.observation, y, spec)

    forecast = GaussianBelief(mean=ens.mean, cov=ens.cov)
    closed = dsm_analysis(model, forecast, y, spec).posterior
    rel_cov = np.linalg.norm(updated.cov - closed.cov) / np.linalg.norm(closed.cov)
    assert rel_cov <= 1e-8
    assert np.allclose(updated.mean, closed.mean, rtol=1e-8, atol=1e-10)


def test_esrf_anomalies_stay_centered():
    rng = np.random.default_rng(9)
    model = make_model(rng, 3, 2)
    ens = EnsembleState(members=rng.standard_normal((3, 12)))
    updated = esrf_analysis(
        ens, model.observation, rng.standard_normal(2),
        WeightKernelSpec(family=IMQ, threshold=1.0),
    )
    col_sum = updated.anomalies.sum(axis=1)
    assert np.linalg.norm(col_sum) <= 1e-9


def test_esrf_constant_kernel_is_textbook_esrf():
    rng = np.random.default_rng(10)
    model = make_model(rng, 2, 2)
    members = rng.standard_normal((2, 15))
    y = rng.standard_normal(2)
    ens = EnsembleState(members=members)
    updated = esrf_analysis(ens, model.observation, y, WeightKernelSpec(family=CONSTANT))

    # Textbook ESRF with observation covariance R.
    x_anom = members - members.mean(axis=1, keepdims=True)
    p_f = x_anom @ x_anom.T / 14
    s_mat = model.R + model.H @ p_f @ model.H.T
    gain = p_f @ model.H.T @ np.linalg.inv(s_mat)
    hx = model.H @ x_anom
    core = np.eye(15) - hx.T @ np.linalg.inv(s_mat) @ hx / 14
    eigvals, eigvecs = np.linalg.eigh(core)
    transform = (eigvecs * np.sqrt(np.clip(eigvals, 0, None))) @ eigvecs.T
    mean_a = members.mean(axis=1) - gain @ (model.H @ members.mean(axis=1) - y)
    expected = mean_a[:, None] + x_anom @ transform
    assert np.allclose(updated.members, expected, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# LETKF


def test_anomaly_posterior_cov_examples():
    gram = np.zeros((5, 5))
    out = anomaly_posterior_cov(gram, m=5, rho=1.06)
    assert np.allclose(out, 1.06 / 4.0 * np.eye(5))
    rng = np.random.default_rng(11)
    gram = random_spd(rng, 5)
    base = anomaly_posterior_cov(gram, m=5, rho=1.0)
    inflated = anomaly_posterior_cov(gram, m=5, rho=1.5)
    eigs = np.linalg.eigvalsh(inflated - base)
    assert eigs.min() >= -1e-12


def test_window_indices_lorenz96_geometry():
    windows, dist = _window_indices(40, 40, 19)
    assert windows.shape == (40, 39)
    idx = windows[0]
    assert idx.size == 39
    assert dist.max() == 19
    assert 20 not in ((idx - 0) % 40)  # the antipode is excluded
    idx5 = windows[5]
    assert set((idx5 - 5) % 40) == set(np.arange(-19, 20) % 40)


LETKF_SPECS = {
    "regular": WeightKernelSpec(family=CONSTANT),
    "dsm": WeightKernelSpec(family=IMQ, standardization="obs_anomaly"),
    "wolf": WolfSpec(variant="md"),
    "conditional": WeightKernelSpec(family=IMQ, standardization="conditional"),
}


@pytest.mark.parametrize("variant", ["regular", "dsm", "wolf", "conditional"])
def test_letkf_full_rank_matches_closed_form(variant):
    rng = np.random.default_rng(12)
    d_x, d_y, m = 3, 2, 8
    model = make_model(rng, d_x, d_y)
    members = rng.standard_normal((d_x, m)) * 1.3
    ens = EnsembleState(members=members)
    y = rng.standard_normal(d_y) * 2.0
    config = LetkfConfig(rho=1.0)
    updated = letkf_analysis(ens, model.observation, y, LETKF_SPECS[variant], config)

    forecast = GaussianBelief(mean=ens.mean, cov=ens.cov)
    if variant == "regular":
        closed = kf_analysis(model, forecast, y)
    elif variant == "dsm":
        closed = dsm_analysis(
            model, forecast, y, WeightKernelSpec(family=IMQ, threshold=float(d_y))
        ).posterior
    elif variant == "conditional":
        closed = dsm_analysis(
            model, forecast, y,
            WeightKernelSpec(family=IMQ, threshold=float(d_y), standardization="conditional"),
        ).posterior
    else:
        closed = wolf_analysis(
            model, forecast, y, WolfSpec(variant="md", c_sq=float(d_y))
        ).posterior
    assert np.allclose(updated.mean, closed.mean, rtol=1e-8, atol=1e-9)
    rel = np.linalg.norm(updated.cov - closed.cov) / np.linalg.norm(closed.cov)
    assert rel <= 1e-8


def test_letkf_constant_kernel_collapses_to_regular():
    # The regular transform built by hand: N^{-1} = R^{-1}, innovation y - H m.
    rng = np.random.default_rng(13)
    model = make_model(rng, 3, 3)
    ens = EnsembleState(members=rng.standard_normal((3, 6)))
    y = rng.standard_normal(3)
    _, mean, transform = solve_anomaly_analysis(
        model.H @ ens.anomalies, np.linalg.inv(model.R), y - model.H @ ens.mean
    )
    regular = (ens.mean + ens.anomalies @ mean)[:, None] + ens.anomalies @ transform
    constant = letkf_analysis(
        ens, model.observation, y, WeightKernelSpec(family=CONSTANT), LetkfConfig()
    )
    assert np.allclose(regular, constant.members, rtol=1e-12, atol=1e-12)


def test_letkf_inflation_widens_analysis():
    rng = np.random.default_rng(14)
    model = make_model(rng, 3, 3)
    ens = EnsembleState(members=rng.standard_normal((3, 10)))
    y = rng.standard_normal(3)
    regular = WeightKernelSpec(family=CONSTANT)
    base = letkf_analysis(ens, model.observation, y, regular, LetkfConfig(rho=1.0))
    inflated = letkf_analysis(ens, model.observation, y, regular, LetkfConfig(rho=1.5))
    assert np.trace(inflated.cov) > np.trace(base.cov)


def test_letkf_localized_matches_manual_single_window():
    # 8-site ring, half-width 2: the local analysis for site 0 must equal a
    # hand-built anomaly-space solve over its 5-observation window.
    rng = np.random.default_rng(15)
    d, m, hw, taper_l = 8, 4, 2, 1.7
    members = rng.standard_normal((d, m)) * 1.2
    ens = EnsembleState(members=members)
    y = rng.standard_normal(d)
    config = LetkfConfig(
        rho=1.06, localization=Localization(half_width=hw, taper_length=taper_l)
    )
    updated = letkf_analysis(
        ens, ObservationModel(H=np.eye(d), R=np.eye(d)), y, WeightKernelSpec(family=CONSTANT),
        config,
    )

    idx = np.array([-2, -1, 0, 1, 2]) % d
    dist = np.array([2.0, 1.0, 0.0, 1.0, 2.0])
    taper = np.exp(-(dist**2) / taper_l**2)
    x_anom = ens.anomalies
    y_anom = x_anom[idx, :]
    ninv = np.diag(taper)  # R = I tapered
    cov = np.linalg.inv((m - 1) / 1.06 * np.eye(m) + y_anom.T @ ninv @ y_anom)
    v_mean = cov @ y_anom.T @ ninv @ (y[idx] - ens.mean[idx])
    eigvals, eigvecs = np.linalg.eigh((m - 1) * cov)
    transform = (eigvecs * np.sqrt(np.clip(eigvals, 0, None))) @ eigvecs.T
    expected_row = ens.mean[0] + x_anom[0] @ v_mean + x_anom[0] @ transform
    assert np.allclose(updated.members[0, :], expected_row, rtol=1e-10, atol=1e-10)


def test_letkf_localization_requires_diagonal_r():
    rng = np.random.default_rng(16)
    ens = EnsembleState(members=rng.standard_normal((4, 3)))
    r = np.eye(4)
    r[0, 1] = r[1, 0] = 0.3
    config = LetkfConfig(localization=Localization(half_width=1, taper_length=1.0))
    with pytest.raises(ValueError):
        letkf_analysis(
            ens, ObservationModel(H=np.eye(4), R=r), rng.standard_normal(4),
            WeightKernelSpec(family=CONSTANT), config,
        )


def test_letkf_localized_default_threshold_is_window_size():
    # Half-width 19 on a 40-ring gives 39 local observations; the default
    # IMQ threshold must equal that window size.
    rng = np.random.default_rng(18)
    ens = EnsembleState(members=8.0 + rng.standard_normal((40, 6)))
    y = 8.0 + rng.standard_normal(40) * 2.0
    loc = Localization(half_width=19, taper_length=5.45)
    config = LetkfConfig(rho=1.06, localization=loc)
    obs = ObservationModel(H=np.eye(40), R=np.eye(40))
    implicit = letkf_analysis(
        ens, obs, y, WeightKernelSpec(family=IMQ, standardization="obs_anomaly"), config
    )
    explicit = letkf_analysis(
        ens, obs, y,
        WeightKernelSpec(family=IMQ, threshold=39.0, standardization="obs_anomaly"), config,
    )
    assert np.array_equal(implicit.members, explicit.members)


ORACLE_SPECS = {
    "constant": WeightKernelSpec(family=CONSTANT),
    "imq_obs_anomaly": WeightKernelSpec(family=IMQ, standardization="obs_anomaly"),
    "sqexp_obs_anomaly": WeightKernelSpec(family=SQEXP, standardization="obs_anomaly"),
    "imq_conditional": WeightKernelSpec(family=IMQ, standardization="conditional"),
    "wolf_md": WolfSpec(variant="md"),
    "wolf_sigma_scaled": WolfSpec(variant="sigma_scaled"),
}

ORACLE_CASES = {
    # 40-ring, half-width 19: the Lorenz-96 desk geometry.
    "ring40_hw19": (40, 10, Localization(half_width=19, taper_length=5.45)),
    # 8-ring, half-width 2: 5-observation windows, fewer than the 6 members.
    "ring8_hw2": (8, 6, Localization(half_width=2, taper_length=1.7)),
    # One window over every observation, with a non-diagonal R.
    "global": (5, 7, None),
}


def _relative_error(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("case", list(ORACLE_CASES))
@pytest.mark.parametrize("spec_name", list(ORACLE_SPECS))
def test_letkf_batched_matches_looped_oracle(spec_name, case):
    d, m, loc = ORACLE_CASES[case]
    spec = ORACLE_SPECS[spec_name]
    rng = np.random.default_rng(19)
    ens = EnsembleState(members=rng.standard_normal((d, m)) * 1.3 + 2.0)
    y = ens.mean + rng.standard_normal(d) * 1.5
    y[1] += 40.0  # an outlier observation
    if loc is None:
        obs = ObservationModel(H=rng.standard_normal((d, d)), R=random_spd(rng, d, scale=0.3))
    else:
        obs = ObservationModel(H=np.eye(d), R=np.diag(rng.uniform(0.5, 2.0, d)))
    config = LetkfConfig(rho=1.06, localization=loc)

    batched = letkf_analysis(ens, obs, y, spec, config)
    looped = letkf_analysis_looped(ens, obs, y, spec, config)
    assert _relative_error(batched.members, looped.members) <= 1e-10
    assert _relative_error(batched.mean, looped.mean) <= 1e-10
    assert _relative_error(batched.cov, looped.cov) <= 1e-10


def test_letkf_rejects_a_block_partition():
    # So does the ESRF, the LETKF's single global window.
    rng = np.random.default_rng(20)
    ens = EnsembleState(members=rng.standard_normal((4, 5)))
    spec = WeightKernelSpec(family=IMQ, threshold=1.0, block_partition=((0, 2), (2, 4)))
    for loc in (None, Localization(half_width=1, taper_length=1.0)):
        with pytest.raises(ValueError):
            letkf_analysis(
                ens, ObservationModel(H=np.eye(4), R=np.eye(4)), rng.standard_normal(4), spec,
                LetkfConfig(localization=loc),
            )
    with pytest.raises(ValueError):
        esrf_analysis(
            ens, ObservationModel(H=np.eye(4), R=np.eye(4)), rng.standard_normal(4), spec
        )


@WINDOW_SQUARE_OVERFLOWS
@pytest.mark.parametrize("spec_name", ["dsm", "wolf", "conditional"])
def test_letkf_outlier_whose_projection_overflows_keeps_the_forecast(spec_name):
    # Y^T R^{-1} (y - H m) overflows beside a weight of 0, and at 1.7e308 so
    # would R^{-1/2} (y - H m) with this R < 1: the analysis keeps the
    # forecast members (up to the round-off of the identity transform), in
    # the global window and in local windows that each hold the outlier.
    rng = np.random.default_rng(21)
    ens = EnsembleState(members=rng.standard_normal((3, 6)) * 2.0)
    obs = ObservationModel(H=np.eye(3), R=1e-2 * np.eye(3))
    localized = LetkfConfig(localization=Localization(half_width=1, taper_length=2.0))
    for value in (1e307, 1.7e308):
        y = np.array([value, 0.0, 0.0])
        for config in (LetkfConfig(), localized):
            updated = letkf_analysis(ens, obs, y, LETKF_SPECS[spec_name], config)
            np.testing.assert_allclose(updated.members, ens.members, rtol=1e-12, atol=1e-12)


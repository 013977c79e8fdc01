import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from robust_da.models import lgss_sampler, lorenz63_sampler
from robust_da.weights import CONSTANT, IMQ, SQEXP, WeightKernelSpec, default_threshold
from helpers import (
    OBSERVATION_FORMS,
    WINDOW_SQUARE_OVERFLOWS,
    ScaledNormals,
    anomaly_posterior_cov,
    float_matrices,
    letkf_analysis_looped,
    lorenz63_drift_stacked,
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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(float_matrices())
def test_mean_and_anomalies_are_ndarray_mean_bit_for_bit(members):
    # The constructor keeps a float64 matrix as it is and sums each row by
    # np.add.reduce divided by M, the arithmetic of ndarray.mean, at any
    # magnitude and in any memory layout, NaN and inf included.
    with np.errstate(over="ignore", invalid="ignore"):
        ens = EnsembleState(members=members)
        mean = np.atleast_2d(np.asarray(members, dtype=float)).mean(axis=1)
        anomalies = members - mean[:, None]
    assert ens.members is members
    assert ens.mean.shape == mean.shape and ens.mean.tobytes() == mean.tobytes()
    assert ens.anomalies.shape == anomalies.shape
    assert ens.anomalies.tobytes() == anomalies.tobytes()


@pytest.mark.parametrize(
    "members",
    [
        [[1.0, 2.0, 4.0], [0.5, -3.0, 1e300]],
        np.arange(12).reshape(3, 4),
        np.linspace(-1.0, 1.0, 12, dtype=np.float32).reshape(2, 6),
        np.array([1.0, 2.0, 7.0]),
        [3, 5],
    ],
    ids=["list", "int", "float32", "1-D", "1-D-list"],
)
def test_members_that_are_not_a_float64_matrix_are_converted(members):
    # Anything else is taken as np.atleast_2d(np.asarray(x, dtype=float)):
    # one state dimension for a 1-D ensemble.
    ens = EnsembleState(members=members)
    expected = np.atleast_2d(np.asarray(members, dtype=float))
    assert ens.members.dtype == np.float64 and ens.members.shape == expected.shape
    assert ens.members.tobytes() == expected.tobytes()
    assert ens.mean.tobytes() == expected.mean(axis=1).tobytes()


@pytest.mark.parametrize("analysis", ["enkf", "esrf"])
def test_a_scalar_list_or_integer_observation_is_its_float_vector(analysis):
    obs = ObservationModel(H=[[1.0, 0.0, 0.0]], R=[[0.5]])
    ens = EnsembleState(members=np.random.default_rng(5).standard_normal((3, 10)))
    spec = WeightKernelSpec(family=IMQ)

    def analysed(y):
        if analysis == "esrf":
            return esrf_analysis(ens, obs, y, spec).members
        return enkf_perturbed_analysis(ens, obs, y, spec, rng=np.random.default_rng(0)).members

    for y, vector in OBSERVATION_FORMS:
        assert analysed(y).tobytes() == analysed(vector).tobytes(), repr(y)


@pytest.mark.parametrize(
    "convert", [np.ndarray.tolist, lambda x: x.astype(np.float32)], ids=["nested-list", "float32"]
)
def test_forecast_takes_the_samplers_output_as_float64_blocks(convert):
    # A DynamicsSampler may return any array-like: the forecast takes it as
    # np.asarray(out, dtype=float) and splits it into C-ordered blocks.
    rng = np.random.default_rng(2)
    blocks = [rng.standard_normal((3, m)) for m in (4, 1, 6)]
    out = convert(1.5 * np.concatenate(blocks, axis=1))
    forecasts = ensemble_forecast(
        lambda _blocks, _rngs: out, blocks, [np.random.default_rng(i) for i in range(3)]
    )
    expected = np.split(np.asarray(out, dtype=float), [4, 5], axis=1)
    assert len(forecasts) == len(expected)
    for got, want in zip(forecasts, expected):
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_forecast_identity_zero_noise():
    members = np.arange(12.0).reshape(3, 4)

    def identity(blocks, rngs):
        return np.concatenate(blocks, axis=1)

    (out,) = ensemble_forecast(identity, [members], [np.random.default_rng(0)])
    assert np.array_equal(out, members)


def test_forecast_lgss_monte_carlo_consistency():
    rng = np.random.default_rng(1)
    model = scalar_model()
    m = 100_000
    members = model.prior.mean[:, None] + np.sqrt(model.prior.cov[0, 0]) * rng.standard_normal(
        (1, m)
    )
    (propagated,) = ensemble_forecast(lgss_sampler(model), [members], [rng])
    out = EnsembleState(members=propagated)
    exact = kf_forecast(model, model.prior)
    se_mean = np.sqrt(exact.cov[0, 0] / m)
    assert abs(out.mean[0] - exact.mean[0]) <= 3 * se_mean
    se_var = exact.cov[0, 0] * np.sqrt(2.0 / m)
    assert abs(out.cov[0, 0] - exact.cov[0, 0]) <= 3 * se_var


def test_forecast_lorenz63_deterministic_euler_step():
    x0 = np.array([-0.587, -0.563, 16.87])
    sampler = lorenz63_sampler(dt=0.001, n_steps=1)
    out = sampler([x0[:, None]], [ScaledNormals(np.random.default_rng(0), 0.0)])[:, 0]
    expected = x0 + 0.001 * lorenz63_drift_stacked(x0)
    assert np.allclose(out, expected, rtol=1e-14)
    assert out[0] == pytest.approx(-0.58676, abs=1e-12)
    # Origin is a fixed point of the drift.
    origin = np.zeros((3, 1))
    assert np.array_equal(sampler([origin], [ScaledNormals(np.random.default_rng(0), 0.0)]), origin)


def test_forecast_detects_blowup():
    def explode(blocks, rngs):
        return np.concatenate(blocks, axis=1) * np.inf

    assert ensemble_forecast(explode, [np.ones((2, 3))], [np.random.default_rng(0)]) == [None]


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
    # A window at least as wide as the ring holds each observation once.
    for half_width in (20, 25, 100):
        windows, dist = _window_indices(40, 40, half_width)
        assert windows.shape == (40, 40), half_width
        assert all(sorted(row) == list(range(40)) for row in windows.tolist()), half_width
        assert sorted(dist.tolist()) == sorted(np.abs(np.arange(-19, 21)).tolist()), half_width
    windows, dist = _window_indices(7, 7, 5)  # an odd ring
    assert windows.shape == (7, 7) and dist.max() == 3
    assert all(sorted(row) == list(range(7)) for row in windows.tolist())


@pytest.mark.parametrize("half_width", [20, 25, 100])
@pytest.mark.parametrize("family", [CONSTANT, IMQ])
def test_untapered_ring_wide_letkf_is_the_esrf(family, half_width):
    # With a window as wide as the ring and a taper of 1, every state index
    # is analysed over all 40 observations at full precision, each once, so
    # the LETKF is the global square-root analysis.
    rng = np.random.default_rng(19)
    ens = EnsembleState(members=8.0 + rng.standard_normal((40, 10)))
    y = 8.0 + 2.0 * rng.standard_normal(40)
    obs = ObservationModel(H=np.eye(40), R=np.diag(rng.uniform(0.5, 2.0, 40)))
    spec = WeightKernelSpec(family=family, standardization="marginal")
    config = LetkfConfig(localization=Localization(half_width=half_width, taper_length=1e150))
    local = letkf_analysis(ens, obs, y, spec, config)
    np.testing.assert_allclose(
        local.members, esrf_analysis(ens, obs, y, spec).members, rtol=0.0, atol=1e-12
    )


LETKF_SPECS = {
    "regular": WeightKernelSpec(family=CONSTANT),
    "dsm": WeightKernelSpec(family=IMQ, standardization="marginal"),
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
        ens, obs, y, WeightKernelSpec(family=IMQ, standardization="marginal"), config
    )
    explicit = letkf_analysis(
        ens, obs, y,
        WeightKernelSpec(family=IMQ, threshold=39.0, standardization="marginal"), config,
    )
    assert np.array_equal(implicit.members, explicit.members)


ORACLE_SPECS = {
    "constant": WeightKernelSpec(family=CONSTANT),
    "imq_obs_anomaly": WeightKernelSpec(family=IMQ, standardization="marginal"),
    "sqexp_obs_anomaly": WeightKernelSpec(family=SQEXP, standardization="marginal"),
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



@WINDOW_SQUARE_OVERFLOWS
# The regular windows that hold site 0 at +-1.7e308 are not finite.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("diagonal_r", [False, True])
@pytest.mark.parametrize("spec_name", ["dsm", "wolf", "regular"])
def test_a_window_ignores_the_observations_outside_it_bit_for_bit(spec_name, diagonal_r):
    # 12-site ring, half-width 2: windows 3-9 exclude site 0, whatever its
    # observation, up to one whose square overflows in the windows that
    # hold it.  Each window scales its own innovation, so those rows are
    # the same bits, and finite, for every value.
    rng = np.random.default_rng(22)
    d = 12
    ens = EnsembleState(members=rng.standard_normal((d, 6)) * 1.3 + 2.0)
    r = np.diag(rng.uniform(0.5, 2.0, d)) if diagonal_r else np.eye(d)
    obs = ObservationModel(H=np.eye(d), R=r)
    config = LetkfConfig(rho=1.06, localization=Localization(half_width=2, taper_length=1.7))
    y = ens.mean + rng.standard_normal(d)
    rows = []
    for value in (0.0, 1e150, 1.7e308, -1.7e308):
        y[0] = value
        rows.append(letkf_analysis(ens, obs, y, LETKF_SPECS[spec_name], config).members[3:10])
    assert np.isfinite(rows[0]).all()
    for other in rows[1:]:
        np.testing.assert_array_equal(other, rows[0])


@st.composite
def localized_letkf_cases(draw):
    """(ensemble, obs, y, spec, config): a ring of 3 to 40 sites observed
    one to one under a random diagonal R, M from 2 to 12 members (so a
    window holds fewer or more observations than members), a half-width
    from 0 to the ring size and a taper length from 0.02, at which every
    taper but the own site's underflows to 0, to 30."""
    d = draw(st.integers(3, 40))
    m = draw(st.integers(2, 12))
    loc = Localization(
        half_width=draw(st.integers(0, d)),
        taper_length=draw(st.one_of(st.floats(0.02, 0.05), st.floats(0.05, 30.0))),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ens = EnsembleState(members=rng.standard_normal((d, m)) * 1.3 + 2.0)
    y = ens.mean + rng.standard_normal(d) * 1.5
    y[rng.integers(d)] += 40.0  # an outlier observation
    obs = ObservationModel(H=np.eye(d), R=np.diag(rng.uniform(0.5, 2.0, d)))
    spec = ORACLE_SPECS[draw(st.sampled_from(list(ORACLE_SPECS)))]
    return ens, obs, y, spec, LetkfConfig(rho=1.06, localization=loc)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(localized_letkf_cases())
def test_localized_letkf_matches_looped_oracle_on_any_ring(case):
    # The window products of every geometry against one window at a time,
    # tapers that underflow to 0 included; and the default threshold is the
    # explicit one of the window's observation count, zero tapers counted.
    ens, obs, y, spec, config = case
    batched = letkf_analysis(ens, obs, y, spec, config)
    looped = letkf_analysis_looped(ens, obs, y, spec, config)
    assert _relative_error(batched.members, looped.members) <= 1e-10
    assert _relative_error(batched.mean, looped.mean) <= 1e-10
    assert _relative_error(batched.cov, looped.cov) <= 1e-10

    width = min(2 * config.localization.half_width + 1, ens.d_x)
    if isinstance(spec, WolfSpec):
        explicit = WolfSpec(variant=spec.variant, c_sq=float(width))
    elif spec.family != CONSTANT:
        explicit = WeightKernelSpec(
            family=spec.family, threshold=default_threshold(width, spec.family),
            standardization=spec.standardization,
        )
    else:
        return
    np.testing.assert_array_equal(
        batched.members, letkf_analysis(ens, obs, y, explicit, config).members
    )

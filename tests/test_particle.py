import numpy as np
import pytest

from robust_da import (
    GaussianBelief,
    LgssModel,
    ObservationModel,
    ParticleCloud,
    SpdFactor,
    dsm_analysis,
    dsm_log_potential,
    pf_step,
)
from robust_da.models import lorenz63_sampler
from robust_da.weights import CONDITIONAL, CONSTANT, IMQ, SQEXP, WeightKernelSpec
from helpers import central_diff_gradient, random_spd


def scalar_model(r=1.0):
    return LgssModel(
        A=[[0.7]], Q=[[1.3]], H=[[1.0]], R=[[r]],
        prior=GaussianBelief(mean=[0.0], cov=[[1.0]]),
    )


def lgss_dynamics(members, rng):
    return 0.7 * members + np.sqrt(1.3) * rng.standard_normal(members.shape)


def imq(q_sq):
    return WeightKernelSpec(family=IMQ, threshold=q_sq, standardization=CONDITIONAL)


def identity_factor(d):
    return SpdFactor(np.eye(d))


# ---------------------------------------------------------------------------
# Potential


def test_potential_at_zero_residual():
    for d_y in (1, 2, 5):
        y = np.zeros(d_y)
        value = dsm_log_potential(y, y, identity_factor(d_y), imq(float(d_y)))
        assert value == pytest.approx(2.0 * d_y, rel=1e-12)


def test_potential_bounded_at_extreme_residual():
    # Scalar, q^2 = 1, R = 1: the loss saturates at q^2, so the log-potential
    # approaches -1; the quadratic term k^2 s approaches q^2.
    value = dsm_log_potential(np.array([1e6]), np.array([0.0]), identity_factor(1), imq(1.0))
    assert value == pytest.approx(-1.0, abs=1e-5)
    s = 1e12
    k_sq = 1.0 / (1.0 + s)
    assert k_sq * s == pytest.approx(1.0, rel=1e-6)  # first loss term -> q^2


def test_potential_finite_positive_on_random_sweep():
    rng = np.random.default_rng(0)
    y = rng.standard_normal((3, 10_000)) * rng.uniform(0.1, 1e4, size=(1, 10_000))
    h_of_x = rng.standard_normal((3, 10_000))
    log_g = dsm_log_potential(y[:, 0], h_of_x, identity_factor(3), imq(3.0))
    assert np.all(np.isfinite(log_g))
    # G = exp(log G) > 0 and bounded above by exp(2 d_Y).
    assert np.all(log_g <= 2.0 * 3 + 1e-12)


def test_potential_saturates_over_residual_sweep():
    q_sq = 2.0
    residuals = np.linspace(0.0, 1e3, 1_000_000)
    log_g = dsm_log_potential(
        np.array([0.0]), residuals[None, :], identity_factor(1), imq(q_sq)
    )
    assert np.all(np.isfinite(log_g))
    assert np.abs(log_g).max() <= 2.0 + 1e-9  # |log G| <= max(2 d_Y, q^2)
    # Saturation: far out, the value is within 1% of the limit -q^2.
    tail = log_g[residuals > 500.0]
    assert np.all(np.abs(tail + q_sq) <= 0.01 * q_sq)


# Squared kernels written out here, apart from the library's weights module.
ORACLE_KERNELS = {
    "imq": (WeightKernelSpec(IMQ, 2.5, CONDITIONAL), lambda s: 1.0 / (1.0 + s / 2.5)),
    "sqexp": (WeightKernelSpec(SQEXP, 3.0, CONDITIONAL), lambda s: np.exp(-s / 3.0)),
    "constant": (WeightKernelSpec(CONSTANT), lambda s: 0.5),
}


@pytest.mark.parametrize("d_y", [1, 3])
@pytest.mark.parametrize("family", list(ORACLE_KERNELS))
def test_potential_is_minus_the_dsm_loss(family, d_y):
    # -(k^2(y) s + 2 div_y f(y)) with f(y) = -k^2(y) (y - Hx), the divergence
    # by central differences of f.
    spec, k_sq = ORACLE_KERNELS[family]
    rng = np.random.default_rng(30 + d_y)
    r = random_spd(rng, d_y, scale=0.7)
    y = rng.standard_normal(d_y)
    h_of_x = y[:, None] - rng.standard_normal((d_y, 4)) * np.array([0.1, 0.8, 2.0, 6.0])

    def score(v, hx):
        residual = v - hx
        return -k_sq(residual @ np.linalg.solve(r, residual)) * residual

    expected = []
    for hx in h_of_x.T:
        residual = y - hx
        s = residual @ np.linalg.solve(r, residual)
        divergence = sum(
            central_diff_gradient(lambda v: score(v, hx)[i], y)[i] for i in range(d_y)
        )
        expected.append(-(k_sq(s) * s + 2.0 * divergence))
    values = dsm_log_potential(y, h_of_x, SpdFactor(r), spec)
    assert np.allclose(values, expected, rtol=1e-7, atol=1e-9)


def test_potential_requires_positive_threshold():
    with pytest.raises(ValueError):
        dsm_log_potential(np.zeros(1), np.zeros(1), identity_factor(1), imq(0.0))


# ---------------------------------------------------------------------------
# pf_step


def test_constant_potential_leaves_weights_unchanged():
    rng = np.random.default_rng(1)
    particles = rng.standard_normal((1, 50))
    logw = rng.standard_normal(50)
    cloud = ParticleCloud(particles=particles, log_weights=logw)

    def frozen_dynamics(members, rng):
        return members

    # A constant observation map makes the potential identical across
    # particles, so normalized weights are unchanged.
    h_const = ObservationModel(H=np.zeros((1, 1)), R=np.eye(1))
    out = pf_step(
        cloud, frozen_dynamics, np.array([0.3]), h_const, imq(1.0), rng, resample_threshold=0.0
    )
    assert np.allclose(out.log_weights, cloud.log_weights, atol=1e-12)


def test_pf_matches_closed_form_with_constant_tuning():
    model = scalar_model()
    y = np.array([1.5])
    spec = WeightKernelSpec(family=CONSTANT)
    forecast = GaussianBelief(mean=[0.0], cov=[[0.49 + 1.3]])
    target = dsm_analysis(model, forecast, y, spec).posterior

    rng = np.random.default_rng(2)
    m = 100_000
    particles = rng.standard_normal((1, m))  # prior N(0, 1)
    cloud = ParticleCloud.uniform(particles)
    out = pf_step(cloud, lgss_dynamics, y, model.observation, spec, rng, resample_threshold=0.0)
    se = np.sqrt(target.cov[0, 0] / out.ess)
    assert abs(out.weighted_mean()[0] - target.mean[0]) <= 3.0 * se


def test_pf_bit_reproducible():
    model = scalar_model()
    y = np.array([0.7])
    clouds = []
    for _ in range(2):
        rng = np.random.default_rng(77)
        cloud = ParticleCloud.uniform(np.random.default_rng(5).standard_normal((1, 64)))
        out = pf_step(
            cloud, lgss_dynamics, y, model.observation, imq(1.0), rng, resample_threshold=0.9
        )
        clouds.append(out)
    assert np.array_equal(clouds[0].particles, clouds[1].particles)
    assert np.array_equal(clouds[0].log_weights, clouds[1].log_weights)


def test_pf_step_refuses_a_kernel_not_standardized_by_r():
    # Each particle's kernel is standardized by R as one block.
    cloud = ParticleCloud.uniform(np.zeros((2, 4)))
    obs = ObservationModel(H=np.eye(2), R=np.eye(2))
    for spec in (
        WeightKernelSpec(family=IMQ),
        WeightKernelSpec(family=SQEXP, standardization="obs_anomaly"),
        WeightKernelSpec(IMQ, standardization=CONDITIONAL, block_partition=((0, 1), (1, 2))),
    ):
        with pytest.raises(ValueError, match="standardizes"):
            pf_step(cloud, lambda x, rng: x, np.zeros(2), obs, spec, np.random.default_rng(0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pf_forecast_blowup_is_reported_as_a_forecast_error():
    # A particle far off the attractor overflows the Euler-Maruyama forecast.
    # The step reports the forecast, without numpy warnings, and does not
    # blame the observation.
    particles = np.array([[1e80, 1.0], [1.0, 1.0], [1.0, 20.0]])
    obs = ObservationModel(H=[[1.0, 0.0, 0.0]], R=[[0.5]])
    with pytest.raises(FloatingPointError, match="forecast produced non-finite members"):
        pf_step(
            ParticleCloud.uniform(particles), lorenz63_sampler(0.001, 50), np.zeros(1), obs,
            imq(1.0), np.random.default_rng(0),
        )


def test_ess_bounds_and_resampling_reset():
    rng = np.random.default_rng(3)
    particles = rng.standard_normal((1, 100))
    logw = np.full(100, -np.log(100))
    logw[0] = 5.0  # concentrate weight
    cloud = ParticleCloud(particles=particles, log_weights=logw)
    assert 1.0 <= cloud.ess <= 100.0

    def frozen(members, rng):
        return members

    out = pf_step(
        cloud, frozen, np.array([0.0]), ObservationModel(H=np.zeros((1, 1)), R=np.eye(1)),
        imq(1.0), rng, resample_threshold=0.99,
    )
    assert np.allclose(out.weights, 1.0 / 100)


def test_resampling_preserves_weighted_mean_on_average():
    rng = np.random.default_rng(4)
    particles = rng.standard_normal((1, 400))
    logw = -0.5 * (particles[0] - 1.0) ** 2
    cloud = ParticleCloud(particles=particles, log_weights=logw)
    target = cloud.weighted_mean()[0]

    means = []
    for _ in range(200):
        idx = rng.choice(400, size=400, p=cloud.weights)
        means.append(particles[0, idx].mean())
    means = np.asarray(means)
    se = means.std(ddof=1) / np.sqrt(200)
    assert abs(means.mean() - target) <= 3.0 * se


import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_triangular

from robust_da import (
    GaussianBelief,
    LgssModel,
    SpdFactor,
    kf_analysis,
    kf_forecast,
)
from robust_da.weights import WeightKernelSpec
from helpers import (
    RESCALED_SQUARE_OVERFLOWS,
    grid_posterior_1d,
    grid_posterior_2d,
    random_spd,
)


def scalar_model(a=0.7, q=1.3, h=1.0, r=0.1, m0=0.0, p0=1.0):
    return LgssModel(
        A=[[a]], Q=[[q]], H=[[h]], R=[[r]],
        prior=GaussianBelief(mean=[m0], cov=[[p0]]),
    )


# ---------------------------------------------------------------------------
# SpdFactor and GaussianBelief invariants


def assert_solves_match_scipy(f, rng):
    """SpdFactor's direct LAPACK solves equal scipy's wrappers bit for bit,
    also for a (d, n) batch of Mahalanobis residuals, and a NaN right-hand
    side comes back NaN (only in its own column) instead of raising."""
    d = f.dim
    for b in (rng.standard_normal(d), rng.standard_normal((d, 3))):
        got = f.solve(b)
        assert got.shape == b.shape
        np.testing.assert_array_equal(got, cho_solve((f.chol, True), b))
        b[d // 2] = np.nan
        assert np.isnan(f.solve(b)).any()
    r = rng.standard_normal(d)
    z = solve_triangular(f.chol, r, lower=True)
    assert f.mahalanobis_sq(r) == float(z @ z)
    r[-1] = np.nan
    assert np.isnan(f.mahalanobis_sq(r))
    batch = rng.standard_normal((d, 4))
    z = solve_triangular(f.chol, batch, lower=True)
    np.testing.assert_array_equal(f.mahalanobis_sq(batch), np.sum(z * z, axis=0))
    batch[0, 1] = np.nan
    forms = f.mahalanobis_sq(batch)
    assert np.isnan(forms[1]) and np.all(np.isfinite(forms[[0, 2, 3]]))


def test_spd_factor_reconstructs():
    rng = np.random.default_rng(0)
    for d in range(1, 41):
        a = random_spd(rng, d, scale=10.0 ** rng.uniform(-3.0, 3.0))
        f = SpdFactor(a)
        rel = np.linalg.norm(f.chol @ f.chol.T - f.matrix) / np.linalg.norm(f.matrix)
        assert rel <= 1e-10
        t = f.inv_sym_sqrt
        assert np.linalg.norm(t @ f.matrix @ t - np.eye(d)) <= 1e-8
        assert_solves_match_scipy(f, rng)


def test_spd_factor_jitter_repair_and_failure():
    # Borderline PSD matrix gets repaired by jitter.
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    f = SpdFactor(a)
    assert np.all(np.isfinite(f.chol))
    # A genuinely indefinite matrix still fails.
    with pytest.raises(np.linalg.LinAlgError):
        SpdFactor(np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_belief_symmetrizes_and_round_trips():
    rng = np.random.default_rng(1)
    cov = random_spd(rng, 3)
    cov[0, 1] += 1e-13  # small asymmetry is absorbed
    belief = GaussianBelief(mean=rng.standard_normal(3), cov=cov)
    assert np.allclose(belief.cov, belief.cov.T)
    j = belief.precision
    theta = belief.potential
    assert np.allclose(np.linalg.solve(j, theta), belief.mean, rtol=1e-8, atol=1e-10)
    assert np.allclose(np.linalg.inv(j), belief.cov, rtol=1e-8, atol=1e-10)


def test_information_round_trip_random_matrices():
    rng = np.random.default_rng(2)
    for _ in range(200):
        d = int(rng.integers(1, 21))
        p = random_spd(rng, d)
        belief = GaussianBelief(mean=rng.standard_normal(d), cov=p)
        back = np.linalg.inv(belief.precision)
        assert np.linalg.norm(back - p) / np.linalg.norm(p) <= 1e-8


def test_model_validation():
    with pytest.raises(np.linalg.LinAlgError):
        LgssModel(A=[[1.0]], Q=[[1.0]], H=[[1.0]], R=[[-1.0]],
                  prior=GaussianBelief(mean=[0.0], cov=[[1.0]]))
    # A block partition must cover the observation dimension.
    with pytest.raises(ValueError):
        WeightKernelSpec(block_partition=((0, 1),)).partition_for(2)


# ---------------------------------------------------------------------------
# SpdFactor.mahalanobis_sq


def test_mahalanobis_examples():
    f = SpdFactor(np.diag([2.0, 2.0]))
    assert f.mahalanobis_sq(np.zeros(2)) == 0.0
    r = np.array([1.0, 1.0])
    assert f.mahalanobis_sq(r) == pytest.approx(1.0, rel=1e-12)
    ident = SpdFactor(np.eye(3))
    v = np.array([1.0, -2.0, 3.0])
    assert ident.mahalanobis_sq(v) == pytest.approx(float(v @ v), rel=1e-12)


@RESCALED_SQUARE_OVERFLOWS
def test_mahalanobis_of_a_finite_residual_that_overflows_is_inf():
    # Whitening (1e307, 1e307, 1e307) by a factor of scale 1e-5 overflows
    # the first two entries to inf and -inf, and the third to inf - inf;
    # the form is inf, not NaN.
    f = SpdFactor(1e-10 * (0.5 * np.eye(3) + 0.5))
    r = np.full(3, 1e307)
    assert f.mahalanobis_sq(r) == np.inf
    forms = f.mahalanobis_sq(np.column_stack([r, [1e-5, 0.0, 0.0]]))
    assert forms[0] == np.inf
    assert forms[1] == pytest.approx(1.5, rel=1e-12)


# ---------------------------------------------------------------------------
# kf_forecast


def test_forecast_hand_arithmetic():
    model = scalar_model()
    out = kf_forecast(model, GaussianBelief(mean=[5.0], cov=[[1.0]]))
    assert out.mean[0] == pytest.approx(3.5, abs=1e-14)
    assert out.cov[0, 0] == pytest.approx(1.79, abs=1e-14)


def test_forecast_identity_dynamics():
    model = LgssModel(
        A=np.eye(2), Q=np.zeros((2, 2)), H=np.eye(2), R=np.eye(2),
        prior=GaussianBelief(mean=np.zeros(2), cov=np.eye(2)),
    )
    belief = GaussianBelief(mean=[1.0, -2.0], cov=[[2.0, 0.3], [0.3, 1.0]])
    out = kf_forecast(model, belief)
    assert np.allclose(out.mean, belief.mean)
    assert np.allclose(out.cov, belief.cov)


def test_forecast_memoryless_limit():
    model = scalar_model(a=0.0, q=1.3)
    out = kf_forecast(model, GaussianBelief(mean=[7.0], cov=[[4.0]]))
    assert out.mean[0] == 0.0
    assert out.cov[0, 0] == pytest.approx(1.3)


def test_forecast_dimension_mismatch():
    model = scalar_model()
    with pytest.raises(ValueError):
        kf_forecast(model, GaussianBelief(mean=np.zeros(2), cov=np.eye(2)))


# ---------------------------------------------------------------------------
# kf_analysis


def test_analysis_hand_arithmetic():
    model = scalar_model(r=1.0)
    forecast = GaussianBelief(mean=[0.0], cov=[[1.0]])
    post = kf_analysis(model, forecast, [2.0])
    assert post.mean[0] == pytest.approx(1.0, abs=1e-14)
    assert post.cov[0, 0] == pytest.approx(0.5, abs=1e-14)


def test_analysis_zero_information_limit():
    rng = np.random.default_rng(3)
    model = LgssModel(
        A=np.eye(3), Q=np.eye(3), H=rng.standard_normal((2, 3)), R=1e9 * random_spd(rng, 2),
        prior=GaussianBelief(mean=np.zeros(3), cov=np.eye(3)),
    )
    forecast = GaussianBelief(mean=rng.standard_normal(3), cov=random_spd(rng, 3))
    post = kf_analysis(model, forecast, rng.standard_normal(2))
    assert np.allclose(post.mean, forecast.mean, rtol=1e-6)
    assert np.allclose(post.cov, forecast.cov, rtol=1e-6)


def test_analysis_zero_innovation():
    rng = np.random.default_rng(4)
    model = LgssModel(
        A=np.eye(3), Q=np.eye(3), H=rng.standard_normal((2, 3)), R=random_spd(rng, 2),
        prior=GaussianBelief(mean=np.zeros(3), cov=np.eye(3)),
    )
    forecast = GaussianBelief(mean=rng.standard_normal(3), cov=random_spd(rng, 3))
    post = kf_analysis(model, forecast, model.H @ forecast.mean)
    assert np.array_equal(post.mean, forecast.mean)


def test_analysis_loewner_contraction():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d_x, d_y = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        model = LgssModel(
            A=np.eye(d_x), Q=np.eye(d_x),
            H=rng.standard_normal((d_y, d_x)), R=random_spd(rng, d_y),
            prior=GaussianBelief(mean=np.zeros(d_x), cov=np.eye(d_x)),
        )
        forecast = GaussianBelief(mean=rng.standard_normal(d_x), cov=random_spd(rng, d_x))
        post = kf_analysis(model, forecast, rng.standard_normal(d_y))
        gap_eigs = np.linalg.eigvalsh(forecast.cov - post.cov)
        assert gap_eigs.min() >= -1e-9


def test_analysis_gain_vs_information_form():
    rng = np.random.default_rng(6)
    for _ in range(50):
        d_x, d_y = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        h = rng.standard_normal((d_y, d_x))
        r = random_spd(rng, d_y)
        model = LgssModel(
            A=np.eye(d_x), Q=np.eye(d_x), H=h, R=r,
            prior=GaussianBelief(mean=np.zeros(d_x), cov=np.eye(d_x)),
        )
        forecast = GaussianBelief(mean=rng.standard_normal(d_x), cov=random_spd(rng, d_x))
        y = rng.standard_normal(d_y)
        post = kf_analysis(model, forecast, y)
        # Sherman-Morrison-Woodbury route.
        r_inv = np.linalg.inv(r)
        j_post = forecast.precision + h.T @ r_inv @ h
        cov_info = np.linalg.inv(j_post)
        mean_info = cov_info @ (forecast.potential + h.T @ r_inv @ y)
        assert np.linalg.norm(post.cov - cov_info) / np.linalg.norm(cov_info) <= 1e-8
        assert np.allclose(post.mean, mean_info, rtol=1e-8, atol=1e-10)


def test_analysis_matches_grid_oracle_1d():
    model = scalar_model(r=0.8)
    forecast = GaussianBelief(mean=[0.5], cov=[[1.5]])
    y = 1.7
    post = kf_analysis(model, forecast, [y])

    def log_posterior(x):
        prior = -0.5 * (x - 0.5) ** 2 / 1.5
        lik = -0.5 * (y - x) ** 2 / 0.8
        return prior + lik

    mean, var = grid_posterior_1d(log_posterior)
    assert post.mean[0] == pytest.approx(mean, abs=1e-3)
    assert post.cov[0, 0] == pytest.approx(var, abs=1e-3)


def test_analysis_matches_grid_oracle_2d():
    h = np.array([[1.0, 0.4], [0.0, 1.0]])
    r = np.array([[0.6, 0.1], [0.1, 0.9]])
    p_f = np.array([[1.2, -0.3], [-0.3, 0.8]])
    m_f = np.array([0.3, -0.2])
    y = np.array([1.0, 0.5])
    model = LgssModel(
        A=np.eye(2), Q=np.eye(2), H=h, R=r,
        prior=GaussianBelief(mean=np.zeros(2), cov=np.eye(2)),
    )
    post = kf_analysis(model, GaussianBelief(mean=m_f, cov=p_f), y)

    p_inv = np.linalg.inv(p_f)
    r_inv = np.linalg.inv(r)

    def log_posterior(pts):
        dx = pts - m_f[:, None]
        prior = -0.5 * np.einsum("ik,ij,jk->k", dx, p_inv, dx)
        res = y[:, None] - h @ pts
        lik = -0.5 * np.einsum("ik,ij,jk->k", res, r_inv, res)
        return prior + lik

    mean, cov = grid_posterior_2d(log_posterior)
    assert np.allclose(post.mean, mean, atol=1e-3)
    assert np.allclose(post.cov, cov, atol=1e-3)


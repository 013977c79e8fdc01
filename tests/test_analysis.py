import numpy as np
import pytest

from robust_da import (
    GaussianBelief,
    LgssModel,
    WolfSpec,
    dsm_analysis,
    influence_sweep,
    information_form_update,
    kf_analysis,
    wolf_analysis,
)
from robust_da.lgss import kalman_gain
from robust_da.weights import CONSTANT, IMQ, WeightKernelSpec
from helpers import grid_posterior_1d, grid_posterior_2d, random_spd


def make_model(rng, d_x, d_y, block=False):
    h = rng.standard_normal((d_y, d_x))
    if block and d_y >= 2:
        split = int(rng.integers(1, d_y))
        partition = ((0, split), (split, d_y))
        r = np.zeros((d_y, d_y))
        r[:split, :split] = random_spd(rng, split)
        r[split:, split:] = random_spd(rng, d_y - split)
    else:
        partition = None
        r = random_spd(rng, d_y)
    model = LgssModel(
        A=np.eye(d_x), Q=np.eye(d_x), H=h, R=r,
        prior=GaussianBelief(mean=np.zeros(d_x), cov=np.eye(d_x)),
    )
    return model, partition


def scalar_model(r=1.0, q=1.3, a=0.7, m0=0.0, p0=1.0):
    return LgssModel(
        A=[[a]], Q=[[q]], H=[[1.0]], R=[[r]],
        prior=GaussianBelief(mean=[m0], cov=[[p0]]),
    )


# ---------------------------------------------------------------------------
# Kalman-filter recovery and dual-route agreement


def test_constant_kernel_recovers_kalman_update():
    rng = np.random.default_rng(0)
    for trial in range(100):
        d_x = int(rng.integers(1, 11))
        d_y = int(rng.integers(1, 11))
        model, partition = make_model(rng, d_x, d_y, block=trial % 2 == 1)
        forecast = GaussianBelief(mean=rng.standard_normal(d_x), cov=random_spd(rng, d_x))
        y = rng.standard_normal(d_y) * 3.0
        spec = WeightKernelSpec(family=CONSTANT, block_partition=partition)
        robust = dsm_analysis(model, forecast, y, spec).posterior
        regular = kf_analysis(model, forecast, y)
        assert np.allclose(robust.mean, regular.mean, rtol=1e-12, atol=1e-12)
        assert np.allclose(robust.cov, regular.cov, rtol=1e-12, atol=1e-12)


def test_zero_innovation_doubles_precision_gain():
    rng = np.random.default_rng(1)
    model, _ = make_model(rng, 3, 2)
    forecast = GaussianBelief(mean=rng.standard_normal(3), cov=random_spd(rng, 3))
    y = model.H @ forecast.mean
    spec = WeightKernelSpec(family=IMQ, threshold=2.0)
    result = dsm_analysis(model, forecast, y, spec)
    assert np.allclose(result.target, y)
    assert np.allclose(result.weight, 2.0)  # R / w = R / 2
    r_inv = np.linalg.inv(model.R)
    precision_gain = result.posterior.precision - forecast.precision
    assert np.allclose(precision_gain, 2.0 * model.H.T @ r_inv @ model.H, rtol=1e-8)


def test_gain_and_information_forms_agree():
    rng = np.random.default_rng(2)
    for trial in range(50):
        d_x = int(rng.integers(1, 7))
        d_y = int(rng.integers(1, 7))
        model, partition = make_model(rng, d_x, d_y, block=trial % 3 == 0)
        forecast = GaussianBelief(mean=rng.standard_normal(d_x), cov=random_spd(rng, d_x))
        y = rng.standard_normal(d_y) * 2.0
        spec = WeightKernelSpec(
            family=IMQ, threshold=float(d_y), block_partition=partition
        )
        result = dsm_analysis(model, forecast, y, spec)
        info = information_form_update(
            forecast, model.H, model.R, result.weight, result.target
        )
        assert np.allclose(result.posterior.mean, info.mean, rtol=1e-8, atol=1e-9)
        rel = np.linalg.norm(result.posterior.cov - info.cov) / np.linalg.norm(info.cov)
        assert rel <= 1e-8


def test_gain_satisfies_defining_system():
    rng = np.random.default_rng(3)
    model, _ = make_model(rng, 4, 3)
    forecast = GaussianBelief(mean=rng.standard_normal(4), cov=random_spd(rng, 4))
    y = rng.standard_normal(3)
    result = dsm_analysis(model, forecast, y, WeightKernelSpec(family=IMQ, threshold=3.0))
    root_w = np.sqrt(result.weight)
    gain = kalman_gain(forecast.cov, model.H, model.R, root_w)[0] * root_w  # K = G W^{1/2}
    lhs = gain @ (model.R / result.weight[0] + model.H @ forecast.cov @ model.H.T)
    rhs = forecast.cov @ model.H.T
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) <= 1e-8


# ---------------------------------------------------------------------------
# Grid-quadrature oracle for the generalized posterior


def imq_weight_and_grad(y, center, sigma_inv, q_sq):
    """Independent evaluation of the IMQ squared weight and its gradient."""
    residual = y - center
    s = float(residual @ sigma_inv @ residual)
    k_sq = 1.0 / (1.0 + s / q_sq)
    grad = -(2.0 / q_sq) * k_sq**2 * (sigma_inv @ residual)
    return k_sq, grad


def dsm_loss_1d(x, y, h, r, k_sq, grad):
    """Score-matching loss for scalar observations at fixed y."""
    residual = y - h * x
    return k_sq * residual**2 / r - 2.0 * residual * grad - 2.0 * k_sq


@pytest.mark.parametrize("y_obs", [0.5, 3.0, 100.0])
def test_grid_oracle_scalar(y_obs):
    model = scalar_model(r=1.0)
    forecast = GaussianBelief(mean=[0.0], cov=[[1.0]])
    spec = WeightKernelSpec(family=IMQ, threshold=1.0)
    result = dsm_analysis(model, forecast, np.array([y_obs]), spec)

    sigma_inv = np.array([[1.0 / 2.0]])  # Sigma = H P H + R = 2
    k_sq, grad = imq_weight_and_grad(
        np.array([y_obs]), np.array([0.0]), sigma_inv, 1.0
    )

    def log_post(x):
        prior = -0.5 * x**2
        return prior - dsm_loss_1d(x, y_obs, 1.0, 1.0, k_sq, grad[0])

    mean, var = grid_posterior_1d(log_post)
    assert result.posterior.mean[0] == pytest.approx(mean, abs=1e-3)
    assert result.posterior.cov[0, 0] == pytest.approx(var, abs=1e-3)


def test_grid_oracle_2d_full_block():
    rng = np.random.default_rng(4)
    h = np.array([[1.0, 0.3], [-0.2, 0.9]])
    r = np.array([[0.8, 0.2], [0.2, 1.1]])
    p_f = np.array([[1.0, 0.2], [0.2, 0.7]])
    m_f = np.array([0.4, -0.3])
    y = np.array([2.5, -1.0])
    q_sq = 2.0
    model = LgssModel(
        A=np.eye(2), Q=np.eye(2), H=h, R=r,
        prior=GaussianBelief(mean=np.zeros(2), cov=np.eye(2)),
    )
    forecast = GaussianBelief(mean=m_f, cov=p_f)
    result = dsm_analysis(model, forecast, y, WeightKernelSpec(family=IMQ, threshold=q_sq))

    sigma_inv = np.linalg.inv(h @ p_f @ h.T + r)
    k_sq, grad = imq_weight_and_grad(y, h @ m_f, sigma_inv, q_sq)
    r_inv = np.linalg.inv(r)
    p_inv = np.linalg.inv(p_f)

    def log_post(pts):
        dx = pts - m_f[:, None]
        prior = -0.5 * np.einsum("ik,ij,jk->k", dx, p_inv, dx)
        res = y[:, None] - h @ pts
        loss = (
            k_sq * np.einsum("ik,ij,jk->k", res, r_inv, res)
            - 2.0 * res.T @ grad
            - 2.0 * 2 * k_sq
        )
        return prior - loss

    mean, cov = grid_posterior_2d(log_post)
    assert np.allclose(result.posterior.mean, mean, atol=1e-3)
    assert np.allclose(result.posterior.cov, cov, atol=1e-3)


def test_grid_oracle_2d_two_blocks():
    # Diagonal R with two scalar blocks: the loss splits per block with the
    # whitened-slice weights and the diagonal divergence vector.
    h = np.eye(2)
    r = np.diag([0.7, 1.3])
    p_f = np.array([[1.1, 0.4], [0.4, 0.9]])
    m_f = np.array([0.2, 0.1])
    y = np.array([3.0, -0.5])
    model = LgssModel(
        A=np.eye(2), Q=np.eye(2), H=h, R=r,
        prior=GaussianBelief(mean=np.zeros(2), cov=np.eye(2)),
    )
    forecast = GaussianBelief(mean=m_f, cov=p_f)
    spec = WeightKernelSpec(
        family=IMQ, threshold=[1.0, 1.0], block_partition=((0, 1), (1, 2))
    )
    result = dsm_analysis(model, forecast, y, spec)

    sigma = h @ p_f @ h.T + r
    eigvals, eigvecs = np.linalg.eigh(sigma)
    root_inv = (eigvecs / np.sqrt(eigvals)) @ eigvecs.T
    z = root_inv @ (y - h @ m_f)
    k_sq = np.array([1.0 / (1.0 + z[0] ** 2), 1.0 / (1.0 + z[1] ** 2)])
    # Full gradient of each block weight, then its diagonal slice.
    grads = np.stack(
        [-2.0 * k_sq[b] ** 2 * (root_inv[:, b] * z[b]) for b in range(2)]
    )
    grad_diag = np.array([grads[0, 0], grads[1, 1]])
    r_diag = np.diag(r)

    def log_post(pts):
        dx = pts - m_f[:, None]
        p_inv = np.linalg.inv(p_f)
        prior = -0.5 * np.einsum("ik,ij,jk->k", dx, p_inv, dx)
        res = y[:, None] - pts  # H = I
        loss = (
            (k_sq[:, None] * res**2 / r_diag[:, None]).sum(axis=0)
            - 2.0 * (res * grad_diag[:, None]).sum(axis=0)
            - 2.0 * k_sq.sum()
        )
        return prior - loss

    mean, cov = grid_posterior_2d(log_post)
    assert np.allclose(result.posterior.mean, mean, atol=1e-3)
    assert np.allclose(result.posterior.cov, cov, atol=1e-3)


# ---------------------------------------------------------------------------
# WoLF analysis


def test_wolf_unit_weight_recovers_kalman():
    rng = np.random.default_rng(5)
    model, _ = make_model(rng, 3, 2)
    forecast = GaussianBelief(mean=rng.standard_normal(3), cov=random_spd(rng, 3))
    y = rng.standard_normal(2)
    wolf = wolf_analysis(model, forecast, y, WolfSpec(variant="md", c_sq=1e14)).posterior
    regular = kf_analysis(model, forecast, y)
    assert np.allclose(wolf.mean, regular.mean, rtol=1e-9)
    assert np.allclose(wolf.cov, regular.cov, rtol=1e-9)


def test_wolf_sigma_scaled_matches_dsm_at_zero_residual():
    rng = np.random.default_rng(6)
    model, _ = make_model(rng, 3, 2)
    forecast = GaussianBelief(mean=rng.standard_normal(3), cov=random_spd(rng, 3))
    y = model.H @ forecast.mean
    wolf = wolf_analysis(model, forecast, y, WolfSpec(variant="sigma_scaled", c_sq=2.0))
    dsm = dsm_analysis(model, forecast, y, WeightKernelSpec(family=IMQ, threshold=2.0))
    assert np.allclose(wolf.weight, 2.0)  # R / w = R / 2
    assert np.allclose(wolf.posterior.cov, dsm.posterior.cov, rtol=1e-10)
    assert np.allclose(wolf.posterior.mean, dsm.posterior.mean, rtol=1e-10)


def test_wolf_md_only_inflates():
    rng = np.random.default_rng(7)
    for _ in range(25):
        model, _ = make_model(rng, 3, 2)
        forecast = GaussianBelief(mean=rng.standard_normal(3), cov=random_spd(rng, 3))
        y = model.H @ forecast.mean + rng.standard_normal(2)
        wolf = wolf_analysis(model, forecast, y, WolfSpec(variant="md", c_sq=2.0)).posterior
        regular = kf_analysis(model, forecast, y)
        eigs = np.linalg.eigvalsh(wolf.cov - regular.cov)
        assert eigs.min() >= -1e-10


def test_wolf_information_form_cross_check():
    rng = np.random.default_rng(8)
    model, _ = make_model(rng, 2, 2)
    forecast = GaussianBelief(mean=rng.standard_normal(2), cov=random_spd(rng, 2))
    y = rng.standard_normal(2) * 2.0
    result = wolf_analysis(model, forecast, y, WolfSpec(variant="md", c_sq=2.0))
    r_sq = result.weight[0]
    j_post = forecast.precision + r_sq * model.H.T @ np.linalg.inv(model.R) @ model.H
    assert np.allclose(result.posterior.precision, j_post, rtol=1e-8)


def test_dsm_covariance_adjusts_both_ways():
    model = scalar_model(r=1.0)
    forecast = GaussianBelief(mean=[0.0], cov=[[1.0]])
    spec = WeightKernelSpec(family=IMQ, threshold=1.0)
    regular = kf_analysis(model, forecast, [0.1])
    tight = dsm_analysis(model, forecast, [0.1], spec).posterior  # k^2 > 1/2
    loose = dsm_analysis(model, forecast, [5.0], spec).posterior  # k^2 < 1/2
    assert tight.cov[0, 0] < regular.cov[0, 0]
    loose_regular = kf_analysis(model, forecast, [5.0])
    assert loose.cov[0, 0] > loose_regular.cov[0, 0]


# ---------------------------------------------------------------------------
# Influence sweep


def test_influence_sweep_boundedness():
    model = scalar_model(r=1.0)
    forecast = GaussianBelief(mean=[0.0], cov=[[1.0]])
    magnitudes = [1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6]
    rows = influence_sweep(
        model,
        forecast,
        WeightKernelSpec(family=IMQ, threshold=1.0),
        WolfSpec(variant="md", c_sq=1.0),
        magnitudes,
    )
    by_method = {m: {} for m in ("kf", "dsm", "wolf")}
    for row in rows:
        by_method[row.method][row.magnitude] = row.mean_shift
    # Regular gain is constant: displacement is linear in the magnitude.
    assert by_method["kf"][1e6] == pytest.approx(1e6 / 2.0, rel=1e-9)
    assert by_method["kf"][1e6] / by_method["kf"][1e3] == pytest.approx(1e3, rel=1e-6)
    # Robust variants plateau: the displacement at 1e6 is no larger than
    # twice the value at 1e3.
    assert by_method["dsm"][1e6] <= 2.0 * by_method["dsm"][1e3]
    assert by_method["wolf"][1e6] <= 2.0 * by_method["wolf"][1e3]
    assert by_method["kf"][1e6] >= 100.0 * by_method["dsm"][1e6]


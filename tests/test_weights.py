import math

import numpy as np
import pytest

from robust_da import GaussianBelief, LgssModel, SpdFactor, dsm_analysis
from robust_da.weights import (
    CONSTANT,
    IMQ,
    SQEXP,
    WeightKernelSpec,
    default_threshold,
    eval_kernel,
    expected_weight_mc,
    jensen_bounds,
    robust_update,
    tune_threshold,
)
from helpers import BLOCK_SQUARE_OVERFLOWS, central_diff_gradient, random_spd


def test_zero_residual_gives_unit_weight_and_zero_gradient():
    rng = np.random.default_rng(0)
    cov = SpdFactor(random_spd(rng, 4))
    y = rng.standard_normal(4)
    for family in (IMQ, SQEXP):
        for partition in (None, ((0, 2), (2, 4))):
            spec = WeightKernelSpec(family=family, threshold=2.0, block_partition=partition)
            ev = eval_kernel(spec, y, y, cov)
            assert np.allclose(ev.k_sq, 1.0)
            assert np.allclose(ev.grad_diag, 0.0)
            assert np.allclose(ev.full_grads, 0.0)


def test_scalar_imq_half_weight():
    spec = WeightKernelSpec(family=IMQ, threshold=1.0)
    ev = eval_kernel(spec, np.array([1.0]), np.array([0.0]), SpdFactor([[1.0]]))
    assert ev.k_sq[0] == pytest.approx(0.5, rel=1e-14)


def test_constant_family_is_exact_half():
    spec = WeightKernelSpec(family=CONSTANT)
    ev = eval_kernel(spec, np.array([3.0, 1.0]), np.zeros(2), SpdFactor(np.eye(2)))
    assert np.all(ev.k_sq == 0.5)
    assert np.all(ev.grad_diag == 0.0)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    checked = 0
    for _ in range(100):
        d_y = int(rng.integers(1, 7))
        cov = SpdFactor(random_spd(rng, d_y))
        center = rng.standard_normal(d_y)
        y = center + rng.standard_normal(d_y) * rng.uniform(0.5, 3.0)
        family = (IMQ, SQEXP)[int(rng.integers(2))]
        if d_y >= 2 and rng.random() < 0.5:
            split = int(rng.integers(1, d_y))
            partition = ((0, split), (split, d_y))
        else:
            partition = None
        spec = WeightKernelSpec(
            family=family,
            threshold=float(rng.uniform(0.5, 5.0)),
            block_partition=partition,
        )
        ev = eval_kernel(spec, y, center, cov)
        for b in range(ev.n_blocks):
            fd = central_diff_gradient(
                lambda yy: eval_kernel(spec, yy, center, cov).k_sq[b], y
            )
            scale = max(np.linalg.norm(fd), 1e-8)
            assert np.linalg.norm(ev.full_grads[b] - fd) / scale <= 1e-5
        # grad_diag is the blockwise diagonal of the full gradients.
        for b, (start, stop) in enumerate(ev.partition):
            assert np.array_equal(ev.grad_diag[start:stop], ev.full_grads[b, start:stop])
        checked += 1
    assert checked == 100


def test_kernel_bounded_on_random_sweep():
    rng = np.random.default_rng(2)
    cov = SpdFactor(random_spd(rng, 3))
    draws = rng.standard_normal((5_000, 3)) * rng.uniform(0.1, 100.0, size=(5_000, 1))
    for family in (IMQ, SQEXP):
        spec = WeightKernelSpec(family=family, threshold=1.5)
        values = np.array(
            [eval_kernel(spec, y, np.zeros(3), cov).k_sq[0] for y in draws]
        )
        # Positive wherever a double can hold it: only a sq-exp weight below
        # the smallest normal double, exp(-708), may underflow to 0.
        s = np.array([cov.mahalanobis_sq(y) for y in draws])
        assert np.all((values > 0.0) | ((family == SQEXP) & (s / 1.5 > 708.0)))
        assert np.all(values <= 1.0)


def test_kernel_strictly_decreasing_in_mahalanobis_square():
    cov = SpdFactor(np.eye(1))
    for family in (IMQ, SQEXP):
        spec = WeightKernelSpec(family=family, threshold=2.0)
        values = [
            eval_kernel(spec, np.array([r]), np.zeros(1), cov).k_sq[0]
            for r in np.linspace(0.0, 10.0, 50)
        ]
        assert np.all(np.diff(values) < 0.0)


@BLOCK_SQUARE_OVERFLOWS
def test_block_kernel_of_a_residual_whose_whitening_overflows_has_zero_weight():
    # cov^{-1/2} (y - center) overflows with mixed signs, an inf - inf inside
    # the product with this residual; each block's weight is 0, not NaN.
    m = np.array([[4.0, 2, 5, -5], [2, 7, 3, -2], [5, 3, 14, -10], [-5, -2, -10, 11]])
    spec = WeightKernelSpec(family=IMQ, block_partition=((0, 2), (2, 4)))
    y = np.array([-1e307, -1e307, 1e307, 1e307])
    ev = eval_kernel(spec, y, np.zeros(4), SpdFactor(1e-10 * m))
    np.testing.assert_array_equal(ev.k_sq, [0.0, 0.0])
    np.testing.assert_array_equal(ev.log_grads, np.zeros((2, 4)))


def test_nonpositive_threshold_rejected():
    with pytest.raises(ValueError):
        WeightKernelSpec(family=IMQ, threshold=0.0).thresholds_for(1)
    with pytest.raises(ValueError):
        WeightKernelSpec(family=IMQ, threshold=-1.0).thresholds_for(1)


# ---------------------------------------------------------------------------
# robust_update: precision weight w (the rescaled covariance is R / w) and
# target observation


def zero_hph(d):
    """H P H^T = 0, so the marginal standardization is R itself."""
    return lambda: np.zeros((d, d))


def test_rescaled_cov_constant_recovers_r():
    rng = np.random.default_rng(3)
    r = random_spd(rng, 3)
    spec = WeightKernelSpec(family=CONSTANT)
    w, _ = robust_update(spec, rng.standard_normal(3), np.zeros(3), zero_hph(3), SpdFactor(r))
    assert np.allclose(r / w, r)


def test_rescaled_cov_examples():
    spec = WeightKernelSpec(family=IMQ, threshold=1.0)
    w_max, _ = robust_update(spec, np.array([0.0]), np.zeros(1), zero_hph(1), SpdFactor([[1.0]]))
    assert 1.0 / w_max[0] == pytest.approx(0.5)  # k^2 = 1
    w_half, _ = robust_update(
        spec, np.array([math.sqrt(3.0)]), np.zeros(1), zero_hph(1), SpdFactor([[3.0]])
    )
    assert 3.0 / w_half[0] == pytest.approx(3.0)  # s = 1, k^2 = 1/2


def test_rescaled_cov_block_assembly():
    rng = np.random.default_rng(4)
    r = np.zeros((3, 3))
    r[0:2, 0:2] = random_spd(rng, 2)
    r[2, 2] = 2.0
    spec = WeightKernelSpec(family=IMQ, threshold=[1.0, 4.0], block_partition=((0, 2), (2, 3)))
    hph = random_spd(rng, 3)
    y = rng.standard_normal(3)
    w, _ = robust_update(spec, y, np.zeros(3), lambda: hph, SpdFactor(r))
    ev = eval_kernel(spec, y, np.zeros(3), SpdFactor(hph + r))
    assert np.allclose(r[0:2, 0:2] / w[0:2], r[0:2, 0:2] / (2 * ev.k_sq[0]))
    assert np.all(w[0:2] == w[0])
    assert r[2, 2] / w[2] == pytest.approx(r[2, 2] / (2 * ev.k_sq[1]))


def test_robust_update_refuses_r_not_block_diagonal_over_the_partition():
    # Weighting R^{-1} blockwise is the blocked loss only for block-diagonal R.
    spec = WeightKernelSpec(family=IMQ, threshold=1.0, block_partition=((0, 1), (1, 2)))
    r = SpdFactor([[1.0, 0.6], [0.6, 1.0]])
    with pytest.raises(ValueError, match="block-diagonal"):
        robust_update(spec, np.array([1.0, 2.0]), np.zeros(2), zero_hph(2), r)
    model = LgssModel(
        A=np.eye(2), Q=np.eye(2), H=np.eye(2), R=r.matrix,
        prior=GaussianBelief(mean=np.zeros(2), cov=np.eye(2)),
    )
    with pytest.raises(ValueError, match="block-diagonal"):
        dsm_analysis(model, model.prior, np.array([1.0, 2.0]), spec)


def test_corrected_observation_identity_cases():
    rng = np.random.default_rng(5)
    y = rng.standard_normal(2)
    r = SpdFactor(np.eye(2))
    # Zero residual: gradient vanishes.
    spec = WeightKernelSpec(family=IMQ, threshold=1.0)
    _, target = robust_update(spec, y, y, zero_hph(2), r)
    assert np.allclose(target, y)
    # Constant family: gradient identically zero.
    spec_const = WeightKernelSpec(family=CONSTANT)
    _, target_const = robust_update(spec_const, y, np.zeros(2), zero_hph(2), r)
    assert np.array_equal(target_const, y)


def test_corrected_observation_hand_example():
    # Scalar IMQ, q^2 = 1, Sigma = 1, R = 1, center 0, y = 1:
    # k^2 = 1/2, grad = -1/2, N = R / w = 1, corrected = 1 - 2*1*(-1/2) = 2.
    spec = WeightKernelSpec(family=IMQ, threshold=1.0)
    ev = eval_kernel(spec, np.array([1.0]), np.zeros(1), SpdFactor([[1.0]]))
    assert ev.k_sq[0] == pytest.approx(0.5)
    assert ev.full_grads[0, 0] == pytest.approx(-0.5, rel=1e-12)
    w, target = robust_update(spec, np.array([1.0]), np.zeros(1), zero_hph(1), SpdFactor([[1.0]]))
    assert 1.0 / w[0] == pytest.approx(1.0)
    assert target[0] == pytest.approx(2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Tuning utilities


def test_jensen_bounds_table_values():
    lower, upper, mad = jensen_bounds(10, 10.0, IMQ)
    assert lower == pytest.approx(1.0)
    assert upper == pytest.approx(1.0 + math.sqrt(8.0) * math.sqrt(10.0) / 10.0, rel=1e-12)
    assert upper == pytest.approx(1.894, abs=5e-4)
    assert mad == pytest.approx(1.789, abs=5e-4)
    _, upper_1000, _ = jensen_bounds(1000, 1000.0, IMQ)
    assert 1.0 < upper_1000 < 1.1


def test_jensen_bounds_infinite_threshold_limit():
    lower, upper, mad = jensen_bounds(5, 1e12, IMQ)
    assert lower == pytest.approx(2.0, abs=1e-8)
    assert upper == pytest.approx(2.0, abs=1e-5)
    assert mad == pytest.approx(0.0, abs=1e-5)


def test_expected_weight_reference_values():
    # Exact value of E[2/(1 + Xi)], Xi ~ chi2(1), is about 1.3113.
    est = expected_weight_mc(1, 1.0, IMQ, n_samples=400_000, seed=11)
    assert est == pytest.approx(1.3113, abs=0.01)
    est_tuned = expected_weight_mc(1, 0.375, IMQ, n_samples=400_000, seed=11)
    assert est_tuned == pytest.approx(1.0, abs=0.01)


def test_high_dimensional_unbiasedness():
    gaps = [
        abs(expected_weight_mc(d, float(d), IMQ, n_samples=400_000, seed=21) - 1.0)
        for d in (10, 100, 1000)
    ]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.1


def test_default_thresholds():
    assert default_threshold(40, IMQ) == 40.0
    assert default_threshold(1, SQEXP) == pytest.approx(1.4427, abs=1e-4)
    assert default_threshold(1, IMQ) == 1.0


def test_tuned_threshold_scalar_case():
    tuned = tune_threshold(1, IMQ, n_samples=400_000, seed=3)
    assert tuned == pytest.approx(0.375, abs=0.02)
    # The squared-exponential default already hits the target at any d_y.
    tuned_sqexp = tune_threshold(1, SQEXP, n_samples=400_000, seed=3)
    est = expected_weight_mc(1, tuned_sqexp, SQEXP, n_samples=400_000, seed=3)
    assert est == pytest.approx(1.0, abs=6e-3)


def test_expected_weight_deterministic_under_seed():
    a = expected_weight_mc(3, 2.0, IMQ, n_samples=10_000, seed=42)
    b = expected_weight_mc(3, 2.0, IMQ, n_samples=10_000, seed=42)
    assert a == b

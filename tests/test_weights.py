import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_da import GaussianBelief, LgssModel, SpdFactor, dsm_analysis
from robust_da.weights import (
    CONSTANT,
    IMQ,
    MARGINAL,
    SQEXP,
    WOLF,
    WeightKernelSpec,
    default_threshold,
    eval_kernel,
    expected_weight_mc,
    jensen_bounds,
    robust_update,
    tune_threshold,
    weigh,
)
from helpers import block_kernel_looped, central_diff_gradient, random_spd


def test_zero_residual_gives_unit_weight_and_zero_gradient():
    rng = np.random.default_rng(0)
    cov = SpdFactor(random_spd(rng, 4))
    y = rng.standard_normal(4)
    for family in (IMQ, SQEXP):
        for partition in (None, ((0, 2), (2, 4))):
            spec = WeightKernelSpec(family=family, threshold=2.0, block_partition=partition)
            k_sq, log_grads = eval_kernel(spec, y, y, cov)
            assert np.allclose(k_sq, 1.0)
            assert np.allclose(k_sq[:, None] * log_grads, 0.0)


def test_scalar_imq_half_weight():
    spec = WeightKernelSpec(family=IMQ, threshold=1.0)
    k_sq, _ = eval_kernel(spec, np.array([1.0]), np.array([0.0]), SpdFactor([[1.0]]))
    assert k_sq[0] == pytest.approx(0.5, rel=1e-14)


def test_constant_family_is_exact_half():
    spec = WeightKernelSpec(family=CONSTANT)
    k_sq, log_grads = eval_kernel(spec, np.array([3.0, 1.0]), np.zeros(2), SpdFactor(np.eye(2)))
    assert np.all(k_sq == 0.5)
    assert np.all(k_sq[:, None] * log_grads == 0.0)


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
        k_sq, log_grads = eval_kernel(spec, y, center, cov)
        for b in range(len(k_sq)):
            fd = central_diff_gradient(
                lambda yy: eval_kernel(spec, yy, center, cov)[0][b], y
            )
            scale = max(np.linalg.norm(fd), 1e-8)
            assert np.linalg.norm(k_sq[b] * log_grads[b] - fd) / scale <= 1e-5
        checked += 1
    assert checked == 100


def test_kernel_bounded_on_random_sweep():
    rng = np.random.default_rng(2)
    cov = SpdFactor(random_spd(rng, 3))
    draws = rng.standard_normal((5_000, 3)) * rng.uniform(0.1, 100.0, size=(5_000, 1))
    for family in (IMQ, SQEXP):
        spec = WeightKernelSpec(family=family, threshold=1.5)
        values = np.array(
            [eval_kernel(spec, y, np.zeros(3), cov)[0][0] for y in draws]
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
            eval_kernel(spec, np.array([r]), np.zeros(1), cov)[0][0]
            for r in np.linspace(0.0, 10.0, 50)
        ]
        assert np.all(np.diff(values) < 0.0)


def test_block_kernel_of_a_residual_whose_whitening_overflows_has_zero_weight():
    # cov^{-1/2} (y - center) overflows with mixed signs, an inf - inf inside
    # the product with this residual; each block's weight is 0, not NaN.
    m = np.array([[4.0, 2, 5, -5], [2, 7, 3, -2], [5, 3, 14, -10], [-5, -2, -10, 11]])
    spec = WeightKernelSpec(family=IMQ, block_partition=((0, 2), (2, 4)))
    y = np.array([-1e307, -1e307, 1e307, 1e307])
    k_sq, log_grads = eval_kernel(spec, y, np.zeros(4), SpdFactor(1e-10 * m))
    np.testing.assert_array_equal(k_sq, [0.0, 0.0])
    np.testing.assert_array_equal(log_grads, np.zeros((2, 4)))


@pytest.mark.parametrize("partition", [((0, 1), (1, 2)), None])
def test_constant_kernel_gradient_is_zero_for_a_residual_too_large_to_whiten(partition):
    # cov^{-1/2} (y - center) overflows; the constant kernel's log k^2 is
    # flat, so its gradient is 0 for every finite residual, never 0 * inf.
    spec = WeightKernelSpec(family=CONSTANT, block_partition=partition)
    n_blocks = len(spec.partition_for(2))
    k_sq, log_grads = eval_kernel(
        spec, np.array([1e307, -1e307]), np.zeros(2), SpdFactor(1e-10 * np.eye(2))
    )
    np.testing.assert_array_equal(k_sq, np.full(n_blocks, 0.5))
    np.testing.assert_array_equal(log_grads, np.zeros((n_blocks, 2)))


@pytest.mark.parametrize("partition", [((0, 1), (1, 2)), None])
def test_an_element_whose_std_cov_no_jitter_repairs_gets_a_nan_weight(partition):
    # HPH^T + R = -9 I is masked by its factor: the multi-block pass gives
    # the element the single-block pass's NaN weight and target y, not full
    # weight from the root of the unrepaired matrix.
    spec = WeightKernelSpec(block_partition=partition)
    y = np.array([[3.0, 1.0]])
    w, target = robust_update(
        ((spec, slice(None)),), y, np.zeros((1, 2)), lambda rows: -10.0 * np.eye(2),
        SpdFactor(np.eye(2)),
    )
    assert np.isnan(w).all()
    np.testing.assert_array_equal(target, y)


@st.composite
def block_kernel_cases(draw):
    """(spec, y, center, hph, r_factor): a two- or three-block DSM kernel, IMQ
    or sq-exp, on d_Y 2 to 6 with R block-diagonal over its blocks, and 1 to
    5 observations whose residuals are up to 1e3, or log-uniform up to 1e307,
    per component.  HPH^T is None for the conditional standardization, else
    one matrix for every element or one per element.  The covariances are
    scaled by 10^e, e uniform on [-2, 2] or, in a quarter of the cases, on
    [-2, 300], so that a residual too large to square can have a finite s_b."""
    d_y = draw(st.integers(2, 6))
    cuts = draw(st.lists(st.integers(1, d_y - 1), min_size=1, max_size=min(2, d_y - 1), unique=True))
    partition = tuple(zip([0, *sorted(cuts)], [*sorted(cuts), d_y]))
    spec = WeightKernelSpec(
        family=draw(st.sampled_from([IMQ, SQEXP])),
        threshold=draw(st.one_of(st.none(), st.floats(0.5, 5.0))),
        standardization=draw(st.sampled_from(["marginal", "conditional"])),
        block_partition=partition,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 5))
    exponents = (-2, 300) if draw(st.integers(0, 3)) == 0 else (-2, 2)
    r = np.zeros((d_y, d_y))
    for start, stop in partition:
        r[start:stop, start:stop] = random_spd(rng, stop - start, scale=10.0 ** rng.uniform(*exponents))
    hph = None
    if spec.standardization == "marginal":
        hph = np.stack([random_spd(rng, d_y, scale=10.0 ** rng.uniform(*exponents)) for _ in range(n)])
        if draw(st.booleans()):
            hph = hph[0]
    sizes = np.where(rng.random((n, 1)) < 0.5, rng.uniform(-1, 3, (n, 1)), rng.uniform(-1, 307, (n, 1)))
    center = rng.standard_normal((n, d_y))
    y = center + 10.0 ** sizes * rng.uniform(-1.0, 1.0, (n, d_y))
    return spec, y, center, hph, SpdFactor(r)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(block_kernel_cases())
def test_block_kernel_is_the_looped_kernel_and_gives_the_blocked_update(case):
    # The stacked multi-block step gives the per-residual loop's weights and
    # gradients to round-off, exactly 0 wherever the loop's weight is 0, and
    # no overflow warning.  The sums run in another order: a sq-exp weight
    # scales the error of s_b by s_b / h^2, up to 745 before it underflows,
    # so k^2 gets rtol 1e-12 and a gradient 1e-14 of its largest entry (~45
    # ulps).  A value below the normal range is held to 1e-320 absolute.
    # robust_update's weights and target take the diagonal gradient blocks.
    spec, y, center, hph, r_factor = case
    r = r_factor.matrix
    std_cov = r_factor if hph is None else SpdFactor(hph + r)
    k_sq, log_grads = eval_kernel(spec, y, center, std_cov)
    k_ref, grads_ref = block_kernel_looped(spec, y, center, std_cov)
    zero = k_ref == 0.0
    assert np.all(k_sq[zero] == 0.0) and np.all(log_grads[zero] == 0.0)
    np.testing.assert_allclose(k_sq, k_ref, rtol=1e-12, atol=1e-320)
    bound = 1e-14 * np.abs(grads_ref).max(axis=-1, keepdims=True) + 1e-320
    assert np.all(np.abs(log_grads - grads_ref) <= bound)

    w, target = update_one(spec, y, center, lambda rows: hph, r_factor)
    d_y = y.shape[-1]
    block_of = np.repeat(np.arange(k_sq.shape[-1]), [b - a for a, b in spec.partition_for(d_y)])
    np.testing.assert_array_equal(w, 2.0 * k_sq[:, block_of])
    diagonal = log_grads[:, block_of, np.arange(d_y)]
    np.testing.assert_array_equal(target, y - (r @ diagonal[..., None])[..., 0])


def test_nonpositive_threshold_rejected():
    with pytest.raises(ValueError):
        WeightKernelSpec(family=IMQ, threshold=0.0).thresholds_for(1)
    with pytest.raises(ValueError):
        WeightKernelSpec(family=IMQ, threshold=-1.0).thresholds_for(1)


# ---------------------------------------------------------------------------
# robust_update: precision weight w (the rescaled covariance is R / w) and
# target observation


def update_one(spec, y, center, hph, r_factor):
    """``robust_update`` with one spec weighting every row."""
    return robust_update(((spec, slice(None)),), y, center, hph, r_factor)


def zero_hph(d):
    """H P H^T = 0, so the marginal standardization is R itself."""
    return lambda rows: np.zeros((d, d))


def test_rescaled_cov_constant_recovers_r():
    rng = np.random.default_rng(3)
    r = random_spd(rng, 3)
    spec = WeightKernelSpec(family=CONSTANT)
    w, _ = update_one(spec, rng.standard_normal(3), np.zeros(3), zero_hph(3), SpdFactor(r))
    assert np.allclose(r / w, r)


def test_rescaled_cov_examples():
    spec = WeightKernelSpec(family=IMQ, threshold=1.0)
    w_max, _ = update_one(spec, np.array([0.0]), np.zeros(1), zero_hph(1), SpdFactor([[1.0]]))
    assert 1.0 / w_max[0] == pytest.approx(0.5)  # k^2 = 1
    w_half, _ = update_one(
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
    w, _ = update_one(spec, y, np.zeros(3), lambda rows: hph, SpdFactor(r))
    k_sq, _ = eval_kernel(spec, y, np.zeros(3), SpdFactor(hph + r))
    assert np.allclose(r[0:2, 0:2] / w[0:2], r[0:2, 0:2] / (2 * k_sq[0]))
    assert np.all(w[0:2] == w[0])
    assert r[2, 2] / w[2] == pytest.approx(r[2, 2] / (2 * k_sq[1]))


def test_robust_update_refuses_r_not_block_diagonal_over_the_partition():
    # Weighting R^{-1} blockwise is the blocked loss only for block-diagonal R.
    spec = WeightKernelSpec(family=IMQ, threshold=1.0, block_partition=((0, 1), (1, 2)))
    r = SpdFactor([[1.0, 0.6], [0.6, 1.0]])
    with pytest.raises(ValueError, match="block-diagonal"):
        update_one(spec, np.array([1.0, 2.0]), np.zeros(2), zero_hph(2), r)
    model = LgssModel(
        A=np.eye(2), Q=np.eye(2), H=np.eye(2), R=r.matrix,
        prior=GaussianBelief(mean=np.zeros(2), cov=np.eye(2)),
    )
    with pytest.raises(ValueError, match="block-diagonal"):
        dsm_analysis(model, model.prior, np.array([1.0, 2.0]), spec)


def test_block_diagonal_r_is_judged_relative_to_its_diagonal():
    # A 0.6 correlation is off-block at any scale; an off-block entry of
    # 2e-13 sqrt(r_ii r_jj) is round-off at any scale.
    spec = WeightKernelSpec(family=IMQ, threshold=1.0, block_partition=((0, 1), (1, 2)))
    y = np.array([1e-7, 2e-7])
    with pytest.raises(ValueError, match="block-diagonal"):
        update_one(spec, y, np.zeros(2), zero_hph(2), SpdFactor(1e-14 * np.array([[1.0, 0.6], [0.6, 1.0]])))
    r = 1e10 * np.eye(2)
    r[0, 1] = r[1, 0] = 2e-12
    w, target = update_one(spec, 1e5 * y, np.zeros(2), zero_hph(2), SpdFactor(r))
    assert np.all(np.isfinite(w)) and np.all(np.isfinite(target))


def test_corrected_observation_identity_cases():
    rng = np.random.default_rng(5)
    y = rng.standard_normal(2)
    r = SpdFactor(np.eye(2))
    # Zero residual: gradient vanishes.
    spec = WeightKernelSpec(family=IMQ, threshold=1.0)
    _, target = update_one(spec, y, y, zero_hph(2), r)
    assert np.allclose(target, y)
    # Constant family: gradient identically zero.
    spec_const = WeightKernelSpec(family=CONSTANT)
    _, target_const = update_one(spec_const, y, np.zeros(2), zero_hph(2), r)
    assert np.array_equal(target_const, y)


def test_corrected_observation_hand_example():
    # Scalar IMQ, q^2 = 1, Sigma = 1, R = 1, center 0, y = 1:
    # k^2 = 1/2, grad = -1/2, N = R / w = 1, corrected = 1 - 2*1*(-1/2) = 2.
    spec = WeightKernelSpec(family=IMQ, threshold=1.0)
    k_sq, log_grads = eval_kernel(spec, np.array([1.0]), np.zeros(1), SpdFactor([[1.0]]))
    assert k_sq[0] == pytest.approx(0.5)
    assert k_sq[0] * log_grads[0, 0] == pytest.approx(-0.5, rel=1e-12)
    w, target = update_one(spec, np.array([1.0]), np.zeros(1), zero_hph(1), SpdFactor([[1.0]]))
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


def test_the_wolf_family_is_the_wolf_weight_and_adds_no_capability():
    s = np.array([0.0, 1.5, 40.0, np.inf])
    for standardization, r_sq in (("conditional", 1.0), ("marginal", 2.0)):
        spec = WeightKernelSpec(family=WOLF, standardization=standardization)
        k_sq, slope = weigh(spec, s, 3.0)
        np.testing.assert_array_equal(2.0 * k_sq, r_sq / (1.0 + s / 3.0))
        assert slope == 0.0
    assert default_threshold(3, WOLF) == 3.0
    # The default standardization is every family's, marginal: the
    # sigma-scaled WoLF weight.
    assert WeightKernelSpec(family=WOLF).standardization == MARGINAL
    with pytest.raises(ValueError, match="one block"):
        WeightKernelSpec(family=WOLF, block_partition=((0, 1), (1, 2)))
    # The chi-square calibrations are the DSM kernels' alone.
    with pytest.raises(ValueError):
        jensen_bounds(2, 2.0, WOLF)
    with pytest.raises(ValueError):
        expected_weight_mc(2, 2.0, WOLF, n_samples=10)
    with pytest.raises(ValueError):
        tune_threshold(2, WOLF, n_samples=10)


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

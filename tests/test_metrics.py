import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from robust_da import MetricReport, SpdFactor, ci_coverage, q_ic, q_log, rmse
from robust_da.metrics import _Z_95, q_ic_series
from helpers import ci_coverage_stepwise, q_ic_series_stepwise


# ---------------------------------------------------------------------------
# RMSE


def test_rmse_examples():
    assert rmse(np.zeros((3, 4)), np.zeros((3, 4))) == 0.0
    assert rmse(np.array([0.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    truth = rng.standard_normal((5, 7))
    assert rmse(truth, truth + 0.3) == pytest.approx(0.3, rel=1e-12)


def test_rmse_matches_direct_summation_oracle():
    rng = np.random.default_rng(1)
    truth = rng.standard_normal((20, 3))
    est = truth + rng.standard_normal((20, 3))
    total = 0.0
    for i in range(20):
        for j in range(3):
            total += (truth[i, j] - est[i, j]) ** 2
    expected = np.sqrt(total / 60.0)
    assert abs(rmse(truth, est) - expected) <= 1e-12


def test_rmse_invariant_under_reordering():
    rng = np.random.default_rng(2)
    truth = rng.standard_normal((10, 4))
    est = rng.standard_normal((10, 4))
    perm_t = rng.permutation(10)
    perm_d = rng.permutation(4)
    assert rmse(truth, est) == pytest.approx(
        rmse(truth[perm_t][:, perm_d], est[perm_t][:, perm_d]), rel=1e-14
    )


@pytest.mark.parametrize("big", [1e160, 1e200, 1.7976931348623157e308])
def test_rmse_of_a_finite_error_too_large_to_square_is_finite(big):
    # Where the squares overflow, the error is rescaled by a power of two;
    # elsewhere the result is the plain formula's, and a non-finite error
    # still gives a non-finite RMSE.
    with np.errstate(over="ignore", invalid="ignore"):
        assert rmse(np.array([big, -big]), np.zeros(2)) == big
        assert rmse(np.array([[big, 0.0], [0.0, 0.0]]), np.zeros((2, 2))) == big / 2.0
        assert rmse(np.array([np.inf, 1.0]), np.zeros(2)) == np.inf
        assert np.isnan(rmse(np.array([np.nan, big]), np.zeros(2)))


def test_rmse_shape_mismatch():
    with pytest.raises(ValueError):
        rmse(np.zeros(3), np.zeros(4))


# ---------------------------------------------------------------------------
# q-logarithm


def test_q_log_at_one_and_zero():
    assert q_log(1.0, 0.9) == 0.0
    assert q_log(0.0, 0.9) == -10.0


def test_q_log_recovers_natural_log():
    for x in (0.5, 2.0):
        assert q_log(x, 0.999999) == pytest.approx(np.log(x), abs=1e-4)


def test_q_log_dominates_natural_log():
    # (x^t - 1)/t is nondecreasing in t (convexity of t -> x^t), so the
    # deformed logarithm lies on or above ln for q < 1, touching it at x = 1.
    # Consequently the deformed criterion -log_q never exceeds the Shannon one.
    for x in np.linspace(0.01, 50.0, 60):
        assert q_log(x, 0.9) >= np.log(x) - 1e-12
    assert q_log(1.0, 0.9) == 0.0


def test_q_log_rejects_negative_input_and_bad_q():
    with pytest.raises(ValueError):
        q_log(-0.1, 0.9)
    with pytest.raises(ValueError):
        q_log(1.0, 1.0)


# ---------------------------------------------------------------------------
# q-information criterion


def test_q_ic_matches_direct_density_formula():
    truth = np.zeros((1, 1))
    means = np.zeros((1, 1))
    covs = np.ones((1, 1, 1))
    density = 1.0 / np.sqrt(2.0 * np.pi)
    expected = -q_log(density, 0.9)
    assert q_ic(truth, means, covs) == pytest.approx(expected, rel=1e-12)


def test_q_ic_extreme_outlier_hits_cap():
    truth = np.array([[1e6]])
    means = np.zeros((1, 1))
    covs = np.ones((1, 1, 1))
    assert q_ic(truth, means, covs) == 10.0


def test_q_ic_bounded_above_by_cap():
    rng = np.random.default_rng(3)
    truth = rng.standard_normal((50, 2)) * 100.0
    means = rng.standard_normal((50, 2))
    covs = np.tile(np.eye(2), (50, 1, 1)) * 0.01
    assert q_ic(truth, means, covs) <= 10.0


def test_q_ic_diagonalize_noop_for_diagonal_covariance():
    rng = np.random.default_rng(4)
    truth = rng.standard_normal((10, 3))
    means = rng.standard_normal((10, 3))
    covs = np.tile(np.diag([0.5, 1.0, 2.0]), (10, 1, 1))
    assert q_ic(truth, means, covs, diagonalize=True) == pytest.approx(
        q_ic(truth, means, covs, diagonalize=False), rel=1e-12
    )


def test_q_ic_diagonalize_differs_for_correlated_covariance():
    truth = np.array([[1.0, -1.0]])
    means = np.zeros((1, 2))
    cov = np.array([[[1.0, 0.9], [0.9, 1.0]]])
    assert q_ic(truth, means, cov, diagonalize=True) != pytest.approx(
        q_ic(truth, means, cov, diagonalize=False)
    )


def test_q_ic_monotone_in_density():
    # Larger residual -> smaller density -> larger criterion.
    means = np.zeros((1, 1))
    covs = np.ones((1, 1, 1))
    values = [q_ic(np.array([[r]]), means, covs) for r in (0.0, 0.5, 1.0, 3.0, 10.0)]
    assert np.all(np.diff(values) > 0.0)


def test_q_ic_rejects_degenerate_diagonal():
    with pytest.raises(ValueError):
        q_ic(np.zeros((1, 1)), np.zeros((1, 1)), -np.ones((1, 1, 1)), diagonalize=True)


def test_q_ic_zero_variance_dimension_scores_the_cap():
    # A zero variance puts no density on the truth: log-density -inf, score 10.
    covs = np.diag([1.0, 0.0, 2.0])[None]
    assert q_ic(np.zeros((1, 3)), np.full((1, 3), 0.1), covs, diagonalize=True) == 10.0


def test_q_ic_refuses_covariances_of_another_dimension():
    with pytest.raises(ValueError, match="expected"):
        q_ic(np.zeros((4, 3)), np.zeros((4, 3)), np.ones((4, 1, 1)))
    with pytest.raises(ValueError, match="expected"):
        ci_coverage(np.zeros((4, 3)), np.zeros((4, 3)), np.ones(4))


# ---------------------------------------------------------------------------
# Stacked scoring against the per-step loops


@st.composite
def scored_runs(draw):
    """(truth, means, covariances) of a run of 1 to 40 steps of a 1- to
    6-dimensional state: slightly asymmetric SPD covariances, scaled per step
    by 1e-3 to 1e3, given as (T, d, d), or for d = 1 as (T, 1, 1) or (T,);
    residuals scaled per step by 1e-3 to 1e3."""
    d = draw(st.integers(1, 6))
    n = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(["stack", "flat"] if d == 1 else ["stack"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, d, d))
    covs = (a @ a.transpose(0, 2, 1) + d * np.eye(d)) * 10.0 ** rng.uniform(-3, 3, (n, 1, 1))
    covs = covs * (1.0 + 1e-12 * rng.standard_normal((n, d, d)))
    means = rng.standard_normal((n, d))
    truth = means + rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
    return truth, means, covs[:, 0, 0] if shape == "flat" else covs


METRIC_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@METRIC_SETTINGS
@given(scored_runs())
def test_stacked_q_ic_matches_the_per_step_loop(run):
    # The stacked substitution sums in another order than LAPACK's: the
    # scores agree to rel 1e-13, or 1e-13 where a score cancels to near 0,
    # since its drift is then relative to the density's terms of order one.
    np.testing.assert_allclose(
        q_ic_series(*run), q_ic_series_stepwise(*run), rtol=1e-13, atol=1e-13
    )


@METRIC_SETTINGS
@given(scored_runs(), st.booleans())
def test_stacked_diagonal_q_ic_and_coverage_equal_the_per_step_loop(run, collapse):
    truth, means, covs = run
    if collapse:  # a zero variance at one step scores that step's cap
        covs = covs.copy()
        if covs.ndim == 1:
            covs[len(covs) // 2] = 0.0
        else:
            covs[len(covs) // 2, 0, 0] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        oracle = q_ic_series_stepwise(truth, means, covs, diagonalize=True)
    np.testing.assert_array_equal(q_ic_series(truth, means, covs, diagonalize=True), oracle)
    assert ci_coverage(truth, means, covs) == ci_coverage_stepwise(truth, means, covs)


def _fallback_run(step_cov, step_residual=None, n=12, d=2):
    """A regular run with one step's covariance and residual replaced."""
    rng = np.random.default_rng(11)
    a = rng.standard_normal((n, d, d))
    covs = a @ a.transpose(0, 2, 1) + np.eye(d)
    covs[5] = step_cov
    means = rng.standard_normal((n, d))
    truth = means + rng.standard_normal((n, d))
    if step_residual is not None:
        truth[5] = means[5] + step_residual
    return truth, means, covs


def _score_like_the_per_step_loop(truth, means, covs):
    """Score the run as a direct caller does, with every warning an error and
    no LinAlgError caught, and check the scores against the per-step loop."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = q_ic_series(truth, means, covs)
        report = MetricReport.evaluate(truth, means, covs)
    with np.errstate(over="ignore", invalid="ignore"):
        oracle = q_ic_series_stepwise(truth, means, covs)
    np.testing.assert_array_equal(series, oracle)
    assert report.q_ic == float(np.mean(oracle))
    assert report.ci_coverage_95 == ci_coverage_stepwise(truth, means, covs)
    return series


def test_a_step_needing_cholesky_jitter_scores_as_per_step():
    singular = np.ones((2, 2))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(singular)
    SpdFactor(singular)  # the jitter repairs it
    series = _score_like_the_per_step_loop(*_fallback_run(singular, np.array([0.5, 0.5])))
    assert np.isfinite(series).all()


def test_a_collapsed_particle_filter_step_scores_the_cap_as_per_step():
    series = _score_like_the_per_step_loop(*_fallback_run(np.zeros((2, 2))))
    assert series[5] == 10.0
    assert (series[np.arange(12) != 5] < 10.0).all()


def test_a_finite_residual_whose_square_overflows_scores_the_cap_as_per_step():
    # The whitened residual overflows to inf and 0 * inf makes the stacked
    # square NaN; the per-step power-of-two redo gives inf, hence the cap.
    huge = np.array([1.7e308, -1.7e308])
    series = _score_like_the_per_step_loop(*_fallback_run(0.01 * np.eye(2), huge))
    assert series[5] == 10.0
    assert np.isfinite(series).all()


# ---------------------------------------------------------------------------
# CI coverage


def test_ci_coverage_calibrated():
    rng = np.random.default_rng(5)
    n = 10_000
    means = rng.standard_normal((n, 1))
    covs = np.ones((n, 1, 1)) * 2.0
    truth = means + np.sqrt(2.0) * rng.standard_normal((n, 1))
    cov = ci_coverage(truth, means, covs)
    se = np.sqrt(0.95 * 0.05 / n)
    assert abs(cov - 0.95) <= 3.0 * se


def test_coverage_z_is_the_95_percent_normal_quantile():
    assert _Z_95 == norm.ppf(0.975)


def test_ci_coverage_degenerate_cases():
    truth = np.ones((5, 2))
    means = np.zeros((5, 2))
    covs = np.zeros((5, 2, 2))
    assert ci_coverage(truth, means, covs) == 0.0
    assert ci_coverage(means, means, covs) == 1.0


def test_metric_report_bundle():
    rng = np.random.default_rng(6)
    truth = rng.standard_normal((30, 2))
    means = truth + 0.1 * rng.standard_normal((30, 2))
    covs = np.tile(np.eye(2) * 0.01, (30, 1, 1))
    report = MetricReport.evaluate(truth, means, covs)
    assert report.rmse > 0.0
    assert report.q_ic <= 10.0
    assert 0.0 <= report.ci_coverage_95 <= 1.0
    assert report.rmse == rmse(truth, means)
    assert report.q_ic == float(np.mean(q_ic_series(truth, means, covs)))
    assert report.ci_coverage_95 == ci_coverage(truth, means, covs)
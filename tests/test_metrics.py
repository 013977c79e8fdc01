import numpy as np
import pytest

from robust_da import MetricReport, ci_coverage, q_ic, q_log, rmse


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


# ---------------------------------------------------------------------------
# CI coverage


def test_ci_coverage_calibrated():
    rng = np.random.default_rng(5)
    n = 10_000
    means = rng.standard_normal((n, 1))
    covs = np.ones((n, 1, 1)) * 2.0
    truth = means + np.sqrt(2.0) * rng.standard_normal((n, 1))
    cov = ci_coverage(truth, means, covs, level=0.95)
    se = np.sqrt(0.95 * 0.05 / n)
    assert abs(cov - 0.95) <= 3.0 * se


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
    assert report.rmse_series.shape == (30,)
    assert report.q_ic_series.shape == (30,)
    assert np.sqrt(np.mean(report.rmse_series**2)) == pytest.approx(report.rmse, rel=1e-12)
    assert report.q_ic_series.mean() == pytest.approx(report.q_ic, rel=1e-12)
"""The paper's four Monte-Carlo claims, each computed by one function here:
E[2 k^2] inside its Jensen sandwich, the ESRF's exact analysis covariance,
and the 1/sqrt(M) rates of the frozen-gain stochastic EnKF and of the
particle filter.  ``run_checks`` (the ``verify`` subcommand) runs them at one
seed with its own tolerances; acceptance criteria 04, 06 and 13 call the same
functions with their own seeds, sample sizes, repetitions and tolerances.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .analysis import dsm_analysis
from .ensemble import EnsembleState, enkf_perturbed_analysis, esrf_analysis
from .lgss import GaussianBelief, LgssModel
from .particle import ParticleCloud, pf_step
from .weights import CONSTANT, IMQ, WeightKernelSpec, expected_weight_mc, jensen_bounds

__all__ = ["run_checks"]

MC_SIZES = (100, 1000, 10_000, 100_000)


def _scalar_model() -> LgssModel:
    return LgssModel(
        A=[[0.7]], Q=[[1.3]], H=[[1.0]], R=[[1.0]],
        prior=GaussianBelief(mean=[0.0], cov=[[1.0]]),
    )


def _fit_slope(sizes, errors) -> float:
    return float(np.polyfit(np.log(sizes), np.log(errors), 1)[0])


def expected_weight_sandwich(
    dims: Sequence[int], n_samples: int, seed: int
) -> list[tuple[int, float, float, float]]:
    """(d_Y, lower, estimate, upper) per d_Y: the Monte-Carlo E[2 k^2(Xi)],
    Xi ~ chi2(d_Y), of the IMQ kernel at q^2 = d_Y drawn with seed
    ``seed + d_Y``, between its Jensen bounds."""
    rows = []
    for d_y in dims:
        lower, upper, _ = jensen_bounds(d_y, float(d_y), IMQ)
        estimate = expected_weight_mc(d_y, float(d_y), IMQ, n_samples=n_samples, seed=seed + d_y)
        rows.append((d_y, lower, estimate, upper))
    return rows


def esrf_covariance_error(
    model: LgssModel, spec: WeightKernelSpec, rng: np.random.Generator, sizes: Sequence[int]
) -> float:
    """Largest relative Frobenius error of the ESRF analysis covariance
    against the closed-form DSM analysis at the ensemble's own moments; per M,
    M members from N(0, 1.4^2 I), then y from N(0, 2^2 I)."""
    worst = 0.0
    for m in sizes:
        ensemble = EnsembleState(members=rng.standard_normal((model.d_x, m)) * 1.4)
        y = rng.standard_normal(model.d_y) * 2.0
        updated = esrf_analysis(ensemble, model.observation, y, spec)
        forecast = GaussianBelief(mean=ensemble.mean, cov=ensemble.cov)
        closed = dsm_analysis(model, forecast, y, spec).posterior
        worst = max(worst, np.linalg.norm(updated.cov - closed.cov) / np.linalg.norm(closed.cov))
    return worst


def enkf_rate(rng: np.random.Generator, sizes: Sequence[int], reps: int) -> tuple[float, float]:
    """Log-log slopes against M of the stochastic EnKF's mean absolute errors
    in the analysis mean and variance, over ``reps`` ensembles per M: forecast
    N(0, 1), y = 2, IMQ at q^2 = 1, against the closed-form DSM analysis.

    Each ensemble is standardized so that its empirical mean and variance are
    the forecast's, which freezes the gain and weight at the closed form's:
    the errors come from the perturbed observations alone.
    """
    model = _scalar_model()
    spec = WeightKernelSpec(family=IMQ, threshold=1.0)
    y = np.array([2.0])
    target = dsm_analysis(model, GaussianBelief(mean=[0.0], cov=[[1.0]]), y, spec).posterior
    mean_errors, var_errors = [], []
    for m in sizes:
        mean_errs, var_errs = [], []
        for _ in range(reps):
            draws = rng.standard_normal((1, m))
            draws -= draws.mean()
            ensemble = EnsembleState(members=draws / draws.std(ddof=1))
            updated = enkf_perturbed_analysis(ensemble, model.observation, y, spec, rng=rng)
            mean_errs.append(abs(updated.mean[0] - target.mean[0]))
            var_errs.append(abs(updated.cov[0, 0] - target.cov[0, 0]))
        mean_errors.append(np.mean(mean_errs))
        var_errors.append(np.mean(var_errs))
    return _fit_slope(sizes, mean_errors), _fit_slope(sizes, var_errors)


def pf_rate(
    rng: np.random.Generator, sizes: Sequence[int], reps: int
) -> tuple[float, float, float]:
    """(error, standard error, slope) of the particle filter's weighted mean:
    one step from the prior N(0, 1), forecast N(0, 1.79), y = 1.5, constant
    kernel, against the Kalman analysis.  First one cloud of the largest size
    with its error and sqrt(P^a / ESS), then the log-log slope against M of
    the mean absolute error over ``reps`` clouds per size."""
    model = _scalar_model()
    spec = WeightKernelSpec(family=CONSTANT)
    y = np.array([1.5])
    forecast = GaussianBelief(mean=[0.0], cov=[[0.7**2 + 1.3]])
    target = dsm_analysis(model, forecast, y, spec).posterior

    def dynamics(members, rng):
        return 0.7 * members + np.sqrt(1.3) * rng.standard_normal(members.shape)

    def error(m):
        cloud = ParticleCloud.uniform(rng.standard_normal((1, m)))
        stepped = pf_step(cloud, dynamics, y, model.observation, spec, rng, resample_threshold=0.0)
        return abs(stepped.weighted_mean()[0] - target.mean[0]), stepped.ess

    large_error, ess = error(sizes[-1])
    errors = [np.mean([error(m)[0] for _ in range(reps)]) for m in sizes]
    return large_error, float(np.sqrt(target.cov[0, 0] / ess)), _fit_slope(sizes, errors)


def _verdicts(seed: int) -> Iterator[tuple[str, bool, str]]:
    margin = 3.0 * 2.0 / np.sqrt(10**6)  # 3 sigma with sd(2k^2) < 2
    outside = [
        f"d_y={d}: {est:.4f} outside [{lo:.4f}, {hi:.4f}]"
        for d, lo, est, hi in expected_weight_sandwich((1, 10, 100, 1000), 10**6, seed)
        if not lo - margin <= est <= hi + margin
    ]
    yield "jensen_sandwich", not outside, "; ".join(outside) or (
        "E[2k^2] within Jensen sandwich for d_y in {1,10,100,1000}"
    )
    spec = WeightKernelSpec(family=IMQ, threshold=1.0)
    worst = esrf_covariance_error(_scalar_model(), spec, np.random.default_rng(seed), (3, 10, 50))
    yield "esrf_second_moment", worst < 1e-8, f"max relative covariance error {worst:.2e}"
    slopes = enkf_rate(np.random.default_rng(seed), MC_SIZES, reps=20)
    yield "enkf_mc_rate", all(abs(s + 0.5) < 0.15 for s in slopes), (
        "log-log slopes mean {:.3f}, variance {:.3f} (target -0.5 +/- 0.15)".format(*slopes)
    )
    error, se, slope = pf_rate(np.random.default_rng(seed), MC_SIZES, reps=20)
    yield "pf_mc_rate", error <= 3.0 * se and abs(slope + 0.5) < 0.15, (
        f"M=1e5 error {error:.5f} (3 SE = {3 * se:.5f}); "
        f"log-log slope {slope:.3f} (target -0.5 +/- 0.15)"
    )


def run_checks(seed: int = 0, verbose: bool = False) -> int:
    failures = 0
    for name, ok, detail in _verdicts(seed):
        failures += 0 if ok else 1
        if verbose:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return failures

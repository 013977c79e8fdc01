"""Heavy Monte-Carlo consistency checks behind the ``verify`` subcommand.

These are the oracle-style checks that are too expensive for every unit-test
run: the chi-square sandwich on the expected weight, ensemble coupling
consistency, and the particle-limit rate.
"""

from __future__ import annotations

import numpy as np

from .analysis import dsm_analysis
from .ensemble import EnsembleState, enkf_perturbed_analysis, esrf_analysis
from .lgss import GaussianBelief, LgssModel
from .particle import ParticleCloud, pf_step
from .weights import IMQ, WeightKernelSpec, expected_weight_mc, jensen_bounds

__all__ = ["run_checks"]


def _scalar_model() -> LgssModel:
    return LgssModel(
        A=[[0.7]], Q=[[1.3]], H=[[1.0]], R=[[1.0]],
        prior=GaussianBelief(mean=[0.0], cov=[[1.0]]),
    )


def check_jensen_sandwich(seed: int) -> tuple[bool, str]:
    """MC estimate of E[2 k^2] lies inside the analytic sandwich, q^2 = d_Y."""
    for d_y in (1, 10, 100, 1000):
        lower, upper, _ = jensen_bounds(d_y, float(d_y), IMQ)
        estimate = expected_weight_mc(d_y, float(d_y), IMQ, n_samples=10**6, seed=seed + d_y)
        margin = 3.0 * 2.0 / np.sqrt(10**6)  # 3 sigma with sd(2k^2) < 2
        if not (lower - margin <= estimate <= upper + margin):
            return False, f"d_y={d_y}: {estimate:.4f} outside [{lower:.4f}, {upper:.4f}]"
    return True, "E[2k^2] within Jensen sandwich for d_y in {1,10,100,1000}"


def check_esrf_second_moment(seed: int) -> tuple[bool, str]:
    """Empirical ESRF analysis covariance equals the closed form exactly."""
    rng = np.random.default_rng(seed)
    model = _scalar_model()
    worst = 0.0
    for m in (3, 10, 50):
        members = rng.normal(size=(1, m))
        ensemble = EnsembleState(members=members)
        spec = WeightKernelSpec(family=IMQ, threshold=1.0)
        updated = esrf_analysis(ensemble, model.observation, [1.5], spec)
        forecast = GaussianBelief(mean=ensemble.mean, cov=ensemble.cov)
        closed = dsm_analysis(model, forecast, [1.5], spec).posterior
        err = abs(updated.cov[0, 0] - closed.cov[0, 0]) / closed.cov[0, 0]
        worst = max(worst, err)
    ok = worst < 1e-8
    return ok, f"max relative covariance error {worst:.2e}"


def _fit_slope(sizes, errors) -> float:
    return float(np.polyfit(np.log(sizes), np.log(errors), 1)[0])


def check_enkf_rate(seed: int) -> tuple[bool, str]:
    """Frozen-gain stochastic EnKF mean error shrinks like 1/sqrt(M)."""
    model = _scalar_model()
    forecast = GaussianBelief(mean=[0.0], cov=[[1.0]])
    spec = WeightKernelSpec(family=IMQ, threshold=1.0)
    y = np.array([2.0])
    target = dsm_analysis(model, forecast, y, spec).posterior.mean[0]
    rng = np.random.default_rng(seed)
    sizes = [100, 1000, 10000, 100000]
    errors = []
    for m in sizes:
        errs = []
        for _ in range(20):
            members = forecast.mean[:, None] + np.sqrt(forecast.cov[0, 0]) * rng.normal(
                size=(1, m)
            )
            updated = enkf_perturbed_analysis(
                EnsembleState(members=members), model.observation, y, spec,
                rng=rng, forecast_override=forecast,
            )
            errs.append(abs(updated.mean[0] - target))
        errors.append(np.mean(errs))
    slope = _fit_slope(sizes, errors)
    ok = abs(slope + 0.5) < 0.15
    return ok, f"log-log slope {slope:.3f} (target -0.5 +/- 0.15)"


def check_pf_rate(seed: int) -> tuple[bool, str]:
    """Particle-filter weighted mean converges at the Monte-Carlo rate."""
    model = _scalar_model()
    spec = WeightKernelSpec(family="constant")
    y = np.array([1.0])

    def dynamics(members, rng):
        return 0.7 * members + np.sqrt(1.3) * rng.standard_normal(members.shape)

    # Prior N(0, 1) pushed through the dynamics gives the forecast N(0, 1.79).
    forecast = GaussianBelief(mean=[0.0], cov=[[0.7**2 * 1.0 + 1.3]])
    target = dsm_analysis(model, forecast, y, spec).posterior.mean[0]
    rng = np.random.default_rng(seed)
    sizes = [100, 1000, 10000, 100000]
    errors = []
    for m in sizes:
        errs = []
        for _ in range(20):
            particles = rng.normal(size=(1, m))  # x ~ N(0, 1)
            cloud = ParticleCloud.uniform(particles)
            stepped = pf_step(
                cloud, dynamics, y, model.observation, spec, rng, resample_threshold=0.0
            )
            errs.append(abs(stepped.weighted_mean()[0] - target))
        errors.append(np.mean(errs))
    slope = _fit_slope(sizes, errors)
    ok = abs(slope + 0.5) < 0.15
    return ok, f"log-log slope {slope:.3f} (target -0.5 +/- 0.15)"


def run_checks(seed: int = 0, verbose: bool = False) -> int:
    checks = [
        ("jensen_sandwich", check_jensen_sandwich),
        ("esrf_second_moment", check_esrf_second_moment),
        ("enkf_mc_rate", check_enkf_rate),
        ("pf_mc_rate", check_pf_rate),
    ]
    failures = 0
    for name, fn in checks:
        ok, detail = fn(seed)
        failures += 0 if ok else 1
        if verbose:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return failures

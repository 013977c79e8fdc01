"""Property tests for the shared robust-update core over random SPD systems.

Systems have 1 to 6 state and observation dimensions and residuals
|y - H m^f| up to 1e3 per component.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_da import GaussianBelief, LgssModel, dsm_analysis, kf_analysis, wolf_analysis
from robust_da.analysis import information_form_update
from robust_da.weights import CONSTANT, IMQ, SQEXP, WeightKernelSpec, WolfSpec, robust_update
from helpers import random_spd

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def systems(draw):
    """(model, forecast, y) with random SPD P^f and R and |y - H m^f| <= 1e3."""
    d_x = draw(st.integers(1, 6))
    d_y = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    magnitude = draw(st.floats(0.0, 1e3))
    model = LgssModel(
        A=np.eye(d_x), Q=np.eye(d_x),
        H=rng.standard_normal((d_y, d_x)), R=random_spd(rng, d_y, scale=10.0 ** rng.uniform(-2, 2)),
        prior=GaussianBelief(mean=np.zeros(d_x), cov=np.eye(d_x)),
    )
    forecast = GaussianBelief(
        mean=rng.standard_normal(d_x) * 3.0,
        cov=random_spd(rng, d_x, scale=10.0 ** rng.uniform(-2, 2)),
    )
    direction = rng.uniform(-1.0, 1.0, d_y)
    y = model.H @ forecast.mean + magnitude * direction
    return model, forecast, y


def assert_close_relative(actual, expected, rtol):
    """Entry-wise agreement within rtol of the largest entry of ``expected``."""
    scale = max(np.abs(expected).max(), np.finfo(float).tiny)
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=rtol * scale)


@PROPERTY_SETTINGS
@given(systems(), st.sampled_from(["marginal", "conditional"]))
def test_constant_kernel_is_the_kalman_filter_bit_for_bit(system, standardization):
    model, forecast, y = system
    spec = WeightKernelSpec(family=CONSTANT, standardization=standardization)
    h = model.H
    effective_r, target, evaluation = robust_update(
        spec, y, h @ forecast.mean, lambda: h @ forecast.cov @ h.T, model.observation.r_factor
    )
    np.testing.assert_array_equal(effective_r, model.R)
    np.testing.assert_array_equal(target, y)
    assert np.all(evaluation.k_sq == 0.5)

    robust = dsm_analysis(model, forecast, y, spec).posterior
    regular = kf_analysis(model, forecast, y)
    np.testing.assert_array_equal(robust.mean, regular.mean)
    np.testing.assert_array_equal(robust.cov, regular.cov)


@PROPERTY_SETTINGS
@given(
    systems(),
    st.sampled_from(
        [
            WeightKernelSpec(family=IMQ),
            WeightKernelSpec(family=IMQ, standardization="conditional"),
            WeightKernelSpec(family=SQEXP, threshold=4.0),
            WolfSpec(variant="md"),
            WolfSpec(variant="sigma_scaled"),
        ]
    ),
)
def test_gain_form_equals_information_form(system, spec):
    model, forecast, y = system
    analyse = wolf_analysis if isinstance(spec, WolfSpec) else dsm_analysis
    result = analyse(model, forecast, y, spec)
    # N = R / (2 k^2) for every spec, WoLF's r^2 / 2 included.
    np.testing.assert_array_equal(result.rescaled_cov, model.R / (2.0 * result.kernel_eval.k_sq[0]))
    info = information_form_update(forecast, model.H, result.rescaled_cov, result.corrected_obs)
    assert_close_relative(result.posterior.mean, info.mean, rtol=1e-9)
    assert_close_relative(result.posterior.cov, info.cov, rtol=1e-9)

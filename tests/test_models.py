import functools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_da import ContaminationSpec, contaminate, models
from robust_da.models import (
    LORENZ63_X0,
    lorenz63_sampler,
    lorenz96_drift,
    lorenz96_sampler,
    simulate_lgss,
    simulate_lorenz63,
    simulate_lorenz96,
    simulate_ou,
    simulate_target_tracking,
    tracking_model,
)
from helpers import (
    ScaledNormals,
    lorenz63_drift_stacked,
    lorenz63_sampler_stepwise,
    lorenz96_sampler_rolled,
    simulate_lorenz63_stepwise,
    simulate_lorenz96_rolled,
    simulate_ou_floats,
    simulate_tracking_stepwise,
)


# ---------------------------------------------------------------------------
# Contamination


def test_contamination_spec_validation():
    with pytest.raises(ValueError):
        ContaminationSpec(epsilon=-0.1)
    with pytest.raises(ValueError):
        ContaminationSpec(epsilon=0.5, lam=0.5)


def test_contaminate_epsilon_zero_flags_nothing():
    rng = np.random.default_rng(0)
    clean = rng.standard_normal((2, 500))
    noise, flags = contaminate(clean, ContaminationSpec(epsilon=0.0, lam=9.0), rng)
    assert not flags.any()
    assert np.array_equal(noise, clean)


def test_contaminate_epsilon_one_lambda_one_keeps_the_clean_law():
    rng = np.random.default_rng(1)
    clean = rng.standard_normal((1, 20_000))
    noise, flags = contaminate(clean, ContaminationSpec(epsilon=1.0, lam=1.0), rng)
    assert flags.all()
    # All draws fire the "inflated" branch, but lambda = 1 keeps the law N(0,1).
    assert abs(noise.var() - 1.0) <= 3.0 * np.sqrt(2.0 / 20_000)


def test_contaminate_flag_fraction_binomial():
    rng = np.random.default_rng(2)
    clean = rng.standard_normal((1, 10_000))
    _, flags = contaminate(clean, ContaminationSpec(epsilon=0.25, lam=4.0), rng)
    se = np.sqrt(0.25 * 0.75 / 10_000)
    assert abs(flags.mean() - 0.25) <= 3.0 * se


def test_contaminate_mixture_variance():
    rng = np.random.default_rng(3)
    eps, lam = 0.2, 25.0
    clean = rng.standard_normal((1, 200_000))
    noise, _ = contaminate(clean, ContaminationSpec(epsilon=eps, lam=lam), rng)
    target = (1.0 - eps) + eps * lam
    # Variance of the sample variance for the mixture (fourth-moment based),
    # bounded loosely via the inflated branch.
    se = np.sqrt((3.0 * ((1 - eps) + eps * lam**2) - target**2) / 200_000)
    assert abs(noise.var() - target) <= 3.0 * se


# ---------------------------------------------------------------------------
# OU


def test_ou_deterministic_skeleton():
    states, observations, _ = simulate_ou_floats(1.0, 0, ContaminationSpec(), noise_scale=0.0)
    expected = 5.0 * 0.7 ** np.arange(11)
    assert np.allclose(states[0], expected, rtol=1e-12)
    record, model = simulate_ou(t_end=1.0, seed=0)
    assert model.A[0, 0] == 0.7 and model.Q[0, 0] == 1.3
    assert model.R[0, 0] == 0.1 and record.n_obs == observations.shape[1] == 10


def test_ou_stationary_variance():
    record, _ = simulate_ou(t_end=2000.0, seed=1)
    x = record.states[0, 1000:]  # drop transient
    target = 1.3 / (1.0 - 0.49)
    se = target * np.sqrt(2.0 / x.size) * 3  # AR(1) samples are correlated
    assert abs(x.var() - target) <= 3.0 * se


def test_ou_seed_reproducibility():
    a, _ = simulate_ou(t_end=5.0, seed=42, contamination=ContaminationSpec(0.3, 16.0))
    b, _ = simulate_ou(t_end=5.0, seed=42, contamination=ContaminationSpec(0.3, 16.0))
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.observations, b.observations)
    assert np.array_equal(a.contamination_flags, b.contamination_flags)


# ---------------------------------------------------------------------------
# Target tracking


def test_tracking_zero_noise_is_linear_motion():
    states, _, _ = simulate_tracking_stepwise(2.0, 0, ContaminationSpec(), noise_scale=0.0)
    times = simulate_target_tracking(t_end=2.0, seed=0)[0].times
    assert np.allclose(states[0], times)  # x position = t * vx, vx = 1
    assert np.allclose(states[1], times)
    assert np.allclose(states[2], 1.0)


def test_tracking_matrix_entries():
    model = tracking_model()
    assert model.Q[0, 0] == pytest.approx(0.1**3 / 3.0)
    assert model.Q[0, 0] == pytest.approx(3.333e-4, abs=1e-6)
    assert model.Q[0, 2] == pytest.approx(0.1**2 / 2.0)
    assert model.A[0, 2] == 0.1
    assert model.R[0, 1] == pytest.approx(0.1**3)
    np.linalg.cholesky(model.R)


def test_tracking_seed_reproducibility():
    a, _ = simulate_target_tracking(t_end=3.0, seed=9)
    b, _ = simulate_target_tracking(t_end=3.0, seed=9)
    assert np.array_equal(a.observations, b.observations)


# ---------------------------------------------------------------------------
# Lorenz-63


def test_lorenz63_observation_count():
    record, obs = simulate_lorenz63(t_end=50.0, seed=0)
    assert record.n_obs == 1000
    assert obs.H.shape == (1, 3) and obs.R[0, 0] == 0.5


def test_lorenz63_euler_first_order_against_rk4_reference():
    # Deterministic trajectory over [0, 1]: compare the Euler path with a
    # fine RK4 reference and check the first-order error scaling.
    def rk4(x, dt, steps):
        for _ in range(steps):
            k1 = lorenz63_drift_stacked(x)
            k2 = lorenz63_drift_stacked(x + 0.5 * dt * k1)
            k3 = lorenz63_drift_stacked(x + 0.5 * dt * k2)
            k4 = lorenz63_drift_stacked(x + dt * k3)
            x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        return x

    def euler(x, dt, steps):
        for _ in range(steps):
            x = x + dt * lorenz63_drift_stacked(x)
        return x

    reference = rk4(LORENZ63_X0.copy(), 1e-4, 10_000)
    err_coarse = np.linalg.norm(euler(LORENZ63_X0.copy(), 1e-3, 1000) - reference)
    err_fine = np.linalg.norm(euler(LORENZ63_X0.copy(), 5e-4, 2000) - reference)
    assert err_coarse <= 0.1 * np.linalg.norm(reference)  # within the O(dt) budget
    assert 1.5 <= err_coarse / err_fine <= 2.5  # first-order convergence


def test_lorenz63_requires_commensurate_output_interval():
    with pytest.raises(ValueError):
        simulate_lorenz63(t_end=1.0, dt=0.001, t_out=0.0015)


def test_lorenz63_seed_reproducibility():
    a, _ = simulate_lorenz63(t_end=1.0, seed=5, contamination=ContaminationSpec(0.25, 625.0))
    b, _ = simulate_lorenz63(t_end=1.0, seed=5, contamination=ContaminationSpec(0.25, 625.0))
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.observations, b.observations)


@pytest.mark.parametrize("seed", [0, 5, 99])
@pytest.mark.parametrize("contamination", [ContaminationSpec(), ContaminationSpec(0.25, 625.0)])
def test_lorenz63_truth_matches_stepwise_integrator_bit_for_bit(seed, contamination, monkeypatch):
    # Python-float steps and the noise drawn as one block give the same
    # numbers as array steps with one draw per step, and leave the generator
    # in the same state.
    states, observations, flags, rng_stepwise = simulate_lorenz63_stepwise(
        10.0, 0.001, 0.05, seed, contamination
    )
    made = []
    default_rng = np.random.default_rng

    def recorded_rng(seed):
        made.append(default_rng(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recorded_rng)
    record, _ = simulate_lorenz63(t_end=10.0, seed=seed, contamination=contamination)
    assert np.array_equal(record.states, states)
    assert np.array_equal(record.observations, observations)
    assert np.array_equal(record.contamination_flags, flags)
    assert made[0].bit_generator.state == rng_stepwise.bit_generator.state


# The noise level reaches the library sampler through its generators
# (helpers.ScaledNormals); 0 gives the noise-free Euler map.
@pytest.mark.parametrize("noise_scale", [1.0, 0.0, 0.3])
# The member counts of the stacked blocks: three blocks of different sizes,
# or one block.
@pytest.mark.parametrize("shape", [(10, 1, 40), (1,), (10,), (100,)])
def test_lorenz63_sampler_matches_stepwise_sampler_bit_for_bit(shape, noise_scale):
    record, _ = simulate_lorenz63(t_end=0.5, seed=0)
    states = record.states[:, -sum(shape):]
    blocks = np.split(states, np.cumsum(shape)[:-1], axis=1)
    # Resampled particles arrive Fortran-ordered; the output is C-ordered
    # either way, so products taken from it sum in the same order.
    for layout in (blocks, [np.asfortranarray(b) for b in blocks]):
        rngs = [np.random.default_rng(3 + i) for i in range(len(shape))]
        rngs_stepwise = [np.random.default_rng(3 + i) for i in range(len(shape))]
        out = lorenz63_sampler(0.001, 50)(layout, [ScaledNormals(r, noise_scale) for r in rngs])
        out_stepwise = np.concatenate([
            lorenz63_sampler_stepwise(0.001, 50, noise_scale)(b, rng)
            for b, rng in zip(layout, rngs_stepwise)
        ], axis=1)
        assert out.shape == states.shape and out.flags.c_contiguous
        assert np.array_equal(out, out_stepwise)
        for rng, rng_stepwise in zip(rngs, rngs_stepwise):
            assert rng.bit_generator.state == rng_stepwise.bit_generator.state


PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def member_blocks(draw, center=LORENZ63_X0):
    """1-5 blocks of 1-40 members near ``center`` (by default on the
    Lorenz-63 attractor), each C- or Fortran-ordered; optionally some columns
    scaled toward overflow, so that their members run into inf and NaN
    within the call."""
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = center[:, None] + 5.0 * rng.standard_normal((center.size, sum(sizes)))
    if draw(st.booleans()):
        exponents = rng.integers(100, 300, size=sum(sizes))
        members *= np.where(rng.random(sum(sizes)) < 0.3, 10.0**exponents, 1.0)
    blocks = np.split(members, np.cumsum(sizes)[:-1], axis=1)
    return [np.asfortranarray(b) if draw(st.booleans()) else b.copy() for b in blocks]


@PROPERTY_SETTINGS
@given(member_blocks(), st.integers(1, 60), st.sampled_from([0.0, 0.3, 1.0]))
def test_lorenz63_sampler_equals_stepwise_sampler_on_any_blocks(blocks, n_steps, noise_scale):
    inputs = [b.copy(order="A") for b in blocks]
    rngs = [np.random.default_rng(11 + i) for i in range(len(blocks))]
    rngs_stepwise = [np.random.default_rng(11 + i) for i in range(len(blocks))]
    # The errstate of ensemble_forecast: members that overflow come back inf
    # or NaN, without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        out = lorenz63_sampler(0.001, n_steps)(
            blocks, [ScaledNormals(r, noise_scale) for r in rngs]
        )
        out_stepwise = np.concatenate([
            lorenz63_sampler_stepwise(0.001, n_steps, noise_scale)(b, rng)
            for b, rng in zip(blocks, rngs_stepwise)
        ], axis=1)
    assert np.array_equal(out, out_stepwise, equal_nan=True)
    assert np.array_equal(np.isinf(out), np.isinf(out_stepwise))
    for rng, rng_stepwise in zip(rngs, rngs_stepwise):
        assert rng.bit_generator.state == rng_stepwise.bit_generator.state
    for block, before in zip(blocks, inputs):
        assert np.array_equal(block, before) and block.flags.f_contiguous == before.flags.f_contiguous
    assert out.flags.c_contiguous
    assert not any(np.shares_memory(out, block) for block in blocks)


def _lorenz96_blocks(d):
    return member_blocks(np.full(d, 8.0))


@PROPERTY_SETTINGS
@given(
    st.integers(4, 40).flatmap(_lorenz96_blocks), st.integers(1, 10),
    st.sampled_from([0.0, 1.0]),
)
def test_lorenz96_sampler_equals_rolled_sampler_on_any_blocks(blocks, n_steps, forcing_std):
    # The RK4 constants are arrays; the rolled sampler's are Python floats,
    # with the same IEEE products and sums, even where members overflow.
    rngs = [np.random.default_rng(11 + i) for i in range(len(blocks))]
    rngs_rolled = [np.random.default_rng(11 + i) for i in range(len(blocks))]
    with np.errstate(over="ignore", invalid="ignore"):
        out = lorenz96_sampler(0.01, n_steps)(
            blocks, [ScaledNormals(r, forcing_std) for r in rngs]
        )
        out_rolled = np.concatenate([
            lorenz96_sampler_rolled(0.01, n_steps, forcing_std=forcing_std)(b, rng)
            for b, rng in zip(blocks, rngs_rolled)
        ], axis=1)
    assert np.array_equal(out, out_rolled, equal_nan=True)
    assert np.array_equal(np.isinf(out), np.isinf(out_rolled))
    for rng, rng_rolled in zip(rngs, rngs_rolled):
        assert rng.bit_generator.state == rng_rolled.bit_generator.state


@st.composite
def block_calls(draw, blocks):
    """2-6 calls' block lists taken from a pool of 1-3, so that the column
    count of successive calls shrinks, grows and repeats."""
    pool = draw(st.lists(blocks, min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=6))
    return [pool[i] for i in picks]


@PROPERTY_SETTINGS
@given(
    st.one_of(
        st.tuples(st.just("lorenz63"), block_calls(member_blocks())),
        st.tuples(st.just("lorenz96"), block_calls(_lorenz96_blocks(6))),
    ),
    st.integers(1, 20),
    st.sampled_from([0.0, 1.0]),
)
def test_samplers_reuse_their_layout_across_calls(model_calls, n_steps, noise_scale):
    # One sampler keeps its buffers between calls; each call's output is a
    # fresh sampler's, bit for bit, whatever the calls before it held.  A
    # call whose members stay finite raises no floating-point error, so no
    # inf or NaN of an earlier call lingers in the padding.
    model, calls = model_calls
    if model == "lorenz63":
        sampler = lorenz63_sampler(0.001, n_steps)
        oracle = lorenz63_sampler_stepwise(0.001, n_steps, noise_scale)
    else:
        sampler = lorenz96_sampler(0.01, n_steps)
        oracle = lorenz96_sampler_rolled(0.01, n_steps, forcing_std=noise_scale)
    outs, expected = [], []
    for i, blocks in enumerate(calls):
        inputs = [b.copy(order="A") for b in blocks]
        rngs = [np.random.default_rng((i, j)) for j in range(len(blocks))]
        rngs_oracle = [np.random.default_rng((i, j)) for j in range(len(blocks))]
        finite = max(np.abs(b).max() for b in blocks) < 1e50
        with np.errstate(**dict.fromkeys(("over", "invalid"), "raise" if finite else "ignore")):
            out = sampler(blocks, [ScaledNormals(r, noise_scale) for r in rngs])
        with np.errstate(over="ignore", invalid="ignore"):
            expected.append(np.concatenate(
                [oracle(b, rng) for b, rng in zip(blocks, rngs_oracle)], axis=1
            ))
        assert np.array_equal(out, expected[-1], equal_nan=True)
        assert np.array_equal(np.isinf(out), np.isinf(expected[-1]))
        for rng, rng_oracle in zip(rngs, rngs_oracle):
            assert rng.bit_generator.state == rng_oracle.bit_generator.state
        for block, before in zip(blocks, inputs):
            assert np.array_equal(block, before) and block.flags.f_contiguous == before.flags.f_contiguous
        assert out.flags.c_contiguous
        assert not any(np.shares_memory(out, other) for other in [*blocks, *outs])
        outs.append(out)
    for out, want in zip(outs, expected):
        assert np.array_equal(out, want, equal_nan=True)


class _DrawnBefore:
    """A generator whose standard normals were drawn before the traced call,
    so that the trace counts what the call allocates beside its draws."""

    def __init__(self, shape):
        self.draws = np.random.default_rng(0).standard_normal(shape)

    def standard_normal(self, size):
        assert size == self.draws.shape
        return self.draws


def _traced_peak(n_steps, blocks) -> int:
    """Peak bytes that one call of the ``n_steps`` propagator allocates,
    above what it started with."""
    sampler = lorenz63_sampler(0.001, n_steps)
    rngs = [_DrawnBefore((n_steps, 3, block.shape[1])) for block in blocks]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sampler(blocks, rngs)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("sizes", [(10, 10, 10, 10), (500,), (250, 250, 250, 250, 250)])
def test_lorenz63_sampler_memory_grows_with_substeps_by_the_noise_alone(sizes):
    # Beside its draws, a call holds one scaled copy of its substeps' noise,
    # 3 * N doubles per substep (rows padded by at most 7 doubles); the rest
    # of what it allocates must not grow with the substep count, so nothing
    # that a substep allocates outlives it.
    record, _ = simulate_lorenz63(t_end=0.1, seed=0)
    n = sum(sizes)
    blocks = np.split(np.repeat(record.states[:, -1:], n, axis=1), np.cumsum(sizes)[:-1], axis=1)
    grown = _traced_peak(50, blocks) - _traced_peak(1, blocks)
    assert grown <= 49 * 3 * (n + 7) * 8 + 4096


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "dt, steps_per_obs, seed, step",
    [
        (0.05, 1, 0, 29),   # every step is an observation interval
        (0.04, 10, 0, 36),  # sixth step of the fourth interval
        (0.05, 10, 1, 30),  # last step of the third interval
    ],
)
def test_lorenz63_blowup_names_the_first_bad_step(dt, steps_per_obs, seed, step):
    # Euler-Maruyama at these step sizes leaves the attractor and overflows.
    t_out = steps_per_obs * dt
    contamination = ContaminationSpec()
    with pytest.raises(FloatingPointError) as stepwise:
        simulate_lorenz63_stepwise(20.0, dt, t_out, seed, contamination)
    with pytest.raises(FloatingPointError) as blowup:
        simulate_lorenz63(t_end=20.0, dt=dt, t_out=t_out, seed=seed, contamination=contamination)
    assert str(blowup.value) == str(stepwise.value)
    assert f"at step {step} " in str(blowup.value)


# ---------------------------------------------------------------------------
# Lorenz-96


def test_lorenz96_uniform_state_is_fixed_point():
    x = np.full(40, 8.0)
    assert np.allclose(lorenz96_drift(x, 8.0), 0.0)


def test_lorenz96_ring_equivariance():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(40)
    for shift in (1, 7, 19):
        rolled = np.roll(x, shift)
        assert np.allclose(
            lorenz96_drift(rolled, 8.0), np.roll(lorenz96_drift(x, 8.0), shift)
        )


def test_lorenz96_rk4_deterministic_step_matches_manual():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(8) + 2.0
    sampler = lorenz96_sampler(dt=0.01, n_steps=1)
    out = sampler([x[:, None]], [ScaledNormals(np.random.default_rng(0), 0.0)])[:, 0]
    k1 = lorenz96_drift(x, 8.0)
    k2 = lorenz96_drift(x + 0.005 * k1, 8.0)
    k3 = lorenz96_drift(x + 0.005 * k2, 8.0)
    k4 = lorenz96_drift(x + 0.01 * k3, 8.0)
    assert np.array_equal(out, x + 0.01 / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4))


def test_lorenz96_observation_count_full_window():
    record, obs = simulate_lorenz96(t_end=73.0, seed=0)
    assert record.n_obs == 1460
    assert obs.H.shape == (40, 40)


def test_lorenz96_seed_reproducibility_and_finite():
    a, _ = simulate_lorenz96(t_end=1.0, seed=6)
    b, _ = simulate_lorenz96(t_end=1.0, seed=6)
    assert np.array_equal(a.states, b.states)
    assert np.all(np.isfinite(a.states))


def _lorenz96_first_bad_step(forcings, n_burn):
    """The first post-burn-in step at which the truth driven by ``forcings``
    is not finite, checked at every step."""
    rk4 = models._lorenz96_rk4_step(models.LORENZ96_DT, (40,))
    x = np.full(40, 8.0)
    x[0] += 0.01
    for i, forcing in enumerate(forcings):
        x = rk4(x, forcing)
        if i >= n_burn and not np.isfinite(x).all():
            return i - n_burn + 1
    return None


@pytest.mark.parametrize(
    "value, site, step, bad",
    [
        (np.nan, 0, 1, 1),       # the first step of the first observation interval
        (np.inf, 17, 23, 23),    # the third step of the fifth
        (-np.inf, 39, 100, 100), # the last step of the last
        (1e10, 5, 42, 44),       # a finite kick that overflows two steps on
    ],
)
def test_lorenz96_blowup_names_the_first_bad_step(monkeypatch, value, site, step, bad):
    # One forcing draw is replaced after the burn-in; the truth reports the
    # first step whose state is not finite, ``bad``, as a check at every
    # step does.
    n_burn = int(round(12.2 / models.LORENZ96_DT))
    draw = models._lorenz96_forcings
    drawn = []

    def kicked(rng, n_steps, shape):
        forcings = draw(rng, n_steps, shape)
        forcings[n_burn + step - 1, site] = value
        drawn.append(forcings)
        return forcings

    monkeypatch.setattr(models, "_lorenz96_forcings", kicked)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError) as blowup:
        simulate_lorenz96(t_end=1.0, seed=3)
    with np.errstate(over="ignore", invalid="ignore"):
        first = _lorenz96_first_bad_step(drawn[0], n_burn)
    assert first == bad
    assert str(blowup.value) == f"Lorenz-96 state blew up at step {bad}"


@pytest.mark.parametrize("seed", [0, 5, 99])
def test_lorenz96_matches_rolled_integrator_bit_for_bit(seed):
    # Gathered neighbours and the forcing drawn in one call give the same
    # numbers as np.roll neighbours and one draw per step.
    contamination = ContaminationSpec(epsilon=0.25, lam=27.5**2)
    record, _ = simulate_lorenz96(t_end=1.5, seed=seed, contamination=contamination)
    states, observations, flags, _ = simulate_lorenz96_rolled(
        40, t_end=1.5, dt=0.01, t_out=0.05, burn_in=12.2, seed=seed, contamination=contamination
    )
    assert np.array_equal(record.states, states)
    assert np.array_equal(record.observations, observations)
    assert np.array_equal(record.contamination_flags, flags)

    # Three stacked blocks, each with its own generator, against each block
    # stepped alone by the rolled integrator.
    blocks = np.split(record.states[:, -10:], [4, 5], axis=1)
    rngs = [np.random.default_rng(seed + i) for i in range(3)]
    rngs_rolled = [np.random.default_rng(seed + i) for i in range(3)]
    for forcing_std in (1.0, 0.0):
        out = lorenz96_sampler(0.01, 5)(blocks, [ScaledNormals(r, forcing_std) for r in rngs])
        out_rolled = np.concatenate([
            lorenz96_sampler_rolled(0.01, 5, forcing_std=forcing_std)(b, rng)
            for b, rng in zip(blocks, rngs_rolled)
        ], axis=1)
        assert np.array_equal(out, out_rolled)
    for rng, rng_rolled in zip(rngs, rngs_rolled):
        assert rng.bit_generator.state == rng_rolled.bit_generator.state


@st.composite
def lorenz96_interleaved_calls(draw):
    """Sampler calls over 2-3 member shapes (ring sizes 4-40): each shape
    once, then the first shape twice, then 0-3 more picks, so that the RK4
    step is rebuilt for a new shape, returns to an earlier one and is
    reused.  After each call, a truth run (t_end, seed) or None."""
    pool = draw(st.lists(
        st.integers(4, 40).flatmap(_lorenz96_blocks), min_size=2, max_size=3,
        unique_by=lambda blocks: (blocks[0].shape[0], sum(b.shape[1] for b in blocks)),
    ))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=3))
    calls = [pool[i] for i in [*range(len(pool)), 0, 0, *picks]]
    truth = st.tuples(st.sampled_from([0.05, 0.1]), st.sampled_from([0, 1]))
    truths = draw(st.lists(st.one_of(st.none(), truth), min_size=len(calls), max_size=len(calls)))
    return list(zip(calls, truths))


@functools.cache
def _rolled_truth(t_end, seed):
    """The rolled integrator's (states, observations, flags) of a clean
    Lorenz-96 twin run, computed once per (t_end, seed); only read."""
    return simulate_lorenz96_rolled(
        40, t_end=t_end, dt=0.01, t_out=0.05, burn_in=12.2, seed=seed,
        contamination=ContaminationSpec(),
    )[:3]


@settings(PROPERTY_SETTINGS, max_examples=20)
@given(lorenz96_interleaved_calls(), st.integers(1, 3))
def test_lorenz96_step_buffers_leave_no_trace_across_shapes_and_truths(calls, n_steps):
    # The RK4 step reuses its stage buffers across calls: every sampler
    # output and truth equals the rolled integrator's, bit for bit, whatever
    # ran before, and no call changes an array an earlier one returned.
    sampler = lorenz96_sampler(0.01, n_steps)
    returned = []  # (array a call returned, its copy)
    for i, (blocks, truth) in enumerate(calls):
        rngs = [np.random.default_rng((i, j)) for j in range(len(blocks))]
        rngs_rolled = [np.random.default_rng((i, j)) for j in range(len(blocks))]
        with np.errstate(over="ignore", invalid="ignore"):
            out = sampler(blocks, rngs)
            out_rolled = np.concatenate([
                lorenz96_sampler_rolled(0.01, n_steps)(b, rng) for b, rng in zip(blocks, rngs_rolled)
            ], axis=1)
        assert np.array_equal(out, out_rolled, equal_nan=True)
        assert np.array_equal(np.isinf(out), np.isinf(out_rolled))
        returned.append((out, out.copy()))
        if truth is not None:
            t_end, seed = truth
            record, _ = simulate_lorenz96(t_end=t_end, seed=seed)
            states, observations, flags = _rolled_truth(t_end, seed)
            assert np.array_equal(record.states, states)
            assert np.array_equal(record.observations, observations)
            assert np.array_equal(record.contamination_flags, flags)
            returned.append((record.states, states.copy()))
        for array, copy in returned:
            assert np.array_equal(array, copy, equal_nan=True)


@pytest.mark.parametrize("noise_scale", [1.0, 0.0])
@pytest.mark.parametrize("contamination", [ContaminationSpec(), ContaminationSpec(0.25, 625.0)])
@pytest.mark.parametrize("seed", [0, 5, 99])
@pytest.mark.parametrize(
    "simulate,oracle,t_end",
    [
        (simulate_ou, simulate_ou_floats, 10.0),
        (simulate_target_tracking, simulate_tracking_stepwise, 5.0),
    ],
    ids=["ou", "tracking"],
)
def test_lgss_truth_matches_its_own_loop_bit_for_bit(
    simulate, oracle, t_end, seed, contamination, noise_scale
):
    # The shared linear Gaussian truth loop and observation tail give the
    # numbers of the loops each model once had.  At zero noise the oracle
    # still makes the truth draws, so that the observation draws stay put,
    # and its run is the library's on the model with Q = 0.
    states, observations, flags = oracle(t_end, seed, contamination, noise_scale)
    record, model = simulate(t_end=t_end, seed=seed, contamination=contamination)
    if noise_scale == 0.0:
        (record,) = simulate_lgss(replace(model, Q=0.0 * model.Q), t_end, [seed], [contamination])
    assert np.array_equal(record.states, states)
    assert np.array_equal(record.observations, observations)
    assert np.array_equal(record.contamination_flags, flags)


@pytest.mark.parametrize("b", [1, 3, 8])
@pytest.mark.parametrize(
    "simulate,oracle,t_end",
    [
        (simulate_ou, simulate_ou_floats, 3.0),
        (simulate_target_tracking, simulate_tracking_stepwise, 3.0),
    ],
    ids=["ou", "tracking"],
)
def test_stacked_lgss_truths_are_each_run_alone_bit_for_bit(simulate, oracle, t_end, b):
    # The truths of a chunk step as one recursion; each run's states,
    # observations and flags are its own run's, whatever the others are.
    seeds = [np.random.SeedSequence(17, spawn_key=(i,)) for i in range(b)]
    contaminations = [ContaminationSpec(0.25 * (i % 2), 625.0) for i in range(b)]
    model = simulate(t_end=t_end)[1]
    records = simulate_lgss(model, t_end, seeds, contaminations)
    assert len(records) == b
    for record, seed, contamination in zip(records, seeds, contaminations):
        alone, _ = simulate(t_end=t_end, seed=seed, contamination=contamination)
        states, observations, flags = oracle(t_end, seed, contamination)
        for got in (record, alone):
            assert np.array_equal(got.states, states)
            assert np.array_equal(got.observations, observations)
            assert np.array_equal(got.contamination_flags, flags)


# ---------------------------------------------------------------------------
# CSV export


def test_trajectory_csv_export(tmp_path):
    record, _ = simulate_ou(t_end=0.5, seed=0)
    states = tmp_path / "states.csv"
    obs = tmp_path / "obs.csv"
    record.write_states_csv(states)
    record.write_observations_csv(obs)
    state_lines = states.read_text().strip().splitlines()
    obs_lines = obs.read_text().strip().splitlines()
    assert state_lines[0] == "step,time,state_0"
    assert len(state_lines) == 1 + record.states.shape[1]
    assert obs_lines[0] == "obs_index,time,y_0,contaminated_flag"
    assert len(obs_lines) == 1 + record.n_obs

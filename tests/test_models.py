import numpy as np
import pytest

from robust_da import ContaminationSpec, contaminate
from robust_da.models import (
    LORENZ63_X0,
    lorenz63_drift,
    lorenz63_sampler,
    lorenz96_drift,
    lorenz96_sampler,
    simulate_lorenz63,
    simulate_lorenz96,
    simulate_ou,
    simulate_target_tracking,
    tracking_model,
)
from helpers import (
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
    record, model = simulate_ou(t_end=1.0, dt=0.1, seed=0, noise_scale=0.0)
    expected = 5.0 * 0.7 ** np.arange(11)
    assert np.allclose(record.states[0], expected, rtol=1e-12)
    assert model.A[0, 0] == 0.7 and model.Q[0, 0] == 1.3
    assert model.R[0, 0] == 0.1 and record.n_obs == 10


def test_ou_stationary_variance():
    record, _ = simulate_ou(t_end=2000.0, dt=0.1, seed=1)
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
    record, _ = simulate_target_tracking(t_end=2.0, dt=0.1, seed=0, noise_scale=0.0)
    times = record.times
    assert np.allclose(record.states[0], times)  # x position = t * vx, vx = 1
    assert np.allclose(record.states[1], times)
    assert np.allclose(record.states[2], 1.0)


def test_tracking_matrix_entries():
    model = tracking_model(dt=0.1)
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
            k1 = lorenz63_drift(x)
            k2 = lorenz63_drift(x + 0.5 * dt * k1)
            k3 = lorenz63_drift(x + 0.5 * dt * k2)
            k4 = lorenz63_drift(x + dt * k3)
            x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        return x

    def euler(x, dt, steps):
        for _ in range(steps):
            x = x + dt * lorenz63_drift(x)
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


@pytest.mark.parametrize("noise_scale", [1.0, 0.0, 0.3])
@pytest.mark.parametrize("shape", [(3,), (3, 1), (3, 10), (3, 100)])
def test_lorenz63_sampler_matches_stepwise_sampler_bit_for_bit(shape, noise_scale):
    record, _ = simulate_lorenz63(t_end=0.5, seed=0)
    members = record.states[:, -1] if len(shape) == 1 else record.states[:, -shape[1]:]
    rng, rng_stepwise = np.random.default_rng(3), np.random.default_rng(3)
    # Resampled particles arrive Fortran-ordered; the output is C-ordered
    # either way, so products taken from it sum in the same order.
    for layout in (members, np.asfortranarray(members)):
        out = lorenz63_sampler(0.001, 50, noise_scale)(layout, rng)
        out_stepwise = lorenz63_sampler_stepwise(0.001, 50, noise_scale)(layout, rng_stepwise)
        assert out.shape == shape and out.flags.c_contiguous and out_stepwise.flags.c_contiguous
        assert np.array_equal(out, out_stepwise)
    assert rng.bit_generator.state == rng_stepwise.bit_generator.state


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
    sampler = lorenz96_sampler(dt=0.01, n_steps=1, forcing_std=0.0)
    out = sampler(x[:, None], np.random.default_rng(0))[:, 0]
    k1 = lorenz96_drift(x, 8.0)
    k2 = lorenz96_drift(x + 0.005 * k1, 8.0)
    k3 = lorenz96_drift(x + 0.005 * k2, 8.0)
    k4 = lorenz96_drift(x + 0.01 * k3, 8.0)
    assert np.allclose(out, x + 0.01 / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4), rtol=1e-14)


def test_lorenz96_observation_count_full_window():
    record, obs = simulate_lorenz96(t_end=73.0, burn_in=0.5, seed=0)
    assert record.n_obs == 1460
    assert obs.H.shape == (40, 40)


def test_lorenz96_seed_reproducibility_and_finite():
    a, _ = simulate_lorenz96(t_end=1.0, burn_in=1.0, seed=6)
    b, _ = simulate_lorenz96(t_end=1.0, burn_in=1.0, seed=6)
    assert np.array_equal(a.states, b.states)
    assert np.all(np.isfinite(a.states))


@pytest.mark.parametrize("seed", [0, 5, 99])
def test_lorenz96_matches_rolled_integrator_bit_for_bit(seed):
    # Gathered neighbours and the forcing drawn in one call give the same
    # numbers as np.roll neighbours and one draw per step.
    contamination = ContaminationSpec(epsilon=0.25, lam=27.5**2)
    record, _ = simulate_lorenz96(
        t_end=1.5, burn_in=0.5, seed=seed, contamination=contamination
    )
    states, observations, flags, _ = simulate_lorenz96_rolled(
        40, t_end=1.5, dt=0.01, t_out=0.05, burn_in=0.5, seed=seed, contamination=contamination
    )
    assert np.array_equal(record.states, states)
    assert np.array_equal(record.observations, observations)
    assert np.array_equal(record.contamination_flags, flags)

    members = record.states[:, -10:]
    rng, rng_rolled = np.random.default_rng(seed), np.random.default_rng(seed)
    for forcing_std in (1.0, 0.0):
        out = lorenz96_sampler(0.01, 5, forcing_std=forcing_std)(members, rng)
        out_rolled = lorenz96_sampler_rolled(0.01, 5, forcing_std=forcing_std)(members, rng_rolled)
        assert np.array_equal(out, out_rolled)
    assert rng.bit_generator.state == rng_rolled.bit_generator.state


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
    # numbers of the loops each model once had, at zero noise too, where the
    # truth draws are still made so that the observation draws stay put.
    states, observations, flags = oracle(t_end, 0.1, seed, contamination, noise_scale)
    record, _ = simulate(
        t_end=t_end, dt=0.1, seed=seed, contamination=contamination, noise_scale=noise_scale
    )
    assert np.array_equal(record.states, states)
    assert np.array_equal(record.observations, observations)
    assert np.array_equal(record.contamination_flags, flags)


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

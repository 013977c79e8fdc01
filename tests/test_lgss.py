import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, solve_triangular

from robust_da import (
    GaussianBelief,
    LgssModel,
    ObservationModel,
    SpdFactor,
    kf_analysis,
    kf_forecast,
)
from robust_da._linalg import pow2_scale
from robust_da.weights import WeightKernelSpec
from helpers import (
    float_matrices,
    grid_posterior_1d,
    grid_posterior_2d,
    lapack_mahalanobis_sq,
    lapack_solve,
    lapack_solve_by_sweeps,
    lapack_whiten,
    random_spd,
)


def scalar_model(a=0.7, q=1.3, h=1.0, r=0.1, m0=0.0, p0=1.0):
    return LgssModel(
        A=[[a]], Q=[[q]], H=[[h]], R=[[r]],
        prior=GaussianBelief(mean=[m0], cov=[[p0]]),
    )


# ---------------------------------------------------------------------------
# SpdFactor and GaussianBelief invariants


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(float_matrices(), st.booleans(), st.sampled_from([None, 0, -1]))
def test_pow2_scale_takes_the_largest_magnitude_as_ndarray_max_does(x, one_row, axis):
    # The largest |entry| along the axis is np.abs(x).max(axis=axis), NaN
    # and inf included, of a matrix or a vector in any memory layout.
    x = x[0] if one_row else x
    expected = np.ldexp(1.0, np.frexp(np.abs(x).max(axis=axis))[1] - 1)
    got = pow2_scale(x, axis)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def by_columns(oracle, chol, block):
    """A one-vector LAPACK oracle applied to each column of a (d, n) block,
    stacked on the trailing axis: ``dtrtrs`` on two or more columns at once
    is ``dtrsm``, which substitutes in another arithmetic."""
    return np.stack([oracle(chol, col) for col in block.T], axis=-1)


def assert_solves_match_scipy(f, rng):
    """The LAPACK oracles' solves equal scipy's wrappers bit for bit, also
    for a (d, n) batch of Mahalanobis residuals; ``SpdFactor``'s whitening,
    squares and solves equal the one-vector ``dtrtrs`` oracles bit for bit,
    a block's column by column, and ``dpotrs`` to rtol 1e-12; and a NaN
    right-hand side comes back NaN (only in its own column) instead of
    raising."""
    d = f.dim
    for b in (rng.standard_normal(d), rng.standard_normal((d, 3))):
        got = lapack_solve(f.chol, b)
        assert got.shape == b.shape
        np.testing.assert_array_equal(got, cho_solve((f.chol, True), b))
        atol = 1e-12 * np.abs(got).max()
        np.testing.assert_allclose(f.solve(b.T).T, got, rtol=1e-12, atol=atol)
        np.testing.assert_array_equal(f.solve(b.T).T, lapack_solve_by_sweeps(f.chol, b))
        whitened = lapack_whiten(f.chol, b) if b.ndim == 1 else by_columns(lapack_whiten, f.chol, b)
        np.testing.assert_array_equal(f.whiten(b.T).T, whitened)
        b[d // 2] = np.nan
        assert np.isnan(lapack_solve(f.chol, b)).any() and np.isnan(f.solve(b.T)).any()
    r = rng.standard_normal(d)
    z = solve_triangular(f.chol, r, lower=True)
    assert lapack_mahalanobis_sq(f.chol, r) == float(z @ z)
    assert f.mahalanobis_sq(r) == lapack_mahalanobis_sq(f.chol, r)
    r[-1] = np.nan
    assert np.isnan(lapack_mahalanobis_sq(f.chol, r)) and np.isnan(f.mahalanobis_sq(r))
    batch = rng.standard_normal((d, 4))
    z = solve_triangular(f.chol, batch, lower=True)
    np.testing.assert_array_equal(lapack_mahalanobis_sq(f.chol, batch), np.sum(z * z, axis=0))
    forms = f.mahalanobis_sq(batch.T)
    np.testing.assert_allclose(forms, np.sum(z * z, axis=0), rtol=1e-12)
    np.testing.assert_array_equal(forms, by_columns(lapack_mahalanobis_sq, f.chol, batch))
    batch[0, 1] = np.nan
    for forms in (lapack_mahalanobis_sq(f.chol, batch), f.mahalanobis_sq(batch.T)):
        assert np.isnan(forms[1]) and np.all(np.isfinite(forms[[0, 2, 3]]))


def test_spd_factor_reconstructs():
    rng = np.random.default_rng(0)
    for d in range(1, 41):
        a = random_spd(rng, d, scale=10.0 ** rng.uniform(-3.0, 3.0))
        f = SpdFactor(a)
        rel = np.linalg.norm(f.chol @ f.chol.T - f.matrix) / np.linalg.norm(f.matrix)
        assert rel <= 1e-10
        t = f.inv_sym_sqrt
        assert np.linalg.norm(t @ f.matrix @ t - np.eye(d)) <= 1e-8
        assert_solves_match_scipy(f, rng)


def test_spd_factor_jitter_repair_and_failure():
    # Borderline PSD matrix gets repaired by jitter.
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    f = SpdFactor(a)
    assert np.all(np.isfinite(f.chol)) and not f.plain
    # A genuinely indefinite matrix is masked: a NaN factor, not an error.
    f = SpdFactor(np.array([[1.0, 0.0], [0.0, -1.0]]))
    assert np.isnan(f.chol).all() and not f.plain
    assert np.isnan(f.solve(np.ones(2))).all() and np.isnan(f.mahalanobis_sq(np.ones(2)))


def test_spd_stack_repairs_and_masks_each_matrix_alone():
    # One indefinite matrix makes the stacked Cholesky raise; each matrix is
    # then factored alone: the SPD ones as the stacked call would, the
    # borderline one with the jitter a single matrix gets, bit for bit, and
    # the one that no jitter repairs masked with NaN, without raising.
    rng = np.random.default_rng(3)
    spd = random_spd(rng, 2)
    borderline, indefinite = np.ones((2, 2)), np.diag([1.0, -1.0])
    stack = SpdFactor(np.stack([spd, borderline, indefinite, spd]))
    np.testing.assert_array_equal(stack.plain, [True, False, False, True])
    for i in (0, 3):
        np.testing.assert_array_equal(stack.chol[i], np.linalg.cholesky(spd))
    repaired = SpdFactor(borderline)
    np.testing.assert_array_equal(stack.chol[1], repaired.chol)
    np.testing.assert_array_equal(stack.matrix[1], repaired.matrix)
    assert np.isnan(stack.chol[2]).all()
    b = rng.standard_normal((4, 2))
    x = stack.solve(b)
    np.testing.assert_array_equal(x[1], lapack_solve_by_sweeps(repaired.chol, b[1]))
    np.testing.assert_array_equal(x[0], lapack_solve_by_sweeps(np.linalg.cholesky(spd), b[0]))
    assert np.isnan(x[2]).all()
    s = stack.mahalanobis_sq(b)
    assert s[1] == lapack_mahalanobis_sq(repaired.chol, b[1]) and np.isnan(s[2])
    # A stack every matrix of which is SPD is taken as it is.
    assert SpdFactor(np.stack([spd, spd])).plain is None


def test_spd_stack_factors_1x1_matrices_as_cholesky_does():
    # Positive 1 x 1 matrices are factored by their square root, which is
    # np.linalg.cholesky's factor bit for bit across the range of doubles; a
    # zero or negative one is masked (no jitter repairs it) and a NaN one
    # stays NaN, as on the general route.
    rng = np.random.default_rng(5)
    a = np.append(rng.random(1000) * 10.0 ** rng.uniform(-300, 300, 1000), 5e-324)
    stack = SpdFactor(a[:, None, None])
    assert stack.plain is None
    np.testing.assert_array_equal(stack.chol, np.linalg.cholesky(a[:, None, None]))
    np.testing.assert_array_equal(SpdFactor(a[:1, None]).chol, np.linalg.cholesky(a[:1, None]))
    edge = SpdFactor(np.array([4.0, 0.0, -1.0, np.nan])[:, None, None])
    np.testing.assert_array_equal(edge.chol[:, 0, 0], [2.0, np.nan, np.nan, np.nan])
    np.testing.assert_array_equal(edge.plain, [True, False, False, True])


def test_spd_stack_factors_a_strided_stack_apart_as_a_flat_one():
    # The half-by-half fallback works on flat views of the stack, so a
    # stack with two leading axes whose layout is not C-ordered is factored,
    # repaired and masked matrix by matrix as the flat stack is.
    rng = np.random.default_rng(4)
    spd = random_spd(rng, 3)
    flat = np.stack([spd, np.ones((3, 3)), np.diag([1.0, -1.0, 1.0]), spd])
    strided = np.stack([flat, flat[::-1]], axis=1).transpose(1, 0, 2, 3)
    stack, alone = SpdFactor(strided), SpdFactor(flat)
    for got, order in ((0, slice(None)), (1, slice(None, None, -1))):
        np.testing.assert_array_equal(stack.plain[got], alone.plain[order])
        np.testing.assert_array_equal(stack.chol[got], alone.chol[order])
        np.testing.assert_array_equal(stack.matrix[got], alone.matrix[order])


def _assert_close_to_dpotrs(got, expected):
    atol = 1e-12 * np.abs(expected).max()
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=atol)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 40),
    st.integers(1, 6),
    st.integers(1, 3),
    st.integers(2, 40),
    st.integers(0, 2**32 - 1),
)
def test_stacked_substitution_is_each_matrix_lapack_solve(d, b, n, cols, seed):
    # Whitening a vector is LAPACK's dtrtrs on that vector bit for bit, and
    # so is each Mahalanobis square; the solve is the two dtrtrs sweeps bit
    # for bit, and dpotrs to rtol 1e-12; for one matrix per element or one
    # matrix for all, at every d up to lorenz96's 40 observations.  A block
    # of vectors under one matrix is whitened, squared and solved as those
    # calls take each of its columns alone.
    rng = np.random.default_rng(seed)
    matrices = np.stack([random_spd(rng, d, scale=10.0 ** rng.uniform(-3, 3)) for _ in range(b)])
    chols = [SpdFactor(m).chol for m in matrices]
    residual = rng.standard_normal((b, d)) * 10.0 ** rng.uniform(-3, 3, (b, 1))
    rhs = rng.standard_normal((b, n, d)) * 10.0 ** rng.uniform(-3, 3, (b, 1, 1))
    shared = SpdFactor(matrices[0])
    # A stack solves n rows per element with a length-one axis per matrix.
    cases = (
        (SpdFactor(matrices), SpdFactor(matrices[:, None]), chols),
        (shared, shared, [chols[0]] * b),
    )
    for factor, per_rows, chol_of in cases:
        z = factor.whiten(residual)
        s = factor.mahalanobis_sq(residual)
        x = per_rows.solve(rhs)
        vectors = factor.solve(residual)
        for i, chol in enumerate(chol_of):
            np.testing.assert_array_equal(z[i], lapack_whiten(chol, residual[i]))
            assert s[i] == lapack_mahalanobis_sq(chol, residual[i])
            np.testing.assert_array_equal(x[i], lapack_solve_by_sweeps(chol, rhs[i].T).T)
            np.testing.assert_array_equal(vectors[i], lapack_solve_by_sweeps(chol, residual[i]))
            _assert_close_to_dpotrs(x[i], lapack_solve(chol, rhs[i].T).T)
            _assert_close_to_dpotrs(vectors[i], lapack_solve(chol, residual[i]))

    block = rng.standard_normal((cols, d)) * 10.0 ** rng.uniform(-3, 3, (cols, 1))
    np.testing.assert_array_equal(
        shared.whiten(block), by_columns(lapack_whiten, chols[0], block.T).T
    )
    np.testing.assert_array_equal(
        shared.mahalanobis_sq(block), by_columns(lapack_mahalanobis_sq, chols[0], block.T)
    )
    np.testing.assert_array_equal(shared.solve(block), lapack_solve_by_sweeps(chols[0], block.T).T)
    _assert_close_to_dpotrs(shared.solve(block), lapack_solve(chols[0], block.T).T)


def test_belief_symmetrizes_and_round_trips():
    rng = np.random.default_rng(1)
    cov = random_spd(rng, 3)
    cov[0, 1] += 1e-13  # small asymmetry is absorbed
    belief = GaussianBelief(mean=rng.standard_normal(3), cov=cov)
    assert np.allclose(belief.cov, belief.cov.T)
    np.testing.assert_array_equal(belief.cov, 0.5 * (cov + cov.T))


def test_model_validation():
    with pytest.raises(np.linalg.LinAlgError):
        LgssModel(A=[[1.0]], Q=[[1.0]], H=[[1.0]], R=[[-1.0]],
                  prior=GaussianBelief(mean=[0.0], cov=[[1.0]]))
    # A block partition must cover the observation dimension.
    with pytest.raises(ValueError):
        WeightKernelSpec(block_partition=((0, 1),)).partition_for(2)


def test_r_diagonal_is_judged_relative_to_the_diagonal():
    # A 0.6 correlation is not diagonal at any scale, so R-localization
    # cannot drop it; an off-diagonal 2e-13 sqrt(r_ii r_jj) is round-off.
    tiny = ObservationModel(H=np.eye(2), R=1e-14 * np.array([[1.0, 0.6], [0.6, 1.0]]))
    assert tiny.r_diagonal is None
    r = 1e10 * np.eye(2)
    r[0, 1] = r[1, 0] = 2e-12
    np.testing.assert_array_equal(ObservationModel(H=np.eye(2), R=r).r_diagonal, [1e10, 1e10])


# ---------------------------------------------------------------------------
# SpdFactor.mahalanobis_sq


def test_mahalanobis_examples():
    f = SpdFactor(np.diag([2.0, 2.0]))
    assert f.mahalanobis_sq(np.zeros(2)) == 0.0
    r = np.array([1.0, 1.0])
    assert f.mahalanobis_sq(r) == pytest.approx(1.0, rel=1e-12)
    ident = SpdFactor(np.eye(3))
    v = np.array([1.0, -2.0, 3.0])
    assert ident.mahalanobis_sq(v) == pytest.approx(float(v @ v), rel=1e-12)


def test_mahalanobis_of_a_finite_residual_that_overflows_is_inf():
    # Whitening (1e307, 1e307, 1e307) by a factor of scale 1e-5 overflows
    # the first two entries to inf and -inf, and the third to inf - inf;
    # the form is inf, not NaN.
    f = SpdFactor(1e-10 * (0.5 * np.eye(3) + 0.5))
    r = np.full(3, 1e307)
    assert f.mahalanobis_sq(r) == np.inf
    forms = f.mahalanobis_sq(np.stack([r, [1e-5, 0.0, 0.0]]))
    assert forms[0] == np.inf
    assert forms[1] == pytest.approx(1.5, rel=1e-12)


# ---------------------------------------------------------------------------
# kf_forecast


def test_forecast_hand_arithmetic():
    model = scalar_model()
    out = kf_forecast(model, GaussianBelief(mean=[5.0], cov=[[1.0]]))
    assert out.mean[0] == pytest.approx(3.5, abs=1e-14)
    assert out.cov[0, 0] == pytest.approx(1.79, abs=1e-14)


def test_forecast_identity_dynamics():
    model = LgssModel(
        A=np.eye(2), Q=np.zeros((2, 2)), H=np.eye(2), R=np.eye(2),
        prior=GaussianBelief(mean=np.zeros(2), cov=np.eye(2)),
    )
    belief = GaussianBelief(mean=[1.0, -2.0], cov=[[2.0, 0.3], [0.3, 1.0]])
    out = kf_forecast(model, belief)
    assert np.allclose(out.mean, belief.mean)
    assert np.allclose(out.cov, belief.cov)


def test_forecast_memoryless_limit():
    model = scalar_model(a=0.0, q=1.3)
    out = kf_forecast(model, GaussianBelief(mean=[7.0], cov=[[4.0]]))
    assert out.mean[0] == 0.0
    assert out.cov[0, 0] == pytest.approx(1.3)


def test_forecast_dimension_mismatch():
    model = scalar_model()
    with pytest.raises(ValueError):
        kf_forecast(model, GaussianBelief(mean=np.zeros(2), cov=np.eye(2)))


# ---------------------------------------------------------------------------
# kf_analysis


def test_analysis_hand_arithmetic():
    model = scalar_model(r=1.0)
    forecast = GaussianBelief(mean=[0.0], cov=[[1.0]])
    post = kf_analysis(model, forecast, [2.0])
    assert post.mean[0] == pytest.approx(1.0, abs=1e-14)
    assert post.cov[0, 0] == pytest.approx(0.5, abs=1e-14)


def test_analysis_zero_information_limit():
    rng = np.random.default_rng(3)
    model = LgssModel(
        A=np.eye(3), Q=np.eye(3), H=rng.standard_normal((2, 3)), R=1e9 * random_spd(rng, 2),
        prior=GaussianBelief(mean=np.zeros(3), cov=np.eye(3)),
    )
    forecast = GaussianBelief(mean=rng.standard_normal(3), cov=random_spd(rng, 3))
    post = kf_analysis(model, forecast, rng.standard_normal(2))
    assert np.allclose(post.mean, forecast.mean, rtol=1e-6)
    assert np.allclose(post.cov, forecast.cov, rtol=1e-6)


def test_analysis_zero_innovation():
    rng = np.random.default_rng(4)
    model = LgssModel(
        A=np.eye(3), Q=np.eye(3), H=rng.standard_normal((2, 3)), R=random_spd(rng, 2),
        prior=GaussianBelief(mean=np.zeros(3), cov=np.eye(3)),
    )
    forecast = GaussianBelief(mean=rng.standard_normal(3), cov=random_spd(rng, 3))
    post = kf_analysis(model, forecast, model.H @ forecast.mean)
    assert np.array_equal(post.mean, forecast.mean)


def test_analysis_loewner_contraction():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d_x, d_y = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        model = LgssModel(
            A=np.eye(d_x), Q=np.eye(d_x),
            H=rng.standard_normal((d_y, d_x)), R=random_spd(rng, d_y),
            prior=GaussianBelief(mean=np.zeros(d_x), cov=np.eye(d_x)),
        )
        forecast = GaussianBelief(mean=rng.standard_normal(d_x), cov=random_spd(rng, d_x))
        post = kf_analysis(model, forecast, rng.standard_normal(d_y))
        gap_eigs = np.linalg.eigvalsh(forecast.cov - post.cov)
        assert gap_eigs.min() >= -1e-9


def test_analysis_gain_vs_information_form():
    rng = np.random.default_rng(6)
    for _ in range(50):
        d_x, d_y = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        h = rng.standard_normal((d_y, d_x))
        r = random_spd(rng, d_y)
        model = LgssModel(
            A=np.eye(d_x), Q=np.eye(d_x), H=h, R=r,
            prior=GaussianBelief(mean=np.zeros(d_x), cov=np.eye(d_x)),
        )
        forecast = GaussianBelief(mean=rng.standard_normal(d_x), cov=random_spd(rng, d_x))
        y = rng.standard_normal(d_y)
        post = kf_analysis(model, forecast, y)
        # Sherman-Morrison-Woodbury route.
        r_inv = np.linalg.inv(r)
        p_inv = np.linalg.inv(forecast.cov)
        j_post = p_inv + h.T @ r_inv @ h
        cov_info = np.linalg.inv(j_post)
        mean_info = cov_info @ (p_inv @ forecast.mean + h.T @ r_inv @ y)
        assert np.linalg.norm(post.cov - cov_info) / np.linalg.norm(cov_info) <= 1e-8
        assert np.allclose(post.mean, mean_info, rtol=1e-8, atol=1e-10)


def test_analysis_matches_grid_oracle_1d():
    model = scalar_model(r=0.8)
    forecast = GaussianBelief(mean=[0.5], cov=[[1.5]])
    y = 1.7
    post = kf_analysis(model, forecast, [y])

    def log_posterior(x):
        prior = -0.5 * (x - 0.5) ** 2 / 1.5
        lik = -0.5 * (y - x) ** 2 / 0.8
        return prior + lik

    mean, var = grid_posterior_1d(log_posterior)
    assert post.mean[0] == pytest.approx(mean, abs=1e-3)
    assert post.cov[0, 0] == pytest.approx(var, abs=1e-3)


def test_analysis_matches_grid_oracle_2d():
    h = np.array([[1.0, 0.4], [0.0, 1.0]])
    r = np.array([[0.6, 0.1], [0.1, 0.9]])
    p_f = np.array([[1.2, -0.3], [-0.3, 0.8]])
    m_f = np.array([0.3, -0.2])
    y = np.array([1.0, 0.5])
    model = LgssModel(
        A=np.eye(2), Q=np.eye(2), H=h, R=r,
        prior=GaussianBelief(mean=np.zeros(2), cov=np.eye(2)),
    )
    post = kf_analysis(model, GaussianBelief(mean=m_f, cov=p_f), y)

    p_inv = np.linalg.inv(p_f)
    r_inv = np.linalg.inv(r)

    def log_posterior(pts):
        dx = pts - m_f[:, None]
        prior = -0.5 * np.einsum("ik,ij,jk->k", dx, p_inv, dx)
        res = y[:, None] - h @ pts
        lik = -0.5 * np.einsum("ik,ij,jk->k", res, r_inv, res)
        return prior + lik

    mean, cov = grid_posterior_2d(log_posterior)
    assert np.allclose(post.mean, mean, atol=1e-3)
    assert np.allclose(post.cov, cov, atol=1e-3)


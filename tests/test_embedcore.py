import numpy as np
import pytest
import scipy.linalg

from narrkit import embedcore
from narrkit.embedcore import (
    EmbeddingSet,
    FlowSample,
    GaussianMoments,
    PerturbationSpec,
    RegressionLossParams,
    add_noise,
    clip_t_score,
    cosine_similarity,
    fit_moments,
    flow_loss,
    flow_matching_loss,
    frechet_distance,
    perturb,
    perturb_set,
    population_std,
    regression_loss,
    regression_loss_grad,
    rescale_latent,
)


class TestCosine:
    def test_identity(self):
        assert cosine_similarity([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == 0.0

    def test_hand_case(self):
        assert cosine_similarity([1, 1], [1, -1]) == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariance(self, rng):
        for _ in range(100):
            a = rng.normal(size=8)
            b = rng.normal(size=8)
            c = float(rng.uniform(0.01, 100))
            assert cosine_similarity(c * a, b) == pytest.approx(
                cosine_similarity(a, b), abs=1e-12
            )

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            cosine_similarity([0, 0], [1, 0])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            cosine_similarity([1, 0], [1, 0, 0])


class TestRegressionLoss:
    def test_equal_inputs_zero(self, rng):
        v = rng.normal(size=32)
        loss = regression_loss(v, v)
        assert loss.total == pytest.approx(0.0, abs=1e-12)

    def test_hand_case(self):
        loss = regression_loss([0, 1], [1, 0])
        assert loss.cosine_term == pytest.approx(1.0)
        assert loss.mse_term == pytest.approx(1.0)
        assert loss.total == pytest.approx(2.0)

    def test_alpha_zero_is_pure_mse(self):
        loss = regression_loss([0, 2], [0, 1], RegressionLossParams(alpha=0.0))
        assert loss.cosine_term == 0.0
        assert loss.total == loss.mse_term == pytest.approx(0.5)

    def test_zero_norm_rejected_even_for_mse_only(self):
        with pytest.raises(ValueError, match="zero-norm"):
            regression_loss([0, 2], [0, 0], RegressionLossParams(alpha=0.0))

    def test_non_negative(self, rng):
        for _ in range(200):
            loss = regression_loss(rng.normal(size=16), rng.normal(size=16))
            assert loss.total >= 0.0

    def test_set_is_left_to_right_mean_of_one_row_calls(self, rng):
        # one row past a block boundary, stored as float32 like a file-backed set
        n = embedcore._BLOCK + 1
        pred = EmbeddingSet(rng.normal(size=(n, 24)).astype(np.float32))
        target = rng.normal(size=(n, 24)).astype(np.float32)
        params = RegressionLossParams(alpha=2.0, beta=0.5)
        rows = [regression_loss(p, t, params) for p, t in zip(pred.vectors, target)]
        batch = regression_loss(pred, target, params)
        assert batch.total == sum(r.total for r in rows) / n
        assert batch.cosine_term == sum(r.cosine_term for r in rows) / n
        assert batch.mse_term == sum(r.mse_term for r in rows) / n

    def test_zero_norm_names_pair_index(self, rng):
        pred = rng.normal(size=(embedcore._BLOCK + 5, 3))
        pred[embedcore._BLOCK + 2] = 0.0
        with pytest.raises(ValueError, match=f"^zero-norm embedding at pair index {embedcore._BLOCK + 2}$"):
            regression_loss(pred, rng.normal(size=pred.shape))

    @pytest.mark.parametrize("loss", [regression_loss, flow_loss])
    @pytest.mark.parametrize(
        "pred,target,reason",
        [
            (np.ones((3, 2)), np.ones((2, 2)), "pair count mismatch: 3 vs 2"),
            (np.ones((2, 3)), np.ones((2, 2)), "dimension mismatch: 3 vs 2"),
            (np.ones((0, 2)), np.ones((0, 2)), "no pairs to score"),
            (np.ones((1, 1, 2)), np.ones((1, 2)), "pred must be a non-empty vector or 2-D"),
        ],
        ids=["count", "dim", "empty", "rank"],
    )
    def test_pair_checks(self, loss, pred, target, reason):
        with pytest.raises(ValueError, match="^" + reason):
            loss(pred, target)

    @pytest.mark.parametrize("alpha,beta", [(-1, 1), (1, -1), (0, 0)])
    def test_bad_params(self, alpha, beta):
        with pytest.raises(ValueError):
            RegressionLossParams(alpha, beta)


def central_difference_grad(pred, target, params, h=1e-6):
    grad = np.zeros_like(pred)
    for i in range(pred.size):
        step = np.zeros_like(pred)
        step[i] = h
        hi = regression_loss(pred + step, target, params).total
        lo = regression_loss(pred - step, target, params).total
        grad[i] = (hi - lo) / (2 * h)
    return grad


class TestRegressionGrad:
    def test_minimum_of_mse(self, rng):
        v = rng.normal(size=8)
        grad = regression_loss_grad(v, v, RegressionLossParams(alpha=0.0))
        assert np.allclose(grad, 0.0)

    def test_against_finite_differences(self, rng):
        params = RegressionLossParams()
        for _ in range(20):
            dim = int(rng.integers(16, 257))
            pred = rng.normal(size=dim)
            target = rng.normal(size=dim)
            analytic = regression_loss_grad(pred, target, params)
            numeric = central_difference_grad(pred, target, params)
            rel = np.max(np.abs(analytic - numeric)) / np.max(np.abs(analytic))
            assert rel < 1e-5

    def test_orthogonal_unit_vectors_cosine_only(self, rng):
        params = RegressionLossParams(beta=0.0)
        pred = np.array([1.0, 0.0, 0.0])
        target = np.array([0.0, 1.0, 0.0])
        analytic = regression_loss_grad(pred, target, params)
        assert np.linalg.norm(analytic) == pytest.approx(params.alpha / 1.0)
        numeric = central_difference_grad(pred, target, params)
        assert np.max(np.abs(analytic - numeric)) < 1e-8

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            regression_loss_grad([0, 0], [1, 0])


class TestPopulationStd:
    def test_two_scalars(self):
        std = population_std(np.array([[0.0], [2.0]]))
        assert std[0] == pytest.approx(np.sqrt(2.0))

    def test_identical_vectors(self):
        std = population_std(np.ones((5, 3)))
        assert np.all(std == 0.0)

    def test_unit_gaussian_sample(self, rng):
        sample = rng.standard_normal((2000, 16))
        std = population_std(sample)
        assert np.all(np.abs(std - 1.0) < 0.08)

    def test_needs_two_vectors(self):
        with pytest.raises(ValueError, match="at least 2"):
            population_std(np.ones((1, 4)))


class TestPerturb:
    def test_identity_spec_bitwise(self):
        spec = PerturbationSpec(0.0, 0.0, False, seed=1)
        for dtype in (np.float64, np.float32):
            z = np.linspace(-3, 3, 17).astype(dtype)
            out = perturb(z, np.ones(17), spec)
            assert out.dtype == dtype
            assert out.tobytes() == z.tobytes()

    def test_same_seed_same_output(self):
        z = np.arange(64, dtype=float)
        basis = np.ones(64)
        spec = PerturbationSpec(seed=99)
        a = perturb(z, basis, spec)
        b = perturb(z, basis, spec)
        assert a.tobytes() == b.tobytes()

    def test_different_seeds_differ(self):
        z = np.arange(64, dtype=float)
        basis = np.ones(64)
        a = perturb(z, basis, PerturbationSpec(seed=1))
        b = perturb(z, basis, PerturbationSpec(seed=2))
        assert not np.array_equal(a, b)

    def test_mask_fraction_within_binomial_bound(self):
        dim = 10_000
        z = np.full(dim, 7.0)
        spec = PerturbationSpec(noise_scale=0.0, mask_rate=0.25, shuffle=False, seed=5)
        out = perturb(z, np.ones(dim), spec)
        frac = np.mean(out == 0.0)
        assert 0.237 <= frac <= 0.263

    def test_shuffle_preserves_multiset(self, rng):
        z = rng.normal(size=256)
        spec = PerturbationSpec(noise_scale=0.0, mask_rate=0.0, shuffle=True, seed=3)
        out = perturb(z, np.ones(256), spec)
        assert not np.array_equal(out, z)
        assert np.array_equal(np.sort(out), np.sort(z))

    def test_noise_scales_with_basis(self):
        dim = 20_000
        z = np.zeros(dim)
        basis = np.full(dim, 2.0)
        spec = PerturbationSpec(noise_scale=0.5, mask_rate=0.0, shuffle=False, seed=11)
        out = perturb(z, basis, spec)
        # std should land near noise_scale * basis = 1.0
        assert abs(np.std(out) - 1.0) < 0.03

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            perturb(np.ones(4), np.ones(5), PerturbationSpec())

    @pytest.mark.parametrize("kwargs", [dict(noise_scale=-1), dict(mask_rate=1.5)])
    def test_bad_spec(self, kwargs):
        with pytest.raises(ValueError):
            PerturbationSpec(**kwargs)


class TestPerturbSet:
    def make_set(self, rng, n=40, dim=24):
        return EmbeddingSet(
            rng.normal(size=(n, dim)).astype(np.float32),
            ids=[f"e{i}" for i in range(n)],
        )

    def test_rows_match_single_vector_calls(self, rng):
        es = self.make_set(rng)
        basis = np.ones(es.dim)
        spec = PerturbationSpec(seed=4)
        batch = perturb_set(es, basis, spec)
        for i in range(len(es)):
            single = perturb(es.vectors[i], basis, spec, item_index=i)
            assert np.array_equal(batch.vectors[i], single)

    def test_thread_count_never_changes_bytes(self, rng):
        es = self.make_set(rng, n=100)
        basis = np.ones(es.dim)
        spec = PerturbationSpec(seed=21)
        one = perturb_set(es, basis, spec, threads=1)
        four = perturb_set(es, basis, spec, threads=4)
        assert one.vectors.tobytes() == four.vectors.tobytes()
        assert one.ids == four.ids

    def test_sequence_mode_permutes_rows_with_ids(self, rng):
        es = self.make_set(rng, n=16)
        basis = np.ones(es.dim)
        spec = PerturbationSpec(noise_scale=0.0, mask_rate=0.0, shuffle=True, seed=8)
        out = perturb_set(es, basis, spec, shuffle_mode="sequence")
        assert sorted(out.ids) == sorted(es.ids)
        assert out.ids != es.ids
        lookup = {i: row for i, row in zip(es.ids, es.vectors)}
        for i, row in zip(out.ids, out.vectors):
            assert np.array_equal(row, lookup[i])

    def test_identity_spec_returns_equal_set(self, rng):
        es = self.make_set(rng)
        spec = PerturbationSpec(0.0, 0.0, False, seed=0)
        out = perturb_set(es, np.ones(es.dim), spec)
        assert out.vectors.tobytes() == es.vectors.tobytes()

    def test_bad_mode(self, rng):
        es = self.make_set(rng, n=4)
        with pytest.raises(ValueError, match="shuffle_mode"):
            perturb_set(es, np.ones(es.dim), PerturbationSpec(), shuffle_mode="rows")


class TestLatentEdits:
    def test_rescale_identity(self, rng):
        z = rng.normal(size=12)
        assert np.array_equal(rescale_latent(z, 1.0), z)

    def test_rescale_doubles_norm_exactly(self, rng):
        z = rng.normal(size=12)
        assert np.linalg.norm(rescale_latent(z, 2.0)) == 2.0 * np.linalg.norm(z)

    def test_rescale_rejects_non_finite(self):
        with pytest.raises(ValueError):
            rescale_latent([1.0], float("nan"))

    def test_add_noise_sigma_zero_identity(self, rng):
        z = rng.normal(size=12)
        assert np.array_equal(add_noise(z, 0.0), z)

    def test_add_noise_seeded(self, rng):
        z = rng.normal(size=12)
        assert np.array_equal(add_noise(z, 0.3, seed=5), add_noise(z, 0.3, seed=5))
        assert not np.array_equal(add_noise(z, 0.3, seed=5), add_noise(z, 0.3, seed=6))

    def test_add_noise_negative_sigma(self):
        with pytest.raises(ValueError):
            add_noise([1.0], -0.1)


class TestMoments:
    def test_hand_case(self):
        m = fit_moments(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert np.allclose(m.mean, [1.0, 0.0])
        assert np.allclose(m.covariance, [[2.0, 0.0], [0.0, 0.0]])

    def test_identical_points_zero_covariance(self):
        m = fit_moments(np.tile([3.0, -1.0], (6, 1)))
        assert np.allclose(m.covariance, 0.0)

    def test_large_sample_near_identity(self, rng):
        sample = rng.standard_normal((100_000, 4))
        m = fit_moments(sample)
        assert np.all(np.abs(m.covariance - np.eye(4)) < 0.05)

    def test_needs_two_vectors(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_moments(np.ones((1, 3)))

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianMoments(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))


def random_moments(rng, dim):
    a = rng.normal(size=(dim, dim))
    return GaussianMoments(rng.normal(size=dim), a @ a.T + 0.1 * np.eye(dim))


class TestFrechet:
    def test_identical_moments_zero(self, rng):
        m = random_moments(rng, 6)
        assert frechet_distance(m, m) <= 1e-8

    def test_one_dimensional_closed_form(self):
        a = GaussianMoments([0.0], [[1.0]])
        b = GaussianMoments([1.0], [[1.0]])
        assert frechet_distance(a, b, jitter=0.0) == pytest.approx(1.0, abs=1e-9)

    def test_commuting_diagonal_closed_form(self):
        a = GaussianMoments(np.zeros(2), np.diag([1.0, 4.0]))
        b = GaussianMoments(np.zeros(2), np.diag([4.0, 1.0]))
        assert frechet_distance(a, b, jitter=0.0) == pytest.approx(2.0, abs=1e-9)

    def test_symmetry(self, rng):
        a = random_moments(rng, 5)
        b = random_moments(rng, 5)
        assert frechet_distance(a, b) == pytest.approx(frechet_distance(b, a), rel=1e-10)

    def test_rotation_invariance(self, rng):
        a = random_moments(rng, 8)
        b = random_moments(rng, 8)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        ra = GaussianMoments(q @ a.mean, q @ a.covariance @ q.T)
        rb = GaussianMoments(q @ b.mean, q @ b.covariance @ q.T)
        assert frechet_distance(ra, rb) == pytest.approx(
            frechet_distance(a, b), abs=1e-6
        )

    def test_against_scipy_sqrtm(self, rng):
        # independent route: direct sqrtm of the covariance product
        for _ in range(10):
            a = random_moments(rng, 6)
            b = random_moments(rng, 6)
            diff = a.mean - b.mean
            cross = scipy.linalg.sqrtm(a.covariance @ b.covariance)
            expected = float(
                diff @ diff
                + np.trace(a.covariance + b.covariance - 2 * np.real(cross))
            )
            assert frechet_distance(a, b, jitter=0.0) == pytest.approx(expected, rel=1e-7)

    def test_sampled_gaussians(self, rng):
        a = fit_moments(rng.normal(0.0, 1.0, size=(100_000, 1)))
        b = fit_moments(rng.normal(1.0, 1.0, size=(100_000, 1)))
        assert frechet_distance(a, b) == pytest.approx(1.0, abs=0.05)

    def test_dim_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            frechet_distance(random_moments(rng, 3), random_moments(rng, 4))

    def test_non_finite_names_stage(self):
        a = GaussianMoments([np.inf], [[1.0]])
        b = GaussianMoments([0.0], [[1.0]])
        with pytest.raises(ValueError, match="mean term"):
            frechet_distance(a, b)

    def test_never_negative(self, rng):
        # nearly identical sampled populations push the value toward zero
        base = rng.normal(size=(500, 4))
        a = fit_moments(base)
        b = fit_moments(base + 1e-9 * rng.normal(size=base.shape))
        assert frechet_distance(a, b) >= 0.0


class TestClipT:
    def test_identical_pairs(self, rng):
        x = rng.normal(size=(5, 8))
        assert clip_t_score(x, x) == pytest.approx(1.0, abs=1e-12)
        assert clip_t_score(x, x, scale="percent") == pytest.approx(100.0, abs=1e-9)

    def test_orthogonal_pairs(self):
        t = np.array([[1.0, 0.0], [0.0, 1.0]])
        v = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert clip_t_score(t, v) == 0.0

    def test_hand_mean(self):
        t = np.array([[1.0, 0.0], [1.0, 0.0]])
        v = np.array(
            [[0.2, np.sqrt(1 - 0.04)], [0.4, np.sqrt(1 - 0.16)]]
        )
        assert clip_t_score(t, v) == pytest.approx(0.3, abs=1e-12)

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="count mismatch"):
            clip_t_score(np.ones((2, 3)), np.ones((3, 3)))

    def test_zero_norm_names_index(self):
        t = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="index 1"):
            clip_t_score(t, np.ones((2, 2)))

    def test_bad_scale(self):
        with pytest.raises(ValueError, match="scale"):
            clip_t_score(np.ones((1, 2)), np.ones((1, 2)), scale="pct")


class TestFlowLoss:
    def test_perfect_prediction(self, rng):
        v = rng.normal(size=(4, 6))
        samples = [FlowSample(row, row.copy()) for row in v]
        assert flow_matching_loss(samples) == 0.0

    def test_hand_case(self):
        assert flow_matching_loss([FlowSample([0.0, 0.0], [3.0, 4.0])]) == 25.0

    def test_duplication_invariance(self, rng):
        samples = [
            FlowSample(rng.normal(size=5), rng.normal(size=5)) for _ in range(3)
        ]
        once = flow_matching_loss(samples)
        twice = flow_matching_loss(samples + samples)
        assert twice == pytest.approx(once)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            flow_matching_loss([])

    def test_sample_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            FlowSample([1.0, 2.0], [1.0])

    def test_batch_matches_samples_and_one_row_calls(self, rng):
        n = embedcore._BLOCK + 1
        pred = rng.normal(size=(n, 7)).astype(np.float32)
        target = EmbeddingSet(rng.normal(size=(n, 7)).astype(np.float32))
        batch = flow_loss(pred, target)
        assert batch == flow_matching_loss(FlowSample(p, t) for p, t in zip(pred, target.vectors))
        assert batch == sum(flow_loss(p, t) for p, t in zip(pred, target.vectors)) / n

    def test_cross_sample_dims_checked(self):
        samples = [FlowSample([1.0], [0.0]), FlowSample([1.0, 2.0], [0.0, 0.0])]
        with pytest.raises(ValueError, match="dimension"):
            flow_matching_loss(samples)

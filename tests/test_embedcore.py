import math
import mmap
import os
import re
import signal
import tempfile

import numpy as np
import pytest
import scipy.linalg

from conftest import allow_cpus, assert_no_child_left, left_to_right_sum
from narrkit import embedcore
from narrkit.embedcore import (
    EmbeddingSet,
    FlowSample,
    GaussianMoments,
    PerturbationSpec,
    RegressionLossParams,
    clip_t_score,
    fit_moments,
    flow_loss,
    flow_matching_loss,
    frechet_distance,
    perturb,
    perturb_set,
    population_std,
    regression_loss,
    regression_loss_grad,
)
from narrkit.embedio import open_embeddings, write_embeddings


class TestCosine:
    """The cosine of one vector pair, as clip_t_score scores it."""

    def test_identity(self):
        assert clip_t_score([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert clip_t_score([1, 0], [0, 1]) == 0.0

    def test_hand_case(self):
        assert clip_t_score([1, 1], [1, -1]) == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariance(self, rng):
        for _ in range(100):
            a = rng.normal(size=8)
            b = rng.normal(size=8)
            c = float(rng.uniform(0.01, 100))
            assert clip_t_score(c * a, b) == pytest.approx(
                clip_t_score(a, b), abs=1e-12
            )

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            clip_t_score([0, 0], [1, 0])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            clip_t_score([1, 0], [1, 0, 0])


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
        assert batch.total == left_to_right_sum(r.total for r in rows) / n
        assert batch.cosine_term == left_to_right_sum(r.cosine_term for r in rows) / n
        assert batch.mse_term == left_to_right_sum(r.mse_term for r in rows) / n

    def test_zero_norm_names_pair_index(self, rng):
        pred = rng.normal(size=(embedcore._BLOCK + 5, 3))
        pred[embedcore._BLOCK + 2] = 0.0
        with pytest.raises(ValueError, match=f"^zero-norm embedding at pair index {embedcore._BLOCK + 2}$"):
            regression_loss(pred, rng.normal(size=pred.shape))

    @pytest.mark.parametrize("kernel", [regression_loss, clip_t_score])
    @pytest.mark.parametrize("zero,side", [((0,), 0), ((1,), 1), ((0, 1), 0)],
                             ids=["first", "second", "both"])
    def test_zero_norm_names_its_side(self, rng, kernel, zero, side):
        # the first zero-norm pair, past a block edge, whose row is zero in one set or both
        sets = [rng.normal(size=(embedcore._BLOCK + 5, 3)) for _ in range(2)]
        for k in zero:
            sets[k][embedcore._BLOCK + 2] = 0.0
        sets[1 - side][embedcore._BLOCK + 4] = 0.0  # a later zero row of the other set
        with pytest.raises(ValueError, match=f"^zero-norm embedding at pair index {embedcore._BLOCK + 2}$") as info:
            kernel(*sets)
        assert info.value.side == side

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

    @pytest.mark.parametrize("alpha,beta", [(-1, 1), (1, -1), (0, 0), (np.nan, 1), (1, np.inf)])
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

    def test_float32_set_bit_identical_to_float64_std(self, rng):
        m = rng.normal(loc=3.0, size=(301, 17)).astype(np.float32)
        std = population_std(EmbeddingSet(m))
        assert np.array_equal(std, np.std(m.astype(np.float64), axis=0, ddof=1))

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("dim", [1, 2, 3, 65, 129, 767])
    def test_column_strips_keep_np_std_bits(self, rng, dim, dtype):
        # 65 columns in strips of 64 and 1 would sum the last column pairwise; a long
        # single column runs past numpy's 8192-element cast buffer
        m = rng.normal(loc=3.0, size=(max(2 * embedcore._BLOCK + 1, 60_000 // dim), dim)).astype(dtype)
        assert np.array_equal(population_std(m), np.std(m, axis=0, ddof=1, dtype=np.float64))


class TestPerturb:
    def test_identity_spec_bitwise(self):
        spec = PerturbationSpec(0.0, 0.0, False, seed=1)
        for dtype in (np.float64, np.float32):
            z = np.linspace(-3, 3, 17).astype(dtype)
            out = perturb(z, np.ones(17), spec)
            assert out.dtype == dtype
            assert out.tobytes() == z.tobytes()

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64, np.int32])
    def test_identity_spec_returns_a_copy(self, dtype):
        z = np.array([0.0, -0.0, 1e-40, -3.5, 6e4, 7.0]).astype(dtype)
        out = perturb(z, np.ones(z.size), PerturbationSpec(0.0, 0.0, False, seed=3))
        assert out.dtype == (np.float64 if dtype is np.int32 else dtype)
        assert out.tobytes() == z.astype(out.dtype).tobytes()
        assert not np.shares_memory(out, z)

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

    @pytest.mark.parametrize(
        "kwargs", [dict(noise_scale=-1), dict(mask_rate=1.5), dict(noise_scale=np.nan), dict(noise_scale=np.inf),
                   dict(seed=-1), dict(seed=2**64)]
    )
    def test_bad_spec(self, kwargs):
        with pytest.raises(ValueError):
            PerturbationSpec(**kwargs)

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_seed_in_range_is_the_stream_entropy(self, seed):
        PerturbationSpec(seed=seed)
        item = np.random.default_rng(np.random.SeedSequence([seed, 0, 3]))
        order = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        assert embedcore._item_rng(seed, 3).random(4).tolist() == item.random(4).tolist()
        assert embedcore._order_rng(seed).random(4).tolist() == order.random(4).tolist()


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
        three = perturb_set(es, basis, spec, threads=3)
        assert one.vectors.tobytes() == three.vectors.tobytes()
        assert one.ids == three.ids

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

    @pytest.mark.parametrize("mode", ["coords", "sequence"])
    def test_equals_stacked_one_row_calls(self, rng, mode):
        es = self.make_set(rng, n=50)
        basis = rng.uniform(0.5, 2.0, size=es.dim)
        spec = PerturbationSpec(seed=6)
        out = perturb_set(es, basis, spec, shuffle_mode=mode)
        # A sequence shuffle permutes the rows instead of their coordinates.
        row_spec = spec if mode == "coords" else PerturbationSpec(spec.noise_scale, spec.mask_rate, False, spec.seed)
        rows = np.stack([perturb(v, basis, row_spec, item_index=i) for i, v in enumerate(es.vectors)])
        order = np.arange(len(es)) if mode == "coords" else embedcore._order_rng(spec.seed).permutation(len(es))
        assert out.vectors.dtype == np.float32
        assert np.array_equal(out.vectors, rows[order])
        assert out.ids == [es.ids[i] for i in order]

    def test_identity_spec_returns_equal_set(self, rng):
        es = self.make_set(rng)
        spec = PerturbationSpec(0.0, 0.0, False, seed=0)
        out = perturb_set(es, np.ones(es.dim), spec)
        assert out.vectors.tobytes() == es.vectors.tobytes()

    @pytest.mark.parametrize("mode", ["coords", "sequence"])
    @pytest.mark.parametrize("n", [0, 40])
    def test_identity_spec_returns_a_copy(self, rng, mode, n):
        es = self.make_set(rng, n=n)
        spec = PerturbationSpec(0.0, 0.0, False, seed=0)
        out = perturb_set(es, np.ones(es.dim), spec, shuffle_mode=mode)
        assert (out.vectors.dtype, out.vectors.shape) == (es.vectors.dtype, es.vectors.shape)
        assert out.vectors.tobytes() == es.vectors.tobytes()
        assert out.ids == es.ids and out.ids is not es.ids
        assert not np.shares_memory(out.vectors, es.vectors)

    def test_bad_mode(self, rng):
        es = self.make_set(rng, n=4)
        with pytest.raises(ValueError, match="shuffle_mode"):
            perturb_set(es, np.ones(es.dim), PerturbationSpec(), shuffle_mode="rows")


def count_forks(monkeypatch) -> list:
    """Record each os.fork call in the list returned; the forks still happen."""
    calls, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


class TestForkedWorkers:
    """perturb_set with threads above 1 splits the rows across forked workers."""

    @pytest.mark.parametrize("n", [1, 2, 3, 41])
    @pytest.mark.parametrize("with_ids", [False, True])
    @pytest.mark.parametrize("mode", ["coords", "sequence"])
    def test_bytes_do_not_depend_on_threads(self, rng, monkeypatch, mode, with_ids, n):
        allow_cpus(monkeypatch, 3)
        forks = count_forks(monkeypatch)
        es = EmbeddingSet(rng.normal(size=(n, 24)).astype(np.float32),
                          [f"e{i}" for i in range(n)] if with_ids else None)
        basis = rng.uniform(0.5, 2.0, size=es.dim)
        spec = PerturbationSpec(seed=17)
        outs = [perturb_set(es, basis, spec, shuffle_mode=mode, threads=t) for t in (1, 2, 3)]
        # min(threads, rows) processes each: threads 2 and 3 fork one and two workers
        assert len(forks) == min(2, n) - 1 + min(3, n) - 1
        for out in outs[1:]:
            assert (out.vectors.dtype, out.vectors.shape) == (es.vectors.dtype, es.vectors.shape)
            assert out.vectors.tobytes() == outs[0].vectors.tobytes()
            assert out.ids == outs[0].ids
        assert_no_child_left()

    def test_float64_set(self, rng, monkeypatch):
        allow_cpus(monkeypatch, 2)
        es = EmbeddingSet(rng.normal(size=(9, 5)))
        one, two = (perturb_set(es, np.ones(5), PerturbationSpec(seed=2), threads=t) for t in (1, 2))
        assert two.vectors.dtype == np.float64
        assert two.vectors.tobytes() == one.vectors.tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_overflow_is_one_error_and_no_warning(self, rng, monkeypatch, threads):
        # RuntimeWarnings fail the test run, in a worker too, where one makes the worker fail.
        allow_cpus(monkeypatch, 2)
        es = EmbeddingSet(rng.normal(size=(6, 8)).astype(np.float32))
        with pytest.raises(ValueError, match="^the noise takes perturbed values past the float32 range$"):
            perturb_set(es, np.ones(8), PerturbationSpec(noise_scale=1e308), threads=threads)
        assert_no_child_left()

    @pytest.mark.parametrize("bad_row", [0, 5], ids=["parent-range", "worker-range"])
    def test_a_failing_range_reaps_every_worker(self, rng, monkeypatch, capfd, bad_row):
        allow_cpus(monkeypatch, 2)
        row = embedcore._perturb_row

        def failing(x, basis, spec, i, coord_shuffle):
            if i == bad_row:
                raise RuntimeError(f"row {i} failed")
            return row(x, basis, spec, i, coord_shuffle)

        monkeypatch.setattr(embedcore, "_perturb_row", failing)
        es = EmbeddingSet(rng.normal(size=(6, 8)).astype(np.float32))
        if bad_row == 0:  # the caller's own range raises as it would at threads=1
            with pytest.raises(RuntimeError, match="row 0 failed"):
                perturb_set(es, np.ones(8), PerturbationSpec(), threads=2)
        else:
            with pytest.raises(ChildProcessError, match=r"^perturb worker for rows 3\.\.5 exited with status 1$"):
                perturb_set(es, np.ones(8), PerturbationSpec(), threads=2)
            assert "RuntimeError: row 5 failed" in capfd.readouterr().err  # the worker's traceback
        assert_no_child_left()

    def test_a_worker_killed_by_a_signal(self, rng, monkeypatch):
        allow_cpus(monkeypatch, 2)
        row, parent = embedcore._perturb_row, os.getpid()

        def killed(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return row(*args)

        monkeypatch.setattr(embedcore, "_perturb_row", killed)
        es = EmbeddingSet(rng.normal(size=(6, 8)).astype(np.float32))
        with pytest.raises(ChildProcessError, match=r"^perturb worker for rows 3\.\.5 exited with status -9$"):
            perturb_set(es, np.ones(8), PerturbationSpec(), threads=2)
        assert_no_child_left()

    @pytest.mark.parametrize("threads", [1, 3])
    def test_opens_no_temporary_file(self, rng, monkeypatch, threads):
        # Every process stores its rows into shared memory that backs the result.
        allow_cpus(monkeypatch, 3)

        def no_file(*args, **kwargs):
            raise AssertionError("perturb_set opened a temporary file")

        monkeypatch.setattr(tempfile, "TemporaryFile", no_file)
        es = EmbeddingSet(rng.normal(size=(2 * embedcore._BLOCK + 5, 6)).astype(np.float32))
        spec = PerturbationSpec(seed=9)
        out = perturb_set(es, np.ones(6), spec, threads=threads)
        rows = np.stack([perturb(v, np.ones(6), spec, item_index=i) for i, v in enumerate(es.vectors)])
        assert out.vectors.tobytes() == rows.tobytes()
        assert_no_child_left()

    @pytest.mark.parametrize("processes", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["coords", "sequence"])
    def test_writer_gets_every_row_once(self, rng, monkeypatch, mode, processes):
        # Each process calls the writer on its own blocks; it records them in shared memory.
        allow_cpus(monkeypatch, 3)
        n, dim = 2 * embedcore._BLOCK + 5, 6
        es = EmbeddingSet(rng.normal(size=(n, dim)).astype(np.float32), [f"e{i}" for i in range(n)])
        spec = PerturbationSpec(seed=13)
        shared = mmap.mmap(-1, n * (4 * dim + 16))
        rows = np.ndarray((n, dim), np.float32, shared)
        calls, pids = np.ndarray((2, n), np.int64, shared, rows.nbytes)

        def record(block, k):
            rows[k : k + len(block)] = block
            calls[k : k + len(block)] += 1
            pids[k : k + len(block)] = os.getpid()

        ids = embedcore._perturb_into(record, es, np.ones(dim), spec, mode, processes)
        expected = perturb_set(es, np.ones(dim), spec, mode)
        assert calls.tolist() == [1] * n
        assert len(set(pids.tolist())) == processes
        assert rows.tobytes() == expected.vectors.tobytes()
        assert ids == expected.ids
        assert_no_child_left()

    def test_worker_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert embedcore._worker_count(8, 100) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert embedcore._worker_count(8, 100) == 3

    def test_worker_count(self, monkeypatch):
        allow_cpus(monkeypatch, 3)
        assert [embedcore._worker_count(t, rows) for t, rows in
                ((1, 100), (2, 100), (1000, 100), (1000, 2), (1000, 1), (4, 0))] == [1, 2, 3, 2, 1, 1]
        allow_cpus(monkeypatch, 1)
        assert embedcore._worker_count(1000, 100) == 1

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, rng, threads):
        es = EmbeddingSet(rng.normal(size=(4, 3)))
        with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
            perturb_set(es, np.ones(3), PerturbationSpec(), threads=threads)


class TestArrayInputs:
    """A plain array is checked as a file's rows are, and perturb_set takes one."""

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("kernel", [regression_loss, flow_loss, clip_t_score, lambda x, y: population_std(x),
                                        lambda x, y: fit_moments(x)],
                             ids=["regression_loss", "flow_loss", "clip_t_score", "population_std", "fit_moments"])
    def test_non_finite_array_rejected(self, rng, kernel, value):
        x, y = rng.normal(size=(2, embedcore._BLOCK + 40, 4)).astype(np.float32)
        x[embedcore._BLOCK + 20, 2] = value  # in the second block
        with pytest.raises(ValueError, match="^embeddings must be finite$"):
            kernel(x, y)

    @pytest.mark.parametrize("kernel", [regression_loss, flow_loss, clip_t_score, lambda x, y: population_std(x),
                                        lambda x, y: fit_moments(x)],
                             ids=["regression_loss", "flow_loss", "clip_t_score", "population_std", "fit_moments"])
    def test_zero_width_array_rejected(self, kernel):
        # as EmbeddingSet and a file's header reject one
        with pytest.raises(ValueError, match="^embedding dimension must be >= 1$"):
            kernel(np.ones((3, 0)), np.ones((3, 0)))

    @pytest.mark.parametrize("call, err", [
        (lambda: regression_loss(np.array([1 + 5j, 2]), np.array([1, 2.0])), "embeddings"),
        (lambda: flow_loss(np.ones((2, 2)), np.full((2, 2), 1j)), "embeddings"),
        (lambda: population_std(np.ones((3, 2), complex)), "embeddings"),
        (lambda: regression_loss_grad(np.array([1j, 2]), np.ones(2)), "pred"),
        (lambda: FlowSample(np.ones(2), np.array([1, 2j])), "target_drift"),
        (lambda: perturb(np.array([1j, 2]), np.ones(2), PerturbationSpec()), "embedding"),
        (lambda: perturb(np.ones(2), np.array([1j, 2]), PerturbationSpec()), "std_basis"),
        (lambda: perturb_set(np.ones((2, 2)), np.array([1j, 2]), PerturbationSpec()), "std_basis"),
    ], ids=["regression_loss", "flow_loss", "population_std", "grad", "FlowSample", "perturb", "perturb-basis",
            "perturb_set-basis"])
    def test_complex_rejected(self, call, err):
        # a cast to float would keep only the real part
        with pytest.raises(ValueError, match=f"^{err} must be real numbers$"):
            call()

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_perturb_set_takes_an_array(self, dtype):
        # as a set without ids, whose vectors are a float array
        x = np.arange(12, dtype=dtype).reshape(4, 3)
        out = perturb_set(x, np.ones(3), PerturbationSpec(seed=2))
        expected = perturb_set(EmbeddingSet(x), np.ones(3), PerturbationSpec(seed=2))
        assert out.ids is None
        assert out.vectors.dtype == expected.vectors.dtype == np.dtype(np.float32 if dtype is np.float32 else np.float64)
        assert out.vectors.tobytes() == expected.vectors.tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_std_basis_rejected(self, value):
        basis = np.array([1.0, value, 1.0])
        with pytest.raises(ValueError, match="^std_basis must be finite$"):
            perturb_set(EmbeddingSet(np.ones((4, 3), np.float32)), basis, PerturbationSpec())
        with pytest.raises(ValueError, match="^std_basis must be finite$"):
            perturb(np.ones(3), basis, PerturbationSpec())


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

    @pytest.mark.parametrize(
        "shape,dtype",
        [((500, 12), np.float32), ((500, 12), np.float64), ((40, 1), np.float32)],
        ids=["float32", "float64", "one-dim"],
    )
    def test_bit_identical_to_np_cov(self, rng, shape, dtype):
        m = rng.normal(loc=2.0, size=shape).astype(dtype)
        before = m.copy()
        moments = fit_moments(EmbeddingSet(m))
        assert np.array_equal(moments.mean, m.astype(np.float64).mean(axis=0))
        assert np.array_equal(
            moments.covariance, np.atleast_2d(np.cov(m.astype(np.float64), rowvar=False, ddof=1))
        )
        assert np.array_equal(m, before)  # centred in a copy, never in the caller's rows

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("dim", [1, 2, 3, 65, 129, 767])
    def test_mean_bit_identical_to_float64_copy(self, rng, dim, dtype):
        m = rng.normal(loc=2.0, size=(max(2 * embedcore._BLOCK + 1, 60_000 // dim), dim)).astype(dtype)
        assert np.array_equal(fit_moments(m).mean, np.array(m, np.float64).mean(axis=0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dim", [1, 65])
    def test_multi_block_covariance_near_np_cov(self, rng, dim, dtype):
        m = rng.normal(loc=2.0, size=(3 * embedcore._BLOCK + 7, dim)).astype(dtype)
        cov = fit_moments(m).covariance
        expected = np.atleast_2d(np.cov(m.astype(np.float64), rowvar=False, ddof=1))
        # rtol 1e-12 of sqrt(C_ii C_jj), which bounds |C_ij|: near-zero entries carry
        # the rounding of their large terms
        scale = np.sqrt(np.outer(np.diag(expected), np.diag(expected)))
        assert np.all(np.abs(cov - expected) <= 1e-12 * scale)
        assert np.array_equal(cov, cov.T)

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

    @pytest.mark.parametrize("jitter", [-1.0, np.nan, np.inf])
    def test_bad_jitter(self, rng, jitter):
        m = random_moments(rng, 3)
        with pytest.raises(ValueError, match="^jitter must be finite and >= 0"):
            frechet_distance(m, m, jitter=jitter)

    @pytest.mark.parametrize("jitter", [1e17, 1e20, 1e150])
    def test_swamping_jitter_rejected(self, rng, jitter):
        a = fit_moments(rng.normal(size=(50, 8)).astype(np.float32))
        b = fit_moments(rng.normal(size=(50, 8)).astype(np.float32))
        constant = fit_moments(np.zeros((50, 8)))
        error = f"jitter {jitter!r} swamps the mean term and every variance of the first set"
        with pytest.raises(ValueError, match=re.escape(error)):
            frechet_distance(a, b, jitter=jitter)
        with pytest.raises(ValueError, match="of the second set$"):
            frechet_distance(constant, b, jitter=jitter)

    def test_jitter_that_swamps_only_the_mean_term_rejected(self):
        rng = np.random.default_rng(0)
        a, b = (fit_moments(rng.normal(size=(50, 8)).astype(np.float32)) for _ in range(2))
        ones, zeros = fit_moments(np.ones((5, 3))), fit_moments(np.zeros((5, 3)))
        # Four of each set's eight jittered variances round to 1e16 + 2, not to the jitter.
        with pytest.raises(ValueError, match=r"^jitter 1e\+16 swamps the mean term$"):
            frechet_distance(a, b, jitter=1e16)
        with pytest.raises(ValueError, match=r"^jitter 1e\+150 swamps the mean term$"):
            frechet_distance(ones, zeros, jitter=1e150)  # no variance at all to swamp
        # A jitter that leaves the mean term its digits is a jittered distance, not an error.
        assert frechet_distance(a, b, jitter=1e10) == 0.08673095703125
        assert frechet_distance(ones, zeros, jitter=1e10) == 3.0
        assert frechet_distance(ones, zeros, jitter=0.0) == 3.0

    def test_default_jitter_scores_sets_it_does_not_swamp(self):
        # no variance to swamp, or a variance of 1e-90 swamped while the mean term is not
        constant, tiny = fit_moments(np.ones((5, 3))), fit_moments(np.array([[0, 0, 0], [0, 0, 1e-45]]))
        assert frechet_distance(constant, fit_moments(np.zeros((5, 3)))) == pytest.approx(3.0)
        assert frechet_distance(tiny, constant) == pytest.approx(3.0)

    def test_non_finite_names_stage(self):
        a = GaussianMoments([np.inf], [[1.0]])
        b = GaussianMoments([0.0], [[1.0]])
        with pytest.raises(ValueError, match="mean term"):
            frechet_distance(a, b)

    def test_bits_of_jitter_times_eye_on_copies(self, rng):
        # The body adds the jitter to the diagonals in place and drops each matrix
        # after its last use; the operations and their order are those of the route
        # below, so the bits are too. Only _frechet changes the moments it is given.
        a, b = (fit_moments(rng.normal(size=(300, 40))) for _ in range(2))
        before = [m.covariance.copy() for m in (a, b)]
        value = frechet_distance(a, b, jitter=1e-3)
        assert value == eye_frechet(a, b, 1e-3)
        assert all(np.array_equal(m.covariance, c) for m, c in zip((a, b), before))
        moments = [a, b]
        assert embedcore._frechet(moments, 1e-3) == value
        assert moments == []

    def test_positive_definite_covariance_takes_no_eigenvectors(self, rng, monkeypatch):
        # The jittered C_a has a Cholesky factor, and the trace term needs only eigvalsh.
        a, b = (fit_moments(rng.normal(size=(60, 12))) for _ in range(2))
        expected = eye_frechet(a, b, 1e-6)

        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh ran")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        assert embedcore._frechet([a, b], 1e-6) == expected

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

    def test_mean_sums_left_to_right(self):
        # Python 3.12's builtin sum compensates and gives 1.0; a left-to-right sum loses the 1.0.
        assert embedcore._mean(np.array([1e16, 1.0, -1e16])) == 0.0
        assert math.copysign(1.0, embedcore._mean(np.array([-0.0, -0.0]))) == 1.0  # as sum from 0

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="count mismatch"):
            clip_t_score(np.ones((2, 3)), np.ones((3, 3)))

    def test_zero_norm_names_index(self):
        t = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="index 1"):
            clip_t_score(t, np.ones((2, 2)))

    def test_set_is_left_to_right_mean_of_one_row_calls(self, rng):
        # one row past a block boundary, stored as float32 like a file-backed set
        n = embedcore._BLOCK + 1
        text = rng.normal(size=(n, 24)).astype(np.float32)
        image = (text + rng.normal(size=(n, 24))).astype(np.float32)
        cosines = [clip_t_score(t[None], v[None]) for t, v in zip(text, image)]
        assert clip_t_score(text, image) == left_to_right_sum(cosines) / n
        assert clip_t_score(text, image, scale="percent") == left_to_right_sum(cosines) / n * 100.0

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
        assert batch == left_to_right_sum(flow_loss(p, t) for p, t in zip(pred, target.vectors)) / n

    def test_cross_sample_dims_checked(self):
        samples = [FlowSample([1.0], [0.0]), FlowSample([1.0, 2.0], [0.0, 0.0])]
        with pytest.raises(ValueError, match="dimension"):
            flow_matching_loss(samples)


def eye_frechet(a, b, jitter):
    """Reference for frechet_distance once its checks pass: jitter * eye added to copies."""
    eye = np.eye(a.dim)
    ca, cb = a.covariance + jitter * eye, b.covariance + jitter * eye
    diff = a.mean - b.mean
    try:
        f = np.linalg.cholesky(ca)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(ca)
        f = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    inner = f.T @ cb @ f
    eigvals = np.linalg.eigvalsh((inner + inner.T) / 2.0)
    trace_cross = 2.0 * float(np.sum(np.sqrt(np.clip(eigvals, 0.0, None))))
    return max(0.0, float(diff @ diff) + float(np.trace(ca) + np.trace(cb)) - trace_cross)


def sliced_pair_rows(x, y, row_fn):
    """Reference for _pair_rows: float64 copies of slices of whole in-memory sets."""
    b = embedcore._BLOCK
    return np.concatenate([row_fn(x[lo : lo + b].astype(np.float64), y[lo : lo + b].astype(np.float64), lo)
                           for lo in range(0, len(x), b)], axis=-1)


def sliced_covariance(x):
    """Reference for fit_moments' covariance: np.mean, then centred slices of the whole set."""
    mean = np.mean(x, axis=0, dtype=np.float64)
    b = embedcore._BLOCK
    return sum(np.dot(c.T, c) for c in (np.subtract(x[lo : lo + b], mean, dtype=np.float64)
                                        for lo in range(0, len(x), b))) * np.true_divide(1, len(x) - 1)


class TestStreamed:
    """Kernels over a file's blocks give the bits of the whole-set references."""

    @pytest.fixture
    def files(self, rng, tmp_path, request):
        n, dim = request.param
        sets = [rng.normal(loc=0.5, size=(n, dim)).astype(np.float32) for _ in range(2)]
        paths = [tmp_path / "a.emb", tmp_path / "b.emb"]
        for rows, path in zip(sets, paths):
            write_embeddings(EmbeddingSet(rows), path)
        return sets, paths

    SHAPES = [(n, 24) for n in (2, 1023, 1024, 1025, 2049)] + [(1025, 1)]

    @pytest.mark.parametrize("files", SHAPES, indirect=True, ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("order", [0, 1], ids=["ab", "ba"])
    def test_bits_equal_whole_set_references(self, files, order):
        sets, paths = files
        x, y = sets[order], sets[1 - order]
        with open_embeddings(paths[order]) as fx, open_embeddings(paths[1 - order]) as fy:
            assert np.array_equal(population_std(fx), np.std(x, axis=0, ddof=1, dtype=np.float64))
            moments = fit_moments(fx)
            assert np.array_equal(moments.mean, np.mean(x, axis=0, dtype=np.float64))
            assert np.array_equal(moments.covariance, sliced_covariance(x))
            params = RegressionLossParams(alpha=2.0, beta=0.5)
            loss = regression_loss(fx, fy, params)
            cos, mse = sliced_pair_rows(x, y, lambda a, b, first: (
                params.alpha * (1.0 - embedcore._row_cosines(a, b, first)[0]),
                params.beta * np.mean((a - b) ** 2, axis=1)))
            assert (loss.total, loss.cosine_term, loss.mse_term) == (
                embedcore._mean(cos + mse), embedcore._mean(cos), embedcore._mean(mse))
            assert flow_loss(fx, fy) == embedcore._mean(
                sliced_pair_rows(x, y, lambda a, b, first: embedcore._rowdot(a - b, a - b)))
            assert clip_t_score(fx, fy) == embedcore._mean(sliced_pair_rows(x, y, embedcore._row_cosines)[0])
            for mode in ("coords", "sequence"):  # blocks() and take() of a file and of a set
                expected = perturb_set(EmbeddingSet(x), np.ones(x.shape[1]), PerturbationSpec(seed=5), mode)
                for threads in (1, 2):
                    out = perturb_set(fx, np.ones(x.shape[1]), PerturbationSpec(seed=5), mode, threads)
                    assert out.vectors.tobytes() == expected.vectors.tobytes()
        assert_no_child_left()

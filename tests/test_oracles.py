import numpy as np
import pytest

from anyopt.objectives import MulticlassLogistic, Quadratic
from anyopt.oracles import (
    NOISE_BLOCK,
    EpochExhaustedError,
    MiniBatchOracle,
    NoiseSpec,
    SyntheticOracle,
    certified_sigma,
    child_rng,
)


def small_quadratic(dim=2):
    return Quadratic(np.eye(dim), np.zeros(dim))


def toy_logistic(n=20, d_in=3, k=2, seed=3):
    rng = np.random.default_rng(seed)
    return MulticlassLogistic(rng.random((n, d_in)), rng.integers(0, k, n), k)


class TestCertifiedSigma:
    def test_gaussian_unit(self):
        assert certified_sigma(NoiseSpec("gaussian", 1.0), 1) == pytest.approx(1.0)

    def test_student_t4(self):
        assert certified_sigma(NoiseSpec("student-t", 1.0, 4.0), 1) == pytest.approx(np.sqrt(2.0))

    def test_student_t25_dim4(self):
        assert certified_sigma(NoiseSpec("student-t", 1.0, 2.5), 4) == pytest.approx(np.sqrt(20.0))

    def test_infinite_variance_rejected(self):
        with pytest.raises(ValueError):
            certified_sigma(NoiseSpec("student-t", 1.0, 2.0), 3)
        with pytest.raises(ValueError):
            certified_sigma(NoiseSpec("pareto", 1.0, 1.5), 3)

    @pytest.mark.parametrize("family,param", [("gaussian", 3.0), ("student-t", 4.0), ("pareto", 4.0)])
    def test_monte_carlo_second_moment_light_tails(self, family, param):
        # Families with finite fourth moment: the empirical check is tight.
        noise = NoiseSpec(family, 0.7, param)
        oracle = SyntheticOracle(noise, seed=123)
        obj = small_quadratic(3)
        h = np.zeros(3)
        draws = np.array([oracle.query(obj, h) for _ in range(200_000)])
        sigma = certified_sigma(noise, 3)
        est = np.mean(np.sum(draws**2, axis=1))
        assert est <= sigma**2 * 1.02
        assert est >= sigma**2 * 0.95

    def test_monte_carlo_second_moment_heavy_tails(self):
        # dof 2.5: the second moment exists but its empirical mean converges
        # slowly (infinite fourth moment), so this check uses a fixed stream.
        noise = NoiseSpec("student-t", 1.0, 2.5)
        rng = child_rng(2024, 0)
        draws = noise.scale * rng.standard_t(noise.param, size=(1_000_000, 4))
        est = np.mean(np.sum(draws**2, axis=1))
        assert est == pytest.approx(certified_sigma(noise, 4) ** 2, rel=0.02)


def per_step_noise(noise, seed, steps, dim):
    """Reference stream: one draw of `dim` values per step, as the oracle defines it."""
    rng = child_rng(seed)
    rows = []
    for _ in range(steps):
        if noise.family == "gaussian":
            raw = rng.standard_normal(dim)
        elif noise.family == "student-t":
            raw = rng.standard_t(noise.param, size=dim)
        else:
            raw = (1.0 + rng.pareto(noise.param, size=dim)) * rng.choice((-1.0, 1.0), size=dim)
        rows.append(noise.scale * raw)
    return np.array(rows)


FAMILIES = [("gaussian", 3.0), ("student-t", 2.5), ("pareto", 3.0)]


class TestNoiseSpec:
    @pytest.mark.parametrize("family,param", [("student-t", 2.0), ("student-t", 1.0),
                                              ("pareto", 2.0), ("pareto", 1.5)])
    def test_infinite_variance_rejected_at_construction(self, family, param):
        with pytest.raises(ValueError, match="finite second moment"):
            NoiseSpec(family, 1.0, param)

    def test_gaussian_ignores_param(self):
        assert NoiseSpec("gaussian", 1.0, 0.5).family == "gaussian"


class TestBlockDraws:
    @pytest.mark.parametrize("family,param", FAMILIES)
    def test_block_draws_equal_per_step_draws(self, family, param):
        noise = NoiseSpec(family, 0.7, param)
        obj = Quadratic(np.eye(3), np.zeros(3))
        oracle = SyntheticOracle(noise, seed=77)
        steps = 2 * NOISE_BLOCK + 5  # two refills
        served = np.array([oracle.query(obj, np.zeros(3), t) for t in range(steps)])
        np.testing.assert_array_equal(served, per_step_noise(noise, 77, steps, 3))

    @pytest.mark.parametrize("family,param", FAMILIES)
    def test_batched_rows_equal_single_streams(self, family, param):
        noise = NoiseSpec(family, 0.7, param)
        obj = Quadratic(np.eye(2), np.zeros(2))
        seeds = [5, 6, 7]
        oracle = SyntheticOracle(noise, seed=seeds)
        assert oracle.replications == 3
        served = np.array([oracle.query(obj, np.zeros((3, 2))) for _ in range(NOISE_BLOCK + 3)])
        for i, seed in enumerate(seeds):
            np.testing.assert_array_equal(served[:, i],
                                          per_step_noise(noise, seed, NOISE_BLOCK + 3, 2))

    def test_one_dimension_per_oracle(self):
        oracle = SyntheticOracle(NoiseSpec("gaussian", 1.0), seed=1)
        oracle.query(small_quadratic(2), np.zeros(2))
        with pytest.raises(ValueError, match="dimension"):
            oracle.query(small_quadratic(3), np.zeros(3))

    def test_seed_shape_checked(self):
        with pytest.raises(ValueError):
            SyntheticOracle(NoiseSpec(), seed=[])
        with pytest.raises(ValueError):
            SyntheticOracle(NoiseSpec(), seed=[[1, 2]])


class TestSyntheticOracle:
    def test_zero_noise_is_exact(self):
        obj = small_quadratic()
        oracle = SyntheticOracle(NoiseSpec("gaussian", 0.0), seed=1)
        h = np.array([0.3, -0.7])
        np.testing.assert_array_equal(oracle.query(obj, h, 1), obj.gradient(h))

    def test_reproducible_streams(self):
        obj = small_quadratic()
        h = np.array([0.1, 0.2])
        runs = []
        for _ in range(2):
            oracle = SyntheticOracle(NoiseSpec("student-t", 0.5, 2.5), seed=99)
            runs.append(np.array([oracle.query(obj, h, t) for t in range(1, 51)]))
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_unbiased_heavy_tails(self):
        # mean of 1e5 queries within 4 sigma / sqrt(N) per coordinate
        obj = small_quadratic()
        noise = NoiseSpec("student-t", 1.0, 2.5)
        oracle = SyntheticOracle(noise, seed=7)
        h = np.array([0.5, -0.25])
        n = 100_000
        total = np.zeros(2)
        for _ in range(n):
            total += oracle.query(obj, h)
        sigma = certified_sigma(noise, 2)
        np.testing.assert_allclose(total / n, obj.gradient(h), atol=4.0 * sigma / np.sqrt(n))

    def test_error_decays_like_inverse_sqrt(self):
        # log-log slope of the Monte Carlo mean error vs N, within +-0.15 of -1/2
        obj = small_quadratic(4)
        h = np.zeros(4)
        sizes = np.array([100, 1_000, 10_000])
        errors = []
        for n in sizes:
            reps = []
            for rep in range(6):
                oracle = SyntheticOracle(NoiseSpec("gaussian", 1.0), seed=1000 + rep)
                total = np.zeros(4)
                for _ in range(n):
                    total += oracle.query(obj, h)
                reps.append(np.linalg.norm(total / n - obj.gradient(h)))
            errors.append(np.mean(reps))
        slope = np.polyfit(np.log(sizes), np.log(errors), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.15)


class RecordingLogistic:
    """Wraps an objective to record which example indices each query touched."""

    def __init__(self, inner):
        self.inner = inner
        self.seen = []

    @property
    def n_examples(self):
        return self.inner.n_examples

    @property
    def dim(self):
        return self.inner.dim

    def gradient(self, h, indices=None):
        self.seen.append(np.array(indices))
        return self.inner.gradient(h, indices=indices)


class TestMiniBatchOracle:
    def test_degenerate_full_batch(self):
        obj = toy_logistic(n=16)
        oracle = MiniBatchOracle(batch_size=16, seed=5)
        h = np.zeros(obj.dim)
        np.testing.assert_allclose(oracle.query(obj, h), obj.gradient(h), rtol=1e-12)

    def test_epoch_partitions_dataset(self):
        obj = RecordingLogistic(toy_logistic(n=21))
        oracle = MiniBatchOracle(batch_size=8, seed=5)
        h = np.zeros(obj.dim)
        for _ in range(oracle.steps_per_epoch(21)):
            oracle.query(obj, h)
        visited = np.concatenate(obj.seen)
        assert sorted(visited.tolist()) == list(range(21))
        assert [len(s) for s in obj.seen] == [8, 8, 5]

    def test_weighted_epoch_mean_equals_full_gradient(self):
        obj = toy_logistic(n=21)
        oracle = MiniBatchOracle(batch_size=8, seed=5)
        h = np.full(obj.dim, 0.1)
        total = np.zeros(obj.dim)
        sizes = [8, 8, 5]
        for size in sizes:
            total += size * oracle.query(obj, h)
        np.testing.assert_allclose(total / 21, obj.gradient(h), rtol=1e-12)

    def test_exhaustion_without_shuffle(self):
        obj = toy_logistic(n=8)
        oracle = MiniBatchOracle(batch_size=8, seed=5, shuffle=False)
        oracle.query(obj, np.zeros(obj.dim))
        with pytest.raises(EpochExhaustedError):
            oracle.query(obj, np.zeros(obj.dim))

    def test_reshuffles_between_epochs(self):
        obj = RecordingLogistic(toy_logistic(n=24))
        oracle = MiniBatchOracle(batch_size=8, seed=5)
        h = np.zeros(obj.dim)
        for _ in range(6):
            oracle.query(obj, h)
        first = np.concatenate(obj.seen[:3])
        second = np.concatenate(obj.seen[3:])
        assert sorted(first.tolist()) == sorted(second.tolist()) == list(range(24))
        assert not np.array_equal(first, second)


class TestChildRng:
    def test_distinct_keys_distinct_streams(self):
        a = child_rng(0, 1).random(4)
        b = child_rng(0, 2).random(4)
        assert not np.array_equal(a, b)

    def test_same_keys_same_stream(self):
        np.testing.assert_array_equal(child_rng(3, 1, 2).random(4), child_rng(3, 1, 2).random(4))

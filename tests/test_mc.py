import numpy as np
import pytest

from ergolab.mc import (
    EstimateWithError,
    batch_estimate,
    combine_batch_means,
    run_batch_stats,
)


def _uniform_sampler(rng, size):
    return rng.random(size)


def test_uniform_mean_within_five_sigma():
    est = batch_estimate(_uniform_sampler, batch_size=400, n_batches=40, seed=7)
    assert est.n_samples == 16000
    assert est.within(0.5)
    assert 0.0 < est.stderr < 0.01


def test_same_seed_reproduces_bit_for_bit():
    a = batch_estimate(_uniform_sampler, batch_size=100, n_batches=32, seed=3)
    b = batch_estimate(_uniform_sampler, batch_size=100, n_batches=32, seed=3)
    assert a == b
    c = batch_estimate(_uniform_sampler, batch_size=100, n_batches=32, seed=4)
    assert c.value != a.value


def test_parallel_jobs_match_serial_exactly():
    serial = batch_estimate(_uniform_sampler, batch_size=50, n_batches=36, seed=9)
    for jobs in (2, 3, 5):
        par = batch_estimate(
            _uniform_sampler, batch_size=50, n_batches=36, seed=9, jobs=jobs
        )
        assert par == serial


def _uniform_mean(rng, size):
    return rng.random(size).mean()


def test_manual_range_split_concatenates_to_the_full_run():
    full = run_batch_stats(_uniform_mean, 20, range(0, 30), seed=1)
    left = run_batch_stats(_uniform_mean, 20, range(0, 12), seed=1)
    right = run_batch_stats(_uniform_mean, 20, range(12, 30), seed=1)
    assert np.array_equal(np.concatenate([left, right]), full)
    est = combine_batch_means(full, 20, seed=1)
    assert isinstance(est, EstimateWithError)
    assert est == batch_estimate(_uniform_sampler, batch_size=20, n_batches=30, seed=1)


def test_constant_sampler_hits_the_stderr_floor():
    est = batch_estimate(
        lambda rng, size: np.full(size, 2.5), batch_size=10, n_batches=30, seed=0
    )
    assert est.value == 2.5
    assert est.stderr == np.finfo(float).eps


def test_too_few_batches_rejected():
    with pytest.raises(ValueError):
        batch_estimate(_uniform_sampler, batch_size=10, n_batches=8, seed=0)


def test_bad_sampler_shape_rejected():
    with pytest.raises(ValueError, match="shape"):
        batch_estimate(
            lambda rng, size: rng.random(size + 1), batch_size=10, n_batches=30, seed=0
        )

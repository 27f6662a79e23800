import numpy as np
import pytest

from ergolab.mc import (
    GATE_SE,
    EstimateWithError,
    batch_estimate,
    batch_statistic_estimate,
    combine_batch_means,
    run_batch_stats,
)


def _uniform_sampler(rng, size):
    return rng.random(size)


def test_uniform_mean_within_five_sigma():
    est = batch_estimate(_uniform_sampler, 16000, n_batches=40, seed=7)
    assert est.n_samples == 16000
    assert est.within(0.5)
    assert 0.0 < est.stderr < 0.01


def test_same_seed_reproduces_bit_for_bit():
    a = batch_estimate(_uniform_sampler, 3200, n_batches=32, seed=3)
    b = batch_estimate(_uniform_sampler, 3200, n_batches=32, seed=3)
    assert a == b
    c = batch_estimate(_uniform_sampler, 3200, n_batches=32, seed=4)
    assert c.value != a.value


def test_parallel_jobs_match_serial_exactly():
    serial = batch_estimate(_uniform_sampler, 1800, n_batches=36, seed=9)
    for jobs in (2, 3, 5):
        par = batch_estimate(_uniform_sampler, 1800, n_batches=36, seed=9, jobs=jobs)
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
    assert est == batch_estimate(_uniform_sampler, 600, n_batches=30, seed=1)


def test_constant_sampler_hits_the_stderr_floor():
    est = batch_estimate(lambda rng, size: np.full(size, 2.5), 300, n_batches=30, seed=0)
    assert est.value == 2.5
    assert est.stderr == np.finfo(float).eps


def test_too_few_batches_rejected():
    with pytest.raises(ValueError):
        batch_estimate(_uniform_sampler, 80, n_batches=8, seed=0)


def test_bad_sampler_shape_rejected():
    with pytest.raises(ValueError, match="shape"):
        batch_estimate(lambda rng, size: rng.random(size + 1), 300, n_batches=30, seed=0)


@pytest.mark.parametrize("samples", [59, 60, 61, 89, 1000])
def test_samples_are_floor_divided_into_batches(samples):
    sizes = []

    def stat(rng, size):
        sizes.append(size)
        return float(rng.random())

    for estimator, fn in ((batch_estimate, _uniform_sampler), (batch_statistic_estimate, stat)):
        if samples < 60:
            with pytest.raises(ValueError, match="fewer than 2 per batch"):
                estimator(fn, samples, n_batches=30, seed=0)
            continue
        est = estimator(fn, samples, n_batches=30, seed=0)
        assert est.n_samples == samples // 30 * 30
    assert set(sizes) <= {samples // 30}


def _estimate(value, stderr):
    return EstimateWithError(value=value, stderr=stderr, n_samples=60, seed=0)


def test_gate_holds_exactly_at_five_standard_errors():
    assert GATE_SE == 5.0
    stderr = 0.5
    edge = 1.0 + GATE_SE * stderr
    past = np.nextafter(edge, np.inf)
    # a point target
    assert _estimate(edge, stderr).within(1.0)
    assert not _estimate(past, stderr).within(1.0)
    assert _estimate(-2.5, stderr).within(0.0)
    assert not _estimate(np.nextafter(-2.5, -np.inf), stderr).within(0.0)
    # an interval target [lo, 1.0]: both ends
    assert _estimate(edge, stderr).within(-3.0, 1.0)
    assert not _estimate(past, stderr).within(-3.0, 1.0)
    low_edge = -3.0 - GATE_SE * stderr
    assert _estimate(low_edge, stderr).within(-3.0, 1.0)
    assert not _estimate(np.nextafter(low_edge, -np.inf), stderr).within(-3.0, 1.0)
    # a one-sided bound
    assert _estimate(edge, stderr).below(1.0)
    assert not _estimate(past, stderr).below(1.0)
    assert _estimate(-1e9, stderr).below(1.0)


def test_symmetric_interval_equals_the_absolute_value_gate():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        majorant, stderr = rng.random(2) * [1.0, 0.1]
        pad = majorant + GATE_SE * stderr
        for value in (pad, -pad, np.nextafter(pad, np.inf), np.nextafter(-pad, -np.inf)):
            est = _estimate(float(value), float(stderr))
            assert est.within(-majorant, majorant) == (abs(value) <= pad)

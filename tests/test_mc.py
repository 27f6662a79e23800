import numpy as np
import pytest

from ergolab import mc
from ergolab.mc import (
    GATE_SE,
    EstimateWithError,
    batch_estimate,
    combine_batch_means,
    run_batch_stats,
)


def _uniform_mean(rng, size):
    return rng.random(size).mean()


def test_uniform_mean_within_five_sigma():
    est = batch_estimate(_uniform_mean, 16000, seed=7)
    assert est.n_samples == 16000
    assert est.within(0.5)
    assert 0.0 < est.stderr < 0.01


def test_same_seed_reproduces_bit_for_bit():
    a = batch_estimate(_uniform_mean, 3200, seed=3)
    b = batch_estimate(_uniform_mean, 3200, seed=3)
    assert a == b
    c = batch_estimate(_uniform_mean, 3200, seed=4)
    assert c.value != a.value
    # a stream key: an int seed s is the key (s,), and a longer key is its own stream
    assert batch_estimate(_uniform_mean, 3200, seed=(3,)) == a
    row = batch_estimate(_uniform_mean, 3200, seed=(3, 0))
    assert row.value not in (a.value, c.value)


def test_parallel_jobs_match_serial_exactly():
    serial = batch_estimate(_uniform_mean, 1800, seed=9)
    for jobs in (2, 3, 5):
        par = batch_estimate(_uniform_mean, 1800, seed=9, jobs=jobs)
        assert par == serial


def test_worker_threads_are_bounded_by_the_cpu_count(monkeypatch):
    sizes = []

    class InlineExecutor:
        """Records the pool size it is asked for and runs the ranges inline."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(mc, "ThreadPoolExecutor", InlineExecutor)
    serial = batch_estimate(_uniform_mean, 1800, seed=9)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 4)
    for jobs in (2, 4, 10**6):
        assert batch_estimate(_uniform_mean, 1800, seed=9, jobs=jobs) == serial
    assert sizes == [2, 4, 4]
    # an unknown CPU count means one worker: the serial path, no pool
    monkeypatch.setattr(mc.os, "cpu_count", lambda: None)
    assert batch_estimate(_uniform_mean, 1800, seed=9, jobs=10**6) == serial
    assert sizes == [2, 4, 4]


def test_manual_range_split_concatenates_to_the_full_run():
    full = run_batch_stats(_uniform_mean, 20, range(0, mc.BATCHES), seed=1)
    left = run_batch_stats(_uniform_mean, 20, range(0, 12), seed=1)
    right = run_batch_stats(_uniform_mean, 20, range(12, mc.BATCHES), seed=1)
    assert np.array_equal(np.concatenate([left, right]), full)
    est = combine_batch_means(full, 20)
    assert isinstance(est, EstimateWithError)
    assert est == batch_estimate(_uniform_mean, 20 * mc.BATCHES, seed=1)


@pytest.mark.parametrize(
    "key", [0, 7, 2**32 - 1, 2**32, 2**64 + 3, (0, 0), (5, 12), (2**40 + 5, 7, 2**33)]
)
def test_batch_b_draws_from_default_rng_of_the_key_then_b(key):
    words = list(key) if isinstance(key, tuple) else [key]
    want = [np.random.default_rng([*words, b]).random() for b in range(3, 9)]
    got = run_batch_stats(lambda rng, size: rng.random(), 1, range(3, 9), key)
    assert list(got) == want


def test_negative_stream_keys_are_rejected():
    for key in (-1, (3, -1)):
        with pytest.raises(ValueError, match="non-negative"):
            batch_estimate(_uniform_mean, 300, seed=key)


def test_constant_sampler_hits_the_stderr_floor():
    est = batch_estimate(lambda rng, size: 2.5, 300, seed=0)
    assert est.value == 2.5
    assert est.stderr == np.finfo(float).eps


def test_array_valued_statistic_fails_loudly():
    # a batch holds at least 2 samples, so a per-sample array cannot pass as a scalar
    with pytest.raises(TypeError):
        batch_estimate(lambda rng, size: rng.random(size), 300, seed=0)


@pytest.mark.parametrize("samples", [59, 60, 61, 79, 80, 81, 89, 119, 1000])
def test_samples_are_floor_divided_into_batches(samples):
    sizes = []

    def stat(rng, size):
        sizes.append(size)
        return float(rng.random())

    assert mc.BATCHES == 40
    if samples < 80:
        want = f"{samples} samples over 40 batches leave fewer than 2 per batch"
        with pytest.raises(ValueError, match=want):
            batch_estimate(stat, samples, seed=0)
        return
    est = batch_estimate(stat, samples, seed=0)
    assert est.n_samples == samples // 40 * 40
    assert set(sizes) == {samples // 40}


def _estimate(value, stderr):
    return EstimateWithError(value=value, stderr=stderr, n_samples=60)


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

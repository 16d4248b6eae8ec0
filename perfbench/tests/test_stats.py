"""The percentile rule and the order statistics behind every timing."""

import pytest

from perfbench.stats import percentile, samples_beyond, tail_percentile


def test_nearest_rank_percentiles_are_measured_values():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 99) == 99
    assert percentile([7.0], 99) == 7.0
    assert percentile([3, 1, 2], 50) == 2


@pytest.mark.parametrize("n, expected", [
    (19, None),     # p50 has only 9 samples beyond it
    (20, 50.0),
    (99, 50.0),     # p90 has 9 beyond
    (100, 90.0),    # p90 has exactly 10 beyond
    (999, 90.0),
    (1000, 99.0),
    (9999, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_samples_beyond_counts_strictly_higher_ranks():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(0, 50) == 0


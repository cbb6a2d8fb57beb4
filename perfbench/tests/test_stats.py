import statistics

import pytest

from stats import median, percentile, quartiles, relative_iqr


def test_percentile_interpolates_between_ranks():
    samples = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert percentile(samples, 0.0) == 10.0
    assert percentile(samples, 1.0) == 50.0
    assert percentile(samples, 0.5) == 30.0
    # rank (5 - 1) * 0.9 = 3.6: 40 + 0.6 * (50 - 40)
    assert percentile(samples, 0.9) == pytest.approx(46.0)
    assert percentile([3.0, 1.0, 2.0], 0.25) == pytest.approx(1.5)


def test_p90_of_100_samples_leaves_ten_above():
    samples = list(range(1, 101))
    p90 = percentile(samples, 0.9)
    assert p90 == pytest.approx(90.1)
    assert sum(1 for s in samples if s > p90) == 10


def test_median_of_even_count_averages_the_middle_pair():
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert median([7.0]) == 7.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_quartiles_match_statistics_quantiles():
    for samples in ([1.0, 2.0], [5.0, 1.0, 4.0, 2.0, 3.0],
                    [0.9, 1.3, 1.1, 1.0, 1.2, 0.95, 1.05, 1.4, 0.8, 1.15]):
        assert list(quartiles(samples)) == statistics.quantiles(samples,
                                                                n=4)


def test_quartiles_by_hand():
    # Exclusive method on 1..10: positions 2.75, 5.5 and 8.25.
    assert quartiles(list(range(1, 11))) == (2.75, 5.5, 8.25)


def test_relative_iqr():
    assert relative_iqr(list(range(1, 11))) == pytest.approx(5.5 / 5.5)
    assert relative_iqr([2.0, 2.0, 2.0, 2.0]) == 0.0

import pytest

from stats import Tally, covered, min_samples, percentile, rank, samples_beyond, self_times


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(reversed(values), 90) == 90
    assert percentile([7.0], 90) == 7.0
    assert percentile([3, 1, 2], 50) == 2
    assert rank(10, 75) == 8


@pytest.mark.parametrize("p, need", [(50, 20), (75, 40), (90, 100), (95, 200), (99, 1000)])
def test_tail_needs_ten_samples_beyond(p, need):
    assert min_samples(p) == need
    assert samples_beyond(need, p) >= 10
    assert samples_beyond(need - 1, p) < 10


def test_p90_choice_at_the_boundary():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(186, 90) == 18


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 0)
    with pytest.raises(ValueError):
        min_samples(100)


def test_self_time_of_nested_spans():
    # root [0, 100] holds a [10, 40] (which holds c [20, 30]) and b [50, 90]
    starts = [0, 10, 20, 50]
    ends = [100, 40, 30, 90]
    parents = [-1, 0, 1, 0]
    own = self_times(starts, ends, parents)
    assert own == [30, 20, 10, 40]
    assert sum(own) == 100


def test_self_time_counts_overlapping_children_once():
    assert covered([(10, 40), (30, 60), (80, 120)], 0, 100) == 70
    assert self_times([0, 10, 30], [100, 40, 60], [-1, 0, 0])[0] == 50


def test_failure_counting():
    tally = Tally()
    tally.record(32)
    tally.record(32, 3, "non-finite-loss")
    tally.record(32, 40, "checkpoint-reload-differs")
    tally.record(1, 0, "unused-reason")
    assert (tally.attempted, tally.failed) == (97, 35)
    assert tally.reasons == {"non-finite-loss": 3, "checkpoint-reload-differs": 32}
    assert tally.error_rate == pytest.approx(35 / 97)
    assert Tally().error_rate == 0.0
    with pytest.raises(ValueError):
        tally.record(-1)

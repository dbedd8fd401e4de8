"""Tests for the shared worker-pool map (:mod:`repro.parallel`)."""

import pytest

from repro.parallel import map_timed


def _square(value):
    return value * value


def _fail_on_three(value):
    if value == 3:
        raise RuntimeError("task 3 failed")
    return value


class TestMapTimed:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_results_in_payload_order_with_seconds(self, jobs):
        outcomes = map_timed(_square, [1, 2, 3, 4], jobs)
        assert [result for result, _ in outcomes] == [1, 4, 9, 16]
        assert all(seconds >= 0.0 for _, seconds in outcomes)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_empty_and_single_payloads(self, jobs):
        assert map_timed(_square, [], jobs) == []
        [(result, _)] = map_timed(_square, [5], jobs)
        assert result == 25

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_task_exception_propagates(self, jobs):
        with pytest.raises(RuntimeError, match="task 3 failed"):
            map_timed(_fail_on_three, [1, 2, 3, 4], jobs)

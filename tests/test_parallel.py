"""Tests for the shared worker-pool map (:mod:`repro.parallel`)."""

import multiprocessing
import os
import select
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro import obs
from repro.parallel import map_timed

SRC = str(Path(__file__).resolve().parents[1] / "src")


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


def _sleep_pid(seconds):
    time.sleep(seconds)
    return os.getpid()


def _exit_on_three(value):
    if value == 3:
        os._exit(1)
    return value


def _telemetry_enabled(_):
    return obs.current().enabled


def _emit_events(count):
    tel = obs.current()
    for index in range(count):
        tel.event("worker_event", data={"index": index})
    return count


def _worker_pids():
    return {child.pid for child in multiprocessing.active_children()}


def _alive(pid):
    """Whether ``pid`` runs; an unreaped zombie counts as dead."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


def _replace_pool():
    """Make the next ``jobs=2`` map fork new workers.

    A map at another size replaces the process's pool, so the next
    ``jobs=2`` map replaces it again, wherever the pool came from.
    """
    map_timed(_square, [1, 2, 3], 3)


class TestPoolLifecycle:
    def test_warm_pool_is_reused(self):
        first = [pid for pid, _ in map_timed(_sleep_pid, [0.05] * 4, 2)]
        workers = _worker_pids()
        assert len(workers) == 2
        assert set(first) <= workers
        second = [pid for pid, _ in map_timed(_sleep_pid, [0.05] * 4, 2)]
        assert set(second) <= workers
        assert _worker_pids() == workers

    def test_another_size_replaces_the_pool(self):
        map_timed(_sleep_pid, [0.05] * 4, 2)
        old = _worker_pids()
        pids = [pid for pid, _ in map_timed(_sleep_pid, [0.05] * 6, 3)]
        workers = _worker_pids()
        assert len(workers) == 3
        assert set(pids) <= workers
        assert not workers & old

    def test_dead_worker_breaks_one_map_only(self):
        with pytest.raises(BrokenProcessPool):
            map_timed(_exit_on_three, [1, 2, 3, 4], 2)
        outcomes = map_timed(_square, [1, 2, 3, 4], 2)
        assert [result for result, _ in outcomes] == [1, 4, 9, 16]

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads /proc"
    )
    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGKILL])
    def test_workers_die_with_their_parent(self, signum):
        # The killed process runs no exit handler, so only the workers'
        # own parent-death thread can end them.
        script = (
            "import multiprocessing, time\n"
            "from repro.parallel import map_timed\n"
            "map_timed(abs, [-1, -2, -3, -4], 2)\n"
            "print(*[c.pid for c in multiprocessing.active_children()],"
            " flush=True)\n"
            "time.sleep(60)\n"
        )
        env = {**os.environ, "PYTHONPATH": SRC}
        parent = subprocess.Popen(
            [sys.executable, "-c", script], env=env, stdout=subprocess.PIPE
        )
        try:
            ready, _, _ = select.select([parent.stdout], [], [], 60)
            assert ready, "the mapping process printed no worker pids"
            pids = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(pids) == 2
            assert all(_alive(pid) for pid in pids)
        finally:
            parent.send_signal(signum)
            parent.wait(timeout=30)
            parent.stdout.close()
        deadline = time.monotonic() + 5.0
        while any(_alive(pid) for pid in pids):
            assert time.monotonic() < deadline, "a worker outlived its parent"
            time.sleep(0.05)


def _allowed_cpus(_):
    return sorted(os.sched_getaffinity(0))


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no CPU affinity calls"
)
class TestWorkersStartSpread:
    def test_a_moved_worker_keeps_every_allowed_cpu(self):
        # Each fresh worker moves itself to one CPU and then allows them
        # all again, so the kernel stays free to move it later.
        _replace_pool()
        outcomes = map_timed(_allowed_cpus, [1, 2, 3, 4], 2)
        parent = sorted(os.sched_getaffinity(0))
        assert [cpus for cpus, _ in outcomes] == [parent] * 4


class TestWorkersRecordNothing:
    def test_worker_sees_the_null_registry(self):
        _replace_pool()
        with obs.session(obs.Telemetry()):
            outcomes = map_timed(_telemetry_enabled, [1, 2, 3, 4], 2)
        assert [enabled for enabled, _ in outcomes] == [False] * 4

    def test_trace_holds_only_the_parents_records(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _replace_pool()
        with obs.TraceWriter(path) as writer:
            tel = obs.Telemetry(trace=writer)
            with obs.session(tel):
                tel.event("before")
                tel.event("before")
                map_timed(_emit_events, [500, 500], 2)
                tel.event("after")
        records = obs.read_trace(path)
        assert [record["event"] for record in records] == [
            "before", "before", "after"
        ]
        assert [record["seq"] for record in records] == [0, 1, 2]

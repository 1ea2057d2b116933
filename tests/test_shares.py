"""Sweeps split over forked children: chunks handed out as children come
free, results in chunk order, a chunk no child reports computed again by
the parent, errors raised as a serial run raises them, and no process left
behind."""

import marshal
import os
import threading
import time
import types

import pytest

import exacthom.classify
from exacthom import _shares
from exacthom._shares import chunk_bounds, run_chunks, worker_count
from exacthom.cli import main
from exacthom.errors import FormatError


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def parent():
    """The test's own pid: work that sees another pid runs in a child."""
    return os.getpid()


class TestWorkerCount:
    def test_one_cpu_runs_serially(self, cpus):
        cpus(1)
        assert worker_count(100_000) == 0

    def test_one_child_per_cpu(self, cpus):
        cpus(2)
        assert worker_count(2568) == 2

    def test_small_sweeps_run_serially(self, cpus):
        cpus(2)
        assert worker_count(2 * _shares._SHARE_ITEMS - 1) == 0
        assert worker_count(2 * _shares._SHARE_ITEMS) == 2

    def test_a_process_with_other_threads_runs_serially(self, cpus):
        cpus(2)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert worker_count(100_000) == 0
        finally:
            release.set()
            other.join()
        assert worker_count(100_000) == 2

    def test_children_stay_well_below_the_items(self, cpus):
        cpus(64)
        assert worker_count(1000) == 1000 // _shares._SHARE_ITEMS == 10
        assert worker_count(0) == 0


class TestChunkBounds:
    @pytest.mark.parametrize("items", [1, 15, 16, 17, 1028, 2568, 4096, 4097, 100_000])
    def test_chunks_cover_the_items_in_order(self, items):
        bounds = chunk_bounds(items)
        assert [start for start, _ in bounds] == [0] + [stop for _, stop in bounds[:-1]]
        assert bounds[-1][1] == items
        assert len(bounds) <= _shares._MOST_CHUNKS
        assert all(stop - start >= _shares._CHUNK_ITEMS for start, stop in bounds[:-1])


def positions(start, stop):
    return list(range(start, stop)), os.getpid()


class TestRunChunks:
    def test_results_come_back_in_chunk_order(self, parent):
        """The last chunk is computed here, every other one in a child."""
        results = run_chunks(positions, 1000, 3)
        assert [p for chunk, _ in results for p in chunk] == list(range(1000))
        assert len(results) == len(chunk_bounds(1000))
        assert results[-1][1] == parent
        assert parent not in {pid for _, pid in results[:-1]}
        assert_no_children()

    def test_no_workers_is_one_call_here(self, parent):
        assert run_chunks(positions, 100, 0) == [(list(range(100)), parent)]

    def test_a_slow_child_takes_fewer_chunks(self, parent):
        """Chunks go to whichever child is free: the child that takes chunk
        0 sleeps, and the other computes every other chunk but the last
        (this process's) meanwhile."""

        def work(start, stop):
            if start == 0:
                time.sleep(1)
            return os.getpid()

        pids = run_chunks(work, 1000, 2)
        assert pids.count(pids[0]) == 1 and pids[-1] == parent and len(set(pids)) == 3
        assert_no_children()

    @pytest.mark.parametrize("fault", ["raise", "exit 3", "short result"])
    def test_chunks_of_a_failed_child_are_computed_here(self, parent, monkeypatch, fault):
        def work(start, stop):
            if os.getpid() != parent and start == 0 and fault == "raise":
                raise RuntimeError("fault in a child")
            if os.getpid() != parent and start == 0 and fault == "exit 3":
                os._exit(3)
            return start, os.getpid() == parent

        if fault == "short result":
            # Only the child that took chunk 0 sends a truncated result.
            monkeypatch.setattr(_shares, "marshal", types.SimpleNamespace(
                dumps=lambda x: marshal.dumps(x)[:-1] if (0, (0, False)) in x else marshal.dumps(x),
                loads=marshal.loads,
            ))
        results = run_chunks(work, 1000, 2)
        assert [start for start, _ in results] == [start for start, _ in chunk_bounds(1000)]
        assert results[0] == (0, True)
        assert_no_children()

    def test_parent_error_kills_a_running_child(self, parent, monkeypatch):
        def work(start, stop):
            if os.getpid() != parent:
                time.sleep(60)

        def fail(fd):
            raise ValueError("fault in the parent")

        monkeypatch.setattr(_shares, "open", lambda fd, mode: fail(fd), raising=False)
        start = time.monotonic()
        with pytest.raises(ValueError, match="fault in the parent"):
            run_chunks(work, 1000, 2)
        assert time.monotonic() - start < 30
        assert_no_children()


SPHERE = ["verify", "sphere", "--seed", "1", "--count", "600", "--max-dim", "4"]


class TestSweepFaults:
    """verify with a fault injected at chosen samples: sample i is at
    position 28 + i of the sphere sweep, in the chunk of 16 that holds it;
    the last chunk holds samples 596 to 599."""

    @staticmethod
    def inject(monkeypatch, indices, only_in=None):
        true = exacthom.classify.sample_representation_at

        def faulty(quiver, cfg, index):
            if index in indices and (only_in is None or only_in()):
                raise FormatError(f"injected fault at sample {index}")
            return true(quiver, cfg, index)

        monkeypatch.setattr(exacthom.classify, "sample_representation_at", faulty)

    def run(self, capsys, cpus, n):
        cpus(n)
        code = main(SPHERE)
        out, err = capsys.readouterr()
        assert_no_children()
        return code, out, err

    @pytest.mark.parametrize("indices", [(301,), (301, 303), (301, 500), (4, 590), (598,), (301, 598)])
    def test_error_is_the_serial_one(self, monkeypatch, capsys, cpus, indices):
        """One fault, two in one chunk, two in chunks far apart, faults near
        either end of the sweep, and a fault in the last chunk (computed by
        the process itself) alone and after one in a child's chunk."""
        self.inject(monkeypatch, indices)
        serial = self.run(capsys, cpus, 1)
        assert serial == (2, "", f"error: injected fault at sample {min(indices)}\n")
        assert self.run(capsys, cpus, 2) == serial

    def test_fault_only_in_the_children_changes_nothing(self, monkeypatch, capsys, cpus, parent):
        serial = self.run(capsys, cpus, 1)
        self.inject(monkeypatch, range(600), only_in=lambda: os.getpid() != parent)
        assert self.run(capsys, cpus, 2) == serial
        assert serial[0] == 0


def test_sweep_in_a_worker_thread_forks_nothing(cpus, monkeypatch):
    """A sweep called from a thread of a multi-threaded process runs
    serially and reports what a serial sweep does."""
    cfg = exacthom.classify.SampleConfig(seed=1, count=1500)
    cpus(1)
    serial = exacthom.classify.check_torus_theorem(cfg)
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1))
    cpus(2)
    reports = []
    worker = threading.Thread(target=lambda: reports.append(exacthom.classify.check_torus_theorem(cfg)))
    worker.start()
    worker.join()
    assert reports == [serial] and forks == []
    assert_no_children()


def test_a_failed_fork_leaves_its_chunks_to_the_others(monkeypatch, parent):
    """With no process to spare, this process computes every chunk."""

    def no_fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork)
    results = run_chunks(positions, 1000, 2)
    assert [p for chunk, _ in results for p in chunk] == list(range(1000))
    assert {pid for _, pid in results} == {parent}

"""Parallel experiment harness: fan-out must not change a single byte.

The contract of ``--jobs N`` is that workers render complete output
blocks and the parent prints them in request order, so parallel stdout
is byte-identical to sequential stdout. These tests exercise both the
generic ``fanout_map`` primitive and the CLI end-to-end on a small,
fast experiment subset.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.core import RunOptions, active_options, using_options
from repro.experiments import runner
from repro.experiments.common import (
    WorkerCrashError,
    _RemoteTraceback,
    fanout_map,
    resolve_jobs,
)
from repro.obs.procpool import ProcPoolStats


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _square(value):
    return value * value


def _raise_for_three(value):
    if value == 3:
        raise ValueError(f"worker rejected {value}")
    return value


def _exit_for_three(value):
    if value == 3:
        os._exit(3)  # die without raising: simulates a killed worker
    return value


def test_fanout_map_serial_matches_parallel():
    items = list(range(20))
    expected = [_square(item) for item in items]
    assert fanout_map(_square, items, jobs=1) == expected
    assert fanout_map(_square, items, jobs=3) == expected


def test_fanout_map_preserves_order():
    items = [5, 1, 4, 2, 3]
    assert fanout_map(_square, items, jobs=2) == [25, 1, 16, 4, 9]


def test_fanout_map_empty():
    assert fanout_map(_square, [], jobs=4) == []


def test_worker_exception_propagates_with_remote_traceback():
    # A worker's exception must surface in the parent as itself — not
    # be swallowed into a bare pool error — with the child's formatted
    # traceback attached as its __cause__.
    with pytest.raises(ValueError, match="worker rejected 3") as info:
        fanout_map(_raise_for_three, list(range(6)), jobs=2)
    cause = info.value.__cause__
    assert isinstance(cause, _RemoteTraceback)
    assert "worker traceback" in str(cause)
    assert "_raise_for_three" in str(cause)  # the real failing frame


def test_worker_exception_propagates_serially_too():
    with pytest.raises(ValueError, match="worker rejected 3"):
        fanout_map(_raise_for_three, list(range(6)), jobs=1)


def test_dead_worker_surfaces_as_worker_crash_error():
    # A child that dies without raising (os._exit, segfault, OOM kill)
    # must become a WorkerCrashError, not a hang or a silent result.
    with pytest.raises(WorkerCrashError, match="died mid-experiment"):
        fanout_map(_exit_for_three, list(range(6)), jobs=2)


def test_resolve_jobs_env_fallback():
    # No explicit count: the active options' jobs (--jobs N) decide.
    assert resolve_jobs(None) == 1
    assert resolve_jobs(4) == 4
    assert resolve_jobs(0) == 1
    with using_options(RunOptions(jobs=3)):
        assert resolve_jobs(None) == 3
        assert resolve_jobs(2) == 2
    assert resolve_jobs(None) == 1


def _pid(_item):
    return os.getpid()


def _worker_view(_item):
    options = active_options()
    nested = fanout_map(_pid, [None, None], jobs=2)
    return options.seed, options.sanitize, options.jobs, nested


def test_workers_run_under_the_callers_options():
    # The pool initializer installs the caller's options in each worker,
    # with jobs forced to 1; a worker's own fan-out stays serial.
    with using_options(RunOptions(seed=5, sanitize=True, jobs=2)):
        views = fanout_map(_worker_view, range(4))
    for seed, sanitize, jobs, nested in views:
        assert (seed, sanitize, jobs) == (5, True, 1)
        assert len(set(nested)) == 1
    assert {nested[0] for *_rest, nested in views} != {os.getpid()}
    assert active_options() == RunOptions()


def _run_cli(capsys, argv):
    status = runner.main(argv)
    captured = capsys.readouterr()
    return status, captured.out


@pytest.mark.parametrize("experiments", [
    ["table1", "motivation"],
    ["fig3"],                      # internal per-config fan-out path
])
def test_parallel_output_byte_identical(capsys, experiments):
    status_seq, out_seq = _run_cli(capsys, experiments + ["--quick"])
    status_par, out_par = _run_cli(
        capsys, experiments + ["--quick", "--jobs", "2"])
    assert status_seq == status_par == 0
    assert out_par == out_seq
    assert out_seq  # a real rendering, not two empty strings


def test_fault_plan_reaches_fanout_workers(capsys):
    # fig3 --jobs 2 runs its configs in pool workers, which run under
    # the caller's options (the plan included); the faults must change
    # the output.
    faults = ["--faults", str(EXAMPLES / "faults_basic.json")]
    status_seq, out_seq = _run_cli(capsys, ["fig3", "--quick"] + faults)
    status_par, out_par = _run_cli(
        capsys, ["fig3", "--quick", "--jobs", "2"] + faults)
    status_clean, out_clean = _run_cli(capsys, ["fig3", "--quick"])
    assert status_seq == status_par == status_clean == 0
    assert out_par == out_seq
    assert out_seq != out_clean


def test_stats_go_to_stderr_not_stdout(capsys):
    status, out = _run_cli(capsys, ["table1", "--quick", "--jobs", "2",
                                    "--stats"])
    assert status == 0
    assert "procpool" not in out  # stats must never pollute stdout


def test_procpool_stats_accounting():
    stats = ProcPoolStats(jobs=4)
    stats.record("a", 2.0)
    stats.record("b", 6.0)
    assert stats.busy_s == 8.0
    # 8s of work over 4 workers in 4s of wall time: 50% utilization.
    assert stats.utilization(4.0) == pytest.approx(0.5)
    rendered = stats.render(4.0)
    assert "a" in rendered and "b" in rendered

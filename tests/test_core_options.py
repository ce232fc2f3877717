"""Run options: parsed once at the CLI edge, active in a scoped block."""

import pickle
from pathlib import Path

import pytest

from repro.core import RunOptions, active_options, make_context, using_options
from repro.core.options import stale_environment
from repro.experiments import runner
from repro.hw import v100_server
from repro.obs.report import main as report_main

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class _FakeResult:
    def to_table(self):
        return "fake table"


@pytest.fixture
def ran(monkeypatch):
    """Replace table1 and fault_sweep with recorders of the options
    each ran under."""
    seen = []

    def record():
        seen.append(active_options())
        return _FakeResult()

    for name in ("table1", "fault_sweep"):
        monkeypatch.setitem(runner.EXPERIMENTS, name,
                            {"quick": record, "full": record})
    return seen


def _bad_plan(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("flags", [
    ["--faults", "missing-plan.json"],
    ["--faults", "<malformed>"],
    ["--timeseries", "0"],
    ["--timeseries", "x"],
    ["--timeseries", "5:0"],
    ["--concurrency", "bogus"],
    ["--serving", "rate=banana"],
], ids=["faults-missing", "faults-malformed", "timeseries-0",
        "timeseries-x", "timeseries-5:0", "concurrency-bogus",
        "serving-bad"])
def test_bad_option_exits_2_before_any_experiment(flags, ran, tmp_path,
                                                  capsys):
    flags = [_bad_plan(tmp_path) if flag == "<malformed>" else flag
             for flag in flags]
    assert runner.main(["table1", "--quick"] + flags) == 2
    assert ran == []
    assert flags[0] in capsys.readouterr().err
    assert active_options() == RunOptions()


def test_flags_parse_into_one_options_value(ran, tmp_path):
    report_path = tmp_path / "cc.txt"
    assert runner.main([
        "fault_sweep", "--quick", "--sanitize", "--jobs", "3",
        "--faults", str(EXAMPLES / "faults_basic.json"),
        "--timeseries", "25:64", "--concurrency", "lockset",
        "--concurrency-report", str(report_path),
        "--serving", "batch=2", "--flight-dir", str(tmp_path),
        "--seed", "4", "--json", str(tmp_path / "rows.json")]) == 0
    (options,) = ran
    assert options.sanitize and options.jobs == 3
    assert len(options.faults.faults) == 6
    assert options.timeseries == (25.0, 64)
    assert options.concurrency == "lockset"
    assert options.concurrency_report == str(report_path)
    assert options.serving.max_batch == 2
    assert options.flight_dir == str(tmp_path)
    assert (options.seed, options.json) == (4, str(tmp_path / "rows.json"))
    assert active_options() == RunOptions()


def test_options_survive_pickling(tmp_path):
    # fanout_map hands the active options to its pool initializer; under
    # a non-fork start method they travel pickled.
    from repro.faults.plan import FaultPlan
    from repro.serving.config import ServingConfig

    options = RunOptions(
        sanitize=True, faults=FaultPlan.load(EXAMPLES / "faults_basic.json"),
        timeseries=(25.0, 64), concurrency="lockset",
        concurrency_report=str(tmp_path / "cc.txt"),
        serving=ServingConfig.parse("queue=2,batch=2"),
        flight_dir=str(tmp_path), jobs=3, seed=4,
        json=str(tmp_path / "rows.json"))
    assert pickle.loads(pickle.dumps(options)) == options


def test_plan_file_is_read_once(ran, monkeypatch, tmp_path):
    # An experiment that rewrites the plan file mid-invocation changes
    # nothing for the experiments after it.
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(
        (EXAMPLES / "faults_basic.json").read_text(encoding="utf-8"),
        encoding="utf-8")

    def corrupt_plan():
        plan_path.write_text("{not json", encoding="utf-8")
        return _FakeResult()

    monkeypatch.setitem(runner.EXPERIMENTS, "motivation",
                        {"quick": corrupt_plan, "full": corrupt_plan})
    assert runner.main(["motivation", "table1", "--quick",
                        "--faults", str(plan_path)]) == 0
    assert len(ran[0].faults.faults) == 6


@pytest.mark.parametrize("argv", [
    ["table1", "--seed", "3"],
    ["table1", "fault_sweep", "--seed", "3"],
    ["motivation", "--json", "out.json"],
    ["fault_sweep", "serving", "--json", "out.json"],
    ["table1", "--concurrency-report", "cc.txt"],
])
def test_misplaced_flag_exits_2(argv, ran, capsys):
    assert runner.main(argv + ["--quick"]) == 2
    assert ran == []


def test_using_options_restores_on_error():
    with pytest.raises(RuntimeError):
        with using_options(RunOptions(sanitize=True)):
            assert make_context(v100_server, 1).options.sanitize
            raise RuntimeError("boom")
    assert active_options() == RunOptions()


class TestStaleEnvironment:
    def test_clean_environment_passes(self):
        assert stale_environment({"PATH": "/bin", "TF_GPUS": "0"}) is None

    @pytest.mark.parametrize("name, flag", [
        ("REPRO_SANITIZE", "--sanitize"),
        ("REPRO_FAULTS", "--faults"),
        ("REPRO_TIMESERIES", "--timeseries"),
        ("REPRO_CONCURRENCY", "--concurrency"),
        ("REPRO_CONCURRENCY_REPORT", "--concurrency-report"),
        ("REPRO_SERVING", "--serving"),
        ("REPRO_FLIGHT_DIR", "--flight-dir"),
        ("REPRO_JOBS", "--jobs"),
        ("REPRO_FAULT_SWEEP_SEED", "--seed"),
        ("REPRO_CLUSTER_SCALE_SEED", "--seed"),
        ("REPRO_SERVING_SWEEP_SEED", "--seed"),
        ("REPRO_FAULT_SWEEP_JSON", "--json"),
        ("REPRO_CLUSTER_SCALE_JSON", "--json"),
        ("REPRO_SERVING_SWEEP_JSON", "--json"),
    ])
    def test_message_names_the_replacing_flag(self, name, flag):
        message = stale_environment({name: "1"})
        assert message == (f"${name} is no longer read; "
                           f"use {flag} instead")

    def test_runner_refuses_to_run(self, monkeypatch, ran, capsys):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert runner.main(["table1", "--quick"]) == 2
        assert ran == []
        assert "--sanitize" in capsys.readouterr().err

    def test_sanitize_subcommand_refuses_to_run(self, monkeypatch, ran,
                                                capsys):
        from repro.analysis.cli import main as analysis_main

        monkeypatch.setenv("REPRO_JOBS", "2")
        assert analysis_main(["sanitize", "table1", "--quick"]) == 2
        assert ran == []
        assert "--jobs" in capsys.readouterr().err

    def test_report_refuses_to_run(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TIMESERIES", "50")
        assert report_main(["--workload", "fig2"]) == 2
        captured = capsys.readouterr()
        assert "--timeseries" in captured.err
        assert "run report" not in captured.out

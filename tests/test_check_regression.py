"""The CI regression gate: benchmarks/check_regression.py."""

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "check_regression",
    REPO_ROOT / "benchmarks" / "check_regression.py")
check_regression = importlib.util.module_from_spec(spec)
sys.modules.setdefault("check_regression", check_regression)
spec.loader.exec_module(check_regression)

PAYLOAD = {
    "schema": 1,
    "benchmarks": {
        "engine.dispatch": {"optimized_events_per_sec": 2_000_000,
                            "baseline_events_per_sec": 700_000},
        "engine.timeout": {"optimized_events_per_sec": 230_000},
        "engine.process": {"optimized_events_per_sec": 750_000},
        "executor.dispatch": {"nodes_per_sec": 11_000},
        "cost_model.lookup": {"cached_lookups_per_sec": 800_000},
    },
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def slowed(payload, factor):
    slow = copy.deepcopy(payload)
    for bench in slow["benchmarks"].values():
        for key in bench:
            if key.endswith("_per_sec"):
                bench[key] = bench[key] / factor
    return slow


def test_equal_candidate_passes(tmp_path, capsys):
    baseline = write(tmp_path, "baseline.json", PAYLOAD)
    candidate = write(tmp_path, "candidate.json", PAYLOAD)
    status = check_regression.main(
        ["--baseline", str(baseline), "--candidate", str(candidate)])
    assert status == 0
    assert "PASS" in capsys.readouterr().out


def test_two_x_slower_candidate_fails(tmp_path, capsys):
    baseline = write(tmp_path, "baseline.json", PAYLOAD)
    candidate = write(tmp_path, "candidate.json", slowed(PAYLOAD, 2.0))
    status = check_regression.main(
        ["--baseline", str(baseline), "--candidate", str(candidate)])
    assert status == 1
    captured = capsys.readouterr()
    assert "REGRESSION" in captured.out
    # Every gated rate halved: all five must be reported regressed.
    assert "5 rate(s) regressed" in captured.err


def test_drop_within_threshold_passes(tmp_path):
    baseline = write(tmp_path, "baseline.json", PAYLOAD)
    candidate = write(tmp_path, "candidate.json", slowed(PAYLOAD, 1.2))
    status = check_regression.main(
        ["--baseline", str(baseline), "--candidate", str(candidate)])
    assert status == 0  # ~17% drop < 25% threshold


def test_threshold_is_configurable(tmp_path):
    baseline = write(tmp_path, "baseline.json", PAYLOAD)
    candidate = write(tmp_path, "candidate.json", slowed(PAYLOAD, 1.2))
    status = check_regression.main(
        ["--baseline", str(baseline), "--candidate", str(candidate),
         "--threshold", "0.1"])
    assert status == 1  # ~17% drop > 10% threshold


def test_faster_candidate_passes(tmp_path):
    baseline = write(tmp_path, "baseline.json", slowed(PAYLOAD, 2.0))
    candidate = write(tmp_path, "candidate.json", PAYLOAD)
    status = check_regression.main(
        ["--baseline", str(baseline), "--candidate", str(candidate)])
    assert status == 0


def test_new_benchmark_keys_are_not_gated(tmp_path, capsys):
    pruned = copy.deepcopy(PAYLOAD)
    del pruned["benchmarks"]["cost_model.lookup"]
    baseline = write(tmp_path, "baseline.json", pruned)
    candidate = write(tmp_path, "candidate.json", PAYLOAD)
    status = check_regression.main(
        ["--baseline", str(baseline), "--candidate", str(candidate)])
    assert status == 0
    assert "not gated" in capsys.readouterr().out


def test_malformed_inputs_exit_two(tmp_path, capsys):
    baseline = write(tmp_path, "baseline.json", PAYLOAD)
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    assert check_regression.main(
        ["--baseline", str(baseline), "--candidate", str(bad)]) == 2
    assert check_regression.main(
        ["--baseline", str(tmp_path / "missing.json"),
         "--candidate", str(baseline)]) == 2
    no_rates = write(tmp_path, "norates.json", {"benchmarks": {}})
    assert check_regression.main(
        ["--baseline", str(no_rates),
         "--candidate", str(baseline)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("threshold", ["-0.1", "1.0", "2"])
def test_out_of_range_threshold_exits_two(tmp_path, threshold, capsys):
    baseline = write(tmp_path, "baseline.json", PAYLOAD)
    status = check_regression.main(
        ["--baseline", str(baseline), "--candidate", str(baseline),
         "--threshold", threshold])
    assert status == 2
    capsys.readouterr()


def test_committed_baseline_has_all_gated_rates():
    # The CI bench job gates against the committed BENCH_core.json —
    # it must keep exposing every rate the gate reads.
    rates = check_regression.load_rates(REPO_ROOT / "BENCH_core.json")
    expected = {f"{bench}.{field}"
                for bench, field in check_regression.RATE_KEYS}
    assert set(rates) == expected


def test_markdown_written_when_baseline_lacks_gated_rates(tmp_path,
                                                          capsys):
    # A baseline with no recognizable rates still returns 2, but the
    # delta table must exist anyway so the CI summary shows the
    # candidate's rates as "new (not gated)" instead of vanishing.
    baseline = write(tmp_path, "baseline.json",
                     {"schema": 1, "benchmarks": {}})
    candidate = write(tmp_path, "candidate.json", PAYLOAD)
    delta = tmp_path / "out" / "DELTA.md"
    status = check_regression.main(
        ["--baseline", str(baseline), "--candidate", str(candidate),
         "--markdown", str(delta)])
    assert status == 2
    table = delta.read_text(encoding="utf-8")
    assert "engine.dispatch.optimized_events_per_sec" in table
    assert table.count("new (not gated)") == len(PAYLOAD["benchmarks"])
    capsys.readouterr()


def test_markdown_flags_partially_missing_baseline_rates(tmp_path):
    # Rates missing from just the baseline show as new; the rest gate
    # normally and the run passes.
    pruned = copy.deepcopy(PAYLOAD)
    del pruned["benchmarks"]["engine.dispatch"]
    baseline = write(tmp_path, "baseline.json", pruned)
    candidate = write(tmp_path, "candidate.json", PAYLOAD)
    delta = tmp_path / "DELTA.md"
    status = check_regression.main(
        ["--baseline", str(baseline), "--candidate", str(candidate),
         "--markdown", str(delta)])
    assert status == 0
    table = delta.read_text(encoding="utf-8")
    assert "new (not gated)" in table
    assert "| ok |" in table


def test_non_dict_benchmark_entry_is_skipped(tmp_path, capsys):
    # A hand-edited or older-schema file can hold a scalar where the
    # gate expects an object; that key is just absent, not a crash.
    mangled = copy.deepcopy(PAYLOAD)
    mangled["benchmarks"]["engine.dispatch"] = "broken"
    baseline = write(tmp_path, "baseline.json", PAYLOAD)
    candidate = write(tmp_path, "candidate.json", mangled)
    status = check_regression.main(
        ["--baseline", str(baseline), "--candidate", str(candidate)])
    assert status == 0
    assert "gone   engine.dispatch" in capsys.readouterr().out


def test_serving_rate_is_gated(tmp_path, capsys):
    # The serving front-end throughput joined the gate: halving it
    # alone must fail the check.
    augmented = copy.deepcopy(PAYLOAD)
    augmented["benchmarks"]["serving.request_throughput"] = {
        "requests_per_sec": 2_000}
    slow = copy.deepcopy(augmented)
    slow["benchmarks"]["serving.request_throughput"][
        "requests_per_sec"] = 900
    baseline = write(tmp_path, "baseline.json", augmented)
    candidate = write(tmp_path, "candidate.json", slow)
    status = check_regression.main(
        ["--baseline", str(baseline), "--candidate", str(candidate)])
    assert status == 1
    assert "serving.request_throughput" in capsys.readouterr().err


def test_informational_figures_shown_but_never_gated(tmp_path):
    # trace.span_bytes is lower-is-better and ungated: a tenfold rise
    # still passes, and the delta table lists it in both runs.
    base_payload = copy.deepcopy(PAYLOAD)
    base_payload["benchmarks"]["trace.span_bytes"] = {"bytes_per_span": 100.0}
    worse = copy.deepcopy(base_payload)
    worse["benchmarks"]["trace.span_bytes"]["bytes_per_span"] = 1000.0
    baseline = write(tmp_path, "baseline.json", base_payload)
    candidate = write(tmp_path, "candidate.json", worse)
    delta = tmp_path / "DELTA.md"
    status = check_regression.main(
        ["--baseline", str(baseline), "--candidate", str(candidate),
         "--markdown", str(delta)])
    assert status == 0
    table = delta.read_text(encoding="utf-8")
    assert ("| `trace.span_bytes.bytes_per_span` | 100.0 | 1,000.0 | "
            "+900.0% | info (not gated) |") in table
    assert "trace.span_bytes" not in check_regression.load_rates(candidate)


def test_informational_figure_missing_from_baseline_is_shown(tmp_path):
    # The committed baseline predates trace.span_bytes.
    with_info = copy.deepcopy(PAYLOAD)
    with_info["benchmarks"]["trace.span_bytes"] = {"bytes_per_span": 104.7}
    baseline = write(tmp_path, "baseline.json", PAYLOAD)
    candidate = write(tmp_path, "candidate.json", with_info)
    delta = tmp_path / "DELTA.md"
    assert check_regression.main(
        ["--baseline", str(baseline), "--candidate", str(candidate),
         "--markdown", str(delta)]) == 0
    assert ("| `trace.span_bytes.bytes_per_span` | — | 104.7 | — | "
            "info (not gated) |") in delta.read_text(encoding="utf-8")

"""The bench-regression gate itself is gated: green stays green, 3x fails.

This is the standing demonstration the CI acceptance asks for — instead of
committing an artificial slowdown and reverting it, the red path is pinned
here forever via the gate's ``--scale`` self-test hook.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_bench", Path(__file__).resolve().parent.parent / "benchmarks" / "compare_bench.py"
)
compare_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_bench)


def _report(sign=350.0, verify=560.0, seq=2750.0, batch=1130.0, distinct=620.0) -> dict:
    return {
        "ecdsa": {
            "sign_fast_us": sign,
            "verify_fast_us": verify,
            "verify_batch_distinct_us": distinct,
        },
        "append": {"sequential_us_per_append": seq, "batch_us_per_append": batch},
    }


def _write(tmp_path: Path, name: str, payload: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestCompareFunction:
    def test_identical_reports_pass(self):
        _lines, warnings, failures = compare_bench.compare(_report(), _report())
        assert not warnings and not failures

    def test_speedup_never_gates(self):
        current = _report(sign=100.0, verify=100.0, seq=500.0, batch=200.0)
        _lines, warnings, failures = compare_bench.compare(current, _report())
        assert not warnings and not failures

    def test_between_warn_and_fail_warns_only(self):
        current = _report(sign=350.0 * 2.0)  # 2x: above 1.5x, below 3x
        _lines, warnings, failures = compare_bench.compare(current, _report())
        assert len(warnings) == 1 and "sign_fast_us" in warnings[0]
        assert not failures

    def test_over_3x_fails(self):
        current = _report(batch=1130.0 * 3.5)
        _lines, _warnings, failures = compare_bench.compare(current, _report())
        assert len(failures) == 1 and "batch_us_per_append" in failures[0]

    def test_missing_metric_fails_loudly(self):
        current = _report()
        del current["append"]["batch_us_per_append"]
        _lines, _warnings, failures = compare_bench.compare(current, _report())
        assert failures and "missing" in failures[0]

    def test_custom_thresholds(self):
        current = _report(sign=350.0 * 1.2)
        _lines, warnings, failures = compare_bench.compare(
            current, _report(), warn_ratio=1.1, fail_ratio=1.15
        )
        assert failures and not warnings


class TestGateCli:
    def test_exit_zero_on_healthy_run(self, tmp_path, capsys):
        current = _write(tmp_path, "current.json", _report())
        baseline = _write(tmp_path, "baseline.json", _report())
        code = compare_bench.main([str(current), "--baseline", str(baseline)])
        assert code == 0
        assert "bench gate: ok" in capsys.readouterr().out

    def test_artificial_3x_slowdown_turns_the_gate_red(self, tmp_path, capsys):
        """`--scale 3.5` is the committed proof the gate can fail."""
        current = _write(tmp_path, "current.json", _report())
        baseline = _write(tmp_path, "baseline.json", _report())
        code = compare_bench.main(
            [str(current), "--baseline", str(baseline), "--scale", "3.5"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "bench gate: FAILED" in out
        assert "::error::" in out

    def test_gate_against_committed_baseline_schema(self, tmp_path):
        """The real committed baseline carries every gated metric."""
        baseline_path = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"
        baseline = json.loads(baseline_path.read_text())
        for section, metric in compare_bench.GATED_METRICS:
            assert metric in baseline[section], (section, metric)
            assert baseline[section][metric] > 0

    def test_scale_is_rejected_below_fail_threshold(self, tmp_path):
        current = _write(tmp_path, "current.json", _report())
        baseline = _write(tmp_path, "baseline.json", _report())
        code = compare_bench.main(
            [str(current), "--baseline", str(baseline), "--scale", "1.4"]
        )
        assert code == 0

    def test_missing_current_file_raises(self, tmp_path):
        baseline = _write(tmp_path, "baseline.json", _report())
        with pytest.raises(FileNotFoundError):
            compare_bench.main(
                [str(tmp_path / "nope.json"), "--baseline", str(baseline)]
            )


class TestMetricFlag:
    """--metric retargets the gate at any section.metric pair (bench_service)."""

    def test_compare_accepts_custom_metric_set(self):
        current = _report(sign=350.0 * 10)  # sign regressed 10x...
        _lines, warnings, failures = compare_bench.compare(
            current, _report(), metrics=(("append", "batch_us_per_append"),)
        )
        assert not warnings and not failures  # ...but only batch is gated

    def test_cli_metric_override(self, tmp_path):
        service = {"service": {"coalesced_us_per_append": 900.0}}
        current = _write(tmp_path, "current.json", service)
        baseline = _write(tmp_path, "baseline.json", service)
        code = compare_bench.main(
            [
                str(current),
                "--baseline",
                str(baseline),
                "--metric",
                "service.coalesced_us_per_append",
            ]
        )
        assert code == 0

    def test_cli_metric_override_red_path(self, tmp_path):
        service = {"service": {"coalesced_us_per_append": 900.0}}
        current = _write(tmp_path, "current.json", service)
        baseline = _write(tmp_path, "baseline.json", service)
        code = compare_bench.main(
            [
                str(current),
                "--baseline",
                str(baseline),
                "--metric",
                "service.coalesced_us_per_append",
                "--scale",
                "3.5",
            ]
        )
        assert code == 1

    def test_cli_rejects_malformed_metric(self, tmp_path):
        current = _write(tmp_path, "current.json", _report())
        baseline = _write(tmp_path, "baseline.json", _report())
        with pytest.raises(SystemExit):
            compare_bench.main(
                [str(current), "--baseline", str(baseline), "--metric", "nodot"]
            )

    def test_gate_against_committed_service_baseline(self):
        baseline_path = Path(__file__).resolve().parent.parent / "BENCH_service.json"
        baseline = json.loads(baseline_path.read_text())
        for metric in ("sequential_us_per_append", "coalesced_us_per_append"):
            assert baseline["service"][metric] > 0
        # The committed baseline itself proves the acceptance floor.
        assert baseline["service"]["coalesce_speedup"] >= 1.5

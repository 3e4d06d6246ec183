"""Bench-regression gate: compare a fresh run against the committed baseline.

CI runs ``bench_throughput.py --quick`` and then::

    python benchmarks/compare_bench.py bench-quick.json \
        --baseline BENCH_throughput.json

Per-operation timings (microseconds, lower is better) are compared as
``current / baseline`` ratios.  A ratio above ``--warn`` (default 1.5x)
prints a warning but keeps the gate green — shared CI runners are noisy; a
ratio above ``--fail`` (default 3x) is a real regression (or a real machine
problem) and exits non-zero, turning the pipeline red.  Speedups (ratios
below 1) are reported but never gate.

``--scale`` multiplies every current timing before comparison.  It exists
so the gate can prove it *would* fail — ``--scale 3.5`` simulates a 3.5x
slowdown without committing one — and is what ``tests/test_compare_bench.py``
pins the red path with.

``--metric section.metric`` (repeatable) overrides the default gated set, so
the same gate serves any benchmark report that nests timings two levels
deep — e.g. the service benchmark::

    python benchmarks/compare_bench.py bench-service.json \
        --baseline BENCH_service.json \
        --metric service.sequential_us_per_append \
        --metric service.coalesced_us_per_append
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

# (section, metric) pairs gated on: every per-op timing the throughput
# benchmark emits.  Counts/speedups are derived values and not compared.
GATED_METRICS = (
    ("ecdsa", "sign_fast_us"),
    ("ecdsa", "verify_fast_us"),
    ("ecdsa", "verify_batch_distinct_us"),
    ("append", "sequential_us_per_append"),
    ("append", "batch_us_per_append"),
)


def compare(
    current: dict,
    baseline: dict,
    warn_ratio: float = 1.5,
    fail_ratio: float = 3.0,
    scale: float = 1.0,
    metrics: tuple[tuple[str, str], ...] = GATED_METRICS,
) -> tuple[list[str], list[str], list[str]]:
    """Returns (report_lines, warnings, failures)."""
    lines, warnings, failures = [], [], []
    lines.append(
        f"{'metric':<38} {'baseline':>12} {'current':>12} {'ratio':>8}  status"
    )
    for section, metric in metrics:
        try:
            base_value = float(baseline[section][metric])
            current_value = float(current[section][metric]) * scale
        except KeyError as exc:
            failures.append(f"{section}.{metric}: missing from report ({exc})")
            continue
        if base_value <= 0:
            failures.append(f"{section}.{metric}: non-positive baseline {base_value}")
            continue
        ratio = current_value / base_value
        if ratio > fail_ratio:
            status = f"FAIL (> {fail_ratio:g}x)"
            failures.append(
                f"{section}.{metric}: {ratio:.2f}x slower than baseline "
                f"({current_value:.1f}us vs {base_value:.1f}us)"
            )
        elif ratio > warn_ratio:
            status = f"warn (> {warn_ratio:g}x)"
            warnings.append(
                f"{section}.{metric}: {ratio:.2f}x slower than baseline"
            )
        else:
            status = "ok"
        lines.append(
            f"{section + '.' + metric:<38} {base_value:>10.1f}us {current_value:>10.1f}us "
            f"{ratio:>7.2f}x  {status}"
        )
    return lines, warnings, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=Path, help="fresh bench JSON (e.g. bench-quick.json)")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_throughput.json",
        help="committed baseline JSON",
    )
    parser.add_argument("--warn", type=float, default=1.5, help="warn ratio (default 1.5)")
    parser.add_argument("--fail", type=float, default=3.0, help="fail ratio (default 3.0)")
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiply current timings (gate self-test: --scale 3.5 must fail)",
    )
    parser.add_argument(
        "--metric",
        action="append",
        dest="metrics",
        metavar="SECTION.METRIC",
        help="gate on this metric instead of the defaults (repeatable)",
    )
    args = parser.parse_args(argv)

    if args.metrics:
        metrics = []
        for spec in args.metrics:
            section, _, metric = spec.partition(".")
            if not section or not metric:
                parser.error(f"--metric takes SECTION.METRIC, got {spec!r}")
            metrics.append((section, metric))
        metrics = tuple(metrics)
    else:
        metrics = GATED_METRICS

    current = json.loads(args.current.read_text())
    baseline = json.loads(args.baseline.read_text())
    lines, warnings, failures = compare(
        current,
        baseline,
        warn_ratio=args.warn,
        fail_ratio=args.fail,
        scale=args.scale,
        metrics=metrics,
    )
    print("\n".join(lines))
    for warning in warnings:
        print(f"::warning::bench regression: {warning}")
    for failure in failures:
        print(f"::error::bench regression: {failure}")
    if failures:
        print(f"bench gate: FAILED ({len(failures)} metric(s) > {args.fail:g}x)")
        return 1
    print(
        "bench gate: ok"
        + (f" ({len(warnings)} warning(s) > {args.warn:g}x)" if warnings else "")
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

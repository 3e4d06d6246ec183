"""End-to-end throughput benchmark: fast-path ECDSA and batched admission.

Standalone script (not a pytest-benchmark module) so CI and developers get a
one-command JSON report::

    PYTHONPATH=src python benchmarks/bench_throughput.py [--quick] [--out FILE]

Two sections:

* ``ecdsa`` — signs/sec and verifies/sec for the windowed fixed-base /
  Shamir fast path against the naive double-and-add ladder, measured in the
  same run so the speedup factors are apples-to-apples, plus
  ``verify_batch_distinct_us``: the per-signature cost of one
  ``verify_digests`` call over 64 distinct cold keys (the cross-key
  aggregate).  The run fails if that exceeds twice ``verify_fast_us``, the
  hot-key cost.
* ``append`` — appends/sec for ``Ledger.append_batch`` against sequential
  ``Ledger.append`` on a durable file-backed ledger with a clue-heavy
  workload (five clues per journal, as in the paper's N-lineage scenarios).
  Both sides pay identical crypto (receipts are byte-identical); the batch
  side amortises the stream fsync, CM-Tree refreshes, and signature
  inversions.

``--quick`` shrinks iteration counts to a smoke-test scale for CI.

``--obs`` turns on the observability layer (repro.obs) for the append
section and adds a per-phase ``observability`` breakdown to the JSON report
— span call counts and mean wall/self microseconds for every instrumented
phase, so a regression can be localised (fsync? CM-Tree? signing?) from the
artifact alone.  The timed numbers then include the (small) metrics
overhead, so CI's gated comparison always runs *without* ``--obs``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import random
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import obs  # noqa: E402
from repro.core import ClientRequest, Ledger, LedgerConfig  # noqa: E402
from repro.crypto import KeyPair, Role  # noqa: E402
from repro.crypto import ecdsa  # noqa: E402
from repro.storage.stream import FileStream  # noqa: E402

URI = "ledger://bench-throughput"
CLIENTS = ("alice", "bob", "carol", "dan")
# A clue-heavy supply-chain journal (the paper's N-lineage setting): every
# transaction is indexed under all eight lineage keys.
CLUE_POOL = (
    "buyer:77",
    "seller:12",
    "commodity:9",
    "region:5",
    "carrier:2",
    "order:41",
    "shipment:8",
    "invoice:3",
)


def _time_per_call(fn, iterations: int) -> float:
    """Best-of-3 mean seconds per call (min over repeats rejects noise)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(iterations):
            fn()
        best = min(best, (time.perf_counter() - start) / iterations)
    return best


#: Distinct keys in the cold batch of ``verify_batch_distinct_us``.
DISTINCT_BATCH_KEYS = 64
#: The cold distinct-key batch may cost at most this many hot-key verifies
#: per signature.
DISTINCT_BATCH_MAX_RATIO = 2.0


def _distinct_key_batch_us(repeats: int) -> float:
    """Best-of-``repeats`` microseconds per signature of one ``verify_digests``
    call over DISTINCT_BATCH_KEYS keys that have no cached window table."""
    rng = random.Random(0xD157)
    checks = []
    for _ in range(DISTINCT_BATCH_KEYS):
        secret = rng.randrange(1, ecdsa.CURVE_P256.n)
        digest = hashlib.sha256(rng.randbytes(16)).digest()
        checks.append(
            (ecdsa.derive_public_key(secret), digest, ecdsa.sign_digest(secret, digest))
        )
    best = float("inf")
    for _ in range(repeats):
        # Every repeat is a first sight of its keys: no table, no use count.
        ecdsa.clear_fast_path_caches()
        ecdsa.scalar_multiply_base(1)  # the shared generator table
        start = time.perf_counter()
        verdicts = ecdsa.verify_digests(checks)
        best = min(best, time.perf_counter() - start)
        if not all(verdicts):
            raise RuntimeError("distinct-key batch rejected an honest signature")
        if ecdsa._PUBKEY_TABLES:
            raise RuntimeError("a first-sight batch built a key table")
    ecdsa.clear_fast_path_caches()
    return best / len(checks) * 1e6


def bench_ecdsa(iterations: int, naive_iterations: int) -> dict:
    distinct_us = _distinct_key_batch_us(repeats=3)
    rng = random.Random(0xBE7C)
    secret = rng.randrange(1, ecdsa.CURVE_P256.n)
    public = ecdsa.derive_public_key(secret)
    digest = hashlib.sha256(b"throughput-probe").digest()
    signature = ecdsa.sign_digest(secret, digest)  # also builds the G table
    ecdsa.precompute_public_key(public)  # warm the verifier's window table

    sign_fast = _time_per_call(lambda: ecdsa.sign_digest(secret, digest), iterations)
    verify_fast = _time_per_call(
        lambda: ecdsa.verify_digest(public, digest, signature), iterations
    )
    sign_naive = _time_per_call(
        lambda: ecdsa.sign_digest_naive(secret, digest), naive_iterations
    )
    verify_naive = _time_per_call(
        lambda: ecdsa.verify_digest_naive(public, digest, signature), naive_iterations
    )
    return {
        "sign_fast_us": sign_fast * 1e6,
        "sign_naive_us": sign_naive * 1e6,
        "sign_speedup": sign_naive / sign_fast,
        "signs_per_sec": 1.0 / sign_fast,
        "verify_fast_us": verify_fast * 1e6,
        "verify_naive_us": verify_naive * 1e6,
        "verify_speedup": verify_naive / verify_fast,
        "verifies_per_sec": 1.0 / verify_fast,
        "verify_batch_distinct_us": distinct_us,
        "verify_batch_distinct_ratio": distinct_us / (verify_fast * 1e6),
    }


def _make_ledger(directory: str, tag: str) -> tuple[Ledger, dict[str, KeyPair]]:
    stream = FileStream(Path(directory) / f"{tag}.log", durable=True)
    ledger = Ledger(
        LedgerConfig(uri=URI, fractal_height=10, block_size=64),
        journal_stream=stream,
    )
    keys = {}
    for name in CLIENTS:
        keypair = KeyPair.generate(seed=f"bench:{name}")
        keys[name] = keypair
        ledger.registry.register(name, Role.USER, keypair.public)
    return ledger, keys


def _requests(keys: dict[str, KeyPair], count: int, start: int) -> list[ClientRequest]:
    out = []
    for i in range(start, start + count):
        client = CLIENTS[i % len(CLIENTS)]
        out.append(
            ClientRequest.build(
                URI,
                client,
                payload=f"tx-{i}".encode(),
                clues=CLUE_POOL,
                nonce=i.to_bytes(8, "big"),
                client_timestamp=1.0,
            ).signed_by(keys[client])
        )
    return out


def bench_append(batch_size: int, rounds: int, warmup: int) -> dict:
    """Interleaved rounds of (batch_size sequential appends, one batch).

    Sequential and batch segments alternate so system-wide speed drift (CPU
    throttling, fsync latency swings) hits both sides alike; the reported
    speedup is the *median* of per-round paired ratios.
    """
    round_times: list[tuple[float, float]] = []
    with tempfile.TemporaryDirectory() as tmp:
        seq_ledger, keys = _make_ledger(tmp, "seq")
        batch_ledger, _ = _make_ledger(tmp, "batch")

        # Warm both paths: window tables, pubkey LRU, lazy structures.
        for request in _requests(keys, warmup, start=0):
            seq_ledger.append(request)
        batch_ledger.append_batch(_requests(keys, warmup, start=warmup))

        for index in range(rounds):
            seq_work = _requests(keys, batch_size, start=10_000 + index * batch_size)
            start = time.perf_counter()
            for request in seq_work:
                seq_ledger.append(request)
            seq_elapsed = time.perf_counter() - start

            batch_work = _requests(keys, batch_size, start=20_000 + index * batch_size)
            start = time.perf_counter()
            batch_ledger.append_batch(batch_work)
            batch_elapsed = time.perf_counter() - start
            round_times.append((seq_elapsed, batch_elapsed))

    total = rounds * batch_size
    seq_total = sum(seq for seq, _batch in round_times)
    batch_total = sum(batch for _seq, batch in round_times)
    ratios = sorted(seq / batch for seq, batch in round_times)
    return {
        "journals_per_side": total,
        "batch_size": batch_size,
        "rounds": rounds,
        "clues_per_journal": len(CLUE_POOL),
        "sequential_us_per_append": seq_total / total * 1e6,
        "batch_us_per_append": batch_total / total * 1e6,
        "sequential_appends_per_sec": total / seq_total,
        "batch_appends_per_sec": total / batch_total,
        "batch_speedup": ratios[len(ratios) // 2],
    }


def _phase_breakdown(snapshot: dict) -> dict:
    """Condense an obs snapshot into per-phase rows for the JSON report."""
    phases = {}
    histograms = snapshot["histograms"]
    for name, hist in histograms.items():
        if not name.endswith(".wall_us"):
            continue
        phase = name[: -len(".wall_us")]
        self_hist = histograms.get(f"{phase}.self_us", {})
        phases[phase] = {
            "calls": hist["count"],
            "wall_us_mean": hist["mean"],
            "wall_us_total": hist["sum"],
            "self_us_mean": self_hist.get("mean", 0.0),
            "self_us_total": self_hist.get("sum", 0.0),
        }
    return {"phases": phases, "counters": snapshot["counters"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smoke-test scale (CI-friendly)"
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help="enable the observability layer and embed per-phase breakdowns",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_throughput.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    # Fail on an unwritable report path *before* minutes of benchmarking.
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.touch()

    if args.quick:
        ecdsa_report = bench_ecdsa(iterations=8, naive_iterations=3)
    else:
        ecdsa_report = bench_ecdsa(iterations=64, naive_iterations=16)

    if args.obs:
        # Only the append section runs instrumented: the ecdsa section's
        # point is the raw fast-path latency.
        obs.enable()
        obs.reset()
    if args.quick:
        append_report = bench_append(batch_size=8, rounds=1, warmup=8)
    else:
        append_report = bench_append(batch_size=64, rounds=5, warmup=64)

    report = {
        "meta": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "quick": args.quick,
            "obs": args.obs,
        },
        "ecdsa": ecdsa_report,
        "append": append_report,
    }
    if args.obs:
        report["observability"] = _phase_breakdown(obs.snapshot())
        obs.disable()
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    json.dump(report, sys.stdout, indent=2)
    print()
    print(
        f"\nsign {ecdsa_report['sign_speedup']:.1f}x, "
        f"verify {ecdsa_report['verify_speedup']:.1f}x, "
        f"64-key cold batch {ecdsa_report['verify_batch_distinct_ratio']:.2f}x hot verify, "
        f"append_batch {append_report['batch_speedup']:.2f}x "
        f"(report: {args.out})",
        file=sys.stderr,
    )
    if ecdsa_report["verify_batch_distinct_ratio"] > DISTINCT_BATCH_MAX_RATIO:
        print(
            f"FAIL: a {DISTINCT_BATCH_KEYS}-key cold batch costs "
            f"{ecdsa_report['verify_batch_distinct_us']:.0f} us/signature, more "
            f"than {DISTINCT_BATCH_MAX_RATIO:g}x the hot-key verify "
            f"({ecdsa_report['verify_fast_us']:.0f} us)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction: remote ingest, light-client
verification and offline audit, with an optional per-layer trace.

Run from the repository root::

    python3 e2ebench/run.py --workload ingest-skewed --seed 1 --seconds 25 --trace 0
    python3 e2ebench/run.py --self-test

``--workload`` is one of ``ingest-skewed``, ``verify-mix``, ``audit-offline``
(see ``workloads.py`` and ``README.md``).  Every input is generated from
``--seed``.  The human-readable report goes to stdout first; the last line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
The served workloads run the ledger in a separate process (``host.py``);
``audit-offline`` runs in this process.
"""

from __future__ import annotations

import argparse
import asyncio
import concurrent.futures
import json
import math
import os
import resource
import select
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"e2ebench: no src/repro next to {HERE}; run from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from repro import obs  # noqa: E402
from repro.api import LedgerSession  # noqa: E402
from repro.core import Ledger, LedgerConfig  # noqa: E402
from repro.core.members import MemberRegistry  # noqa: E402
from repro.crypto import KeyPair, ecdsa  # noqa: E402
from repro.export import rebuild as export_rebuild  # noqa: E402
from repro.export import verifier as export_verifier  # noqa: E402
from repro.export.bundle import ExportBundle  # noqa: E402
from repro.net import AsyncRemoteLedger, RemoteLedgerClient  # noqa: E402

import tracing  # noqa: E402
from population import LEDGER_URI  # noqa: E402
from workloads import (  # noqa: E402
    AUDIT,
    INGEST,
    SELF_TEST,
    VERIFY_MIX,
    WORKLOADS,
    ledger_config_kwargs,
    population_for,
)

#: Where runs keep their ledgers and span files (inside the checkout).
RUNS_DIR = ROOT / ".e2ebench_runs"
LSP_KEY = KeyPair.generate(seed=f"lsp:{LEDGER_URI}").public
HOST_READY_TIMEOUT_S = 150.0

#: The gated end-to-end metrics every workload reports (BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
}


# ------------------------------------------------------------------ results


@dataclass
class Metric:
    value: float
    unit: str
    samples: int = 1
    note: str = ""


@dataclass
class Outcome:
    """What one pass of a workload measured."""

    metrics: dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    #: why ops failed: "kind: ExceptionType" or "kind: wrong verdict".
    reasons: dict[str, int] = field(default_factory=dict)
    #: the gated ``ops_per_s`` of this workload.
    slots: dict[str, float] = field(default_factory=dict)
    #: the headline latency (or rate), compared traced vs untraced.
    headline: float = 0.0
    #: inputs of the per-layer metrics (host statistics, op counts, ...).
    layer: dict = field(default_factory=dict)
    #: perf_counter bounds of the measured window.
    layer_window: tuple[float, float] = (0.0, 0.0)
    cpu_start: dict[int, float] = field(default_factory=dict)

    def open_window(self) -> float:
        """Start the measured window; returns its start time."""
        self.cpu_start = tracing.thread_cpu()
        start = time.perf_counter()
        self.layer_window = (start, start)
        return start

    def close_window(self) -> float:
        """End the window: its bounds and this process's CPU per thread."""
        end = time.perf_counter()
        self.layer_window = (self.layer_window[0], end)
        self.layer["client_cpu"] = {
            tid: cpu - self.cpu_start.get(tid, 0.0) for tid, cpu in tracing.thread_cpu().items()
        }
        self.layer["client_threads"] = tracing.thread_names()
        return end

    def fail(self, kind: str, count: int = 1, reason: str = "wrong verdict") -> None:
        self.failed += count
        self.failures[kind] = self.failures.get(kind, 0) + count
        key = f"{kind}: {reason}"
        self.reasons[key] = self.reasons.get(key, 0) + count


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    if not values:
        return float("nan"), 0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def latency_metrics(out: Outcome, name: str, seconds: list[float], tail: float) -> None:
    ms = [s * 1e3 for s in seconds]
    p50, _ = percentile(ms, 0.5)
    ptail, beyond = percentile(ms, tail)
    out.metrics[f"{name}_p50_ms"] = Metric(p50, "ms", len(ms))
    out.metrics[f"{name}_p{round(tail * 100)}_ms"] = Metric(
        ptail, "ms", len(ms), "" if beyond >= 10 else f"only {beyond} samples beyond"
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------- the host


class Host:
    """The server process of a served workload (``host.py``)."""

    def __init__(self, workload: str, seed: int, workdir: Path, traced: bool) -> None:
        self.data_dir = workdir / "data"
        self.out = workdir / "host.json"
        env = {k: v for k, v in os.environ.items() if k != "REPRO_OBS"}
        if traced:
            env["REPRO_OBS"] = "1"
        command = [
            sys.executable, str(HERE / "host.py"), "--workload", workload,
            "--seed", str(seed), "--data-dir", str(self.data_dir), "--out", str(self.out),
        ]
        if traced:
            command.append("--trace")
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, bufsize=0
        )
        self._buffer = b""

    def _readline(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("ledger host did not answer in time")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError(f"ledger host exited (code {self.proc.wait()})")
                self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode().strip()

    def _send(self, command: str) -> None:
        self.proc.stdin.write(f"{command}\n".encode())
        self.proc.stdin.flush()

    def wait_ready(self) -> int:
        line = self._readline(HOST_READY_TIMEOUT_S)
        if not line.startswith("READY "):
            raise RuntimeError(f"unexpected host output {line!r}")
        return int(line.split()[1])

    def begin(self) -> None:
        self._send("begin")
        if self._readline(30.0) != "OK":
            raise RuntimeError("host did not start the window")

    def stop(self) -> dict:
        self._send("stop")
        line = self._readline(120.0)
        if line != "DONE":
            raise RuntimeError(f"unexpected host output {line!r}")
        self.proc.stdin.close()
        self.proc.wait(timeout=30.0)
        with open(self.out) as handle:
            return json.load(handle)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def reopen_check(population, data_dir: Path, receipts: list, out: Outcome) -> None:
    """Reopen the stopped server's data directory and re-read every
    acknowledged journal; a mismatch or an unreadable journal is a failure,
    a reopen that raises fails every acknowledged write."""
    registry = MemberRegistry()
    population.register(registry, population.served_members)
    lsp = KeyPair.generate(seed=f"lsp:{LEDGER_URI}")
    try:
        ledger = Ledger.open(str(data_dir), registry, lsp)
    except Exception as exc:  # noqa: BLE001 — any reopen failure is data loss
        detail = str(exc).replace(str(data_dir), "<data dir>")
        out.fail("reopen", len(receipts), f"{type(exc).__name__}: {detail}")
        return
    try:
        for receipt in receipts:
            try:
                if ledger.get_journal(receipt.jsn).tx_hash() != receipt.tx_hash:
                    out.fail("reopen")
            except Exception as exc:  # noqa: BLE001 — unreadable acknowledged journal
                out.fail("reopen", reason=type(exc).__name__)
    finally:
        ledger.close(checkpoint=False)


# ------------------------------------------------------------ ingest-skewed


def run_ingest(seed: int, seconds: float, workdir: Path, traced: bool,
               workload=INGEST, tamper: int | None = None,
               tracer: tracing.Tracer | None = None) -> Outcome:
    """Closed loop: each of ``connections × inflight`` callers submits a
    pre-signed request and waits for its client-verified receipt."""
    out = Outcome()
    started = time.perf_counter()
    host = Host(workload.name, seed, workdir, traced)
    try:
        population = population_for(workload.name, seed)
        requests = population.requests(workload.presigned, "ingest")
        if tamper is not None:
            # Sign one request with another member's key: the server must
            # refuse it and the refusal must show in the failure count.
            sender = int(requests[tamper].client_id[1:])
            other = population.keypair((sender + 1) % workload.spec.members)
            requests[tamper] = replace(requests[tamper], signature=other.sign(
                requests[tamper].request_hash()))
        port = host.wait_ready()
        result = asyncio.run(
            _ingest_loop(port, requests, seconds, workload, host, started, tracer, out)
        )
        host_stats = host.stop()
    finally:
        host.kill()
    latencies, receipts = result
    reopen_check(population, host.data_dir, receipts, out)
    latency_metrics(out, "append", latencies, 0.99)
    out.metrics["fail_ratio"] = Metric(out.failed / max(out.attempted, 1), "ratio", out.attempted)
    out.metrics["peak_rss_mb"] = Metric(host_stats["peak_rss_mb"], "MB")
    out.slots = {"ops_per_s": out.metrics["append_per_s"].value}
    out.headline = out.metrics["append_p50_ms"].value
    out.layer = {"host": host_stats, "ops": out.attempted, "threads": threading.active_count(),
                 "connections": workload.connections}
    return out


async def _ingest_loop(port, requests, seconds, workload, host, started, tracer, out):
    connections = [
        await AsyncRemoteLedger.connect("127.0.0.1", port, expected_lsp_key=LSP_KEY)
        for _ in range(workload.connections)
    ]
    out.metrics["setup_s"] = Metric(time.perf_counter() - started, "s")
    pending = iter(requests)
    latencies: list[float] = []
    receipts: list = []
    last_completion = 0.0
    host.begin()
    if tracer is not None:
        tracer.enabled = True
    window_start = out.open_window()
    deadline = window_start + seconds

    async def caller(remote: AsyncRemoteLedger) -> None:
        nonlocal last_completion
        while time.perf_counter() < deadline:
            request = next(pending, None)
            if request is None:
                return
            out.attempted += 1
            begin = time.perf_counter()
            try:
                receipt = await remote.submit(request)
            except Exception as exc:  # noqa: BLE001 — every refusal is a failed op
                out.fail("append", reason=type(exc).__name__)
                continue
            end = last_completion = time.perf_counter()
            if tracer is not None:
                tracer.record("op.append", begin, end)
            latencies.append(end - begin)
            receipts.append(receipt)

    try:
        await asyncio.gather(
            *(
                caller(remote)
                for remote in connections
                for _ in range(workload.inflight_per_connection)
            )
        )
    finally:
        if tracer is not None:
            tracer.enabled = False
        out.close_window()
        for remote in connections:
            await remote.close()
    # Requests sent before the deadline all complete; the rate counts them
    # over the time until the last one did.
    elapsed = last_completion - window_start
    out.metrics["append_per_s"] = Metric(
        len(receipts) / elapsed if receipts else 0.0, "1/s", len(receipts)
    )
    return latencies, receipts


# --------------------------------------------------------------- verify-mix


@dataclass(frozen=True)
class Op:
    due: float
    kind: str  # "verify" | "clue" | "write"
    target: object


def verify_schedule(population, seconds: float, workload=VERIFY_MIX) -> list[Op]:
    """Poisson arrivals at the workload's rate; journal ids uniform over the
    sealed history, clues drawn with the preload's zipf weights (the clue of
    a uniformly chosen preloaded journal), writes pre-signed by the hot
    writers."""
    rng = population.rng("schedule")
    epoch = 1 << LedgerConfig().fractal_height
    sealed = ((workload.preload + 1) // epoch) * epoch  # +1: the genesis journal
    preload_clues = population.request_clues(
        workload.preload, "preload", writers=population.hot_writers()
    )
    ops: list[Op] = []
    writes = 0
    t = rng.expovariate(workload.rate_per_s)
    while t < seconds:
        draw = rng.random()
        if draw < workload.verify_share:
            ops.append(Op(t, "verify", rng.randrange(sealed)))
        elif draw < workload.verify_share + workload.clue_share:
            ops.append(Op(t, "clue", preload_clues[rng.randrange(len(preload_clues))]))
        else:
            ops.append(Op(t, "write", writes))
            writes += 1
        t += rng.expovariate(workload.rate_per_s)
    write_requests = population.requests(writes, "writes", writers=population.hot_writers())
    return [
        replace(op, target=write_requests[op.target]) if op.kind == "write" else op
        for op in ops
    ]


def fold_journal(client: RemoteLedgerClient, journal, proof) -> bool:
    """Fold an anchored proof against the client's own anchors — the check
    ``RemoteLedgerClient.verify_journal`` makes, without re-fetching."""
    if proof.epoch_index == proof.num_epochs - 1:
        trusted = client.state.live_root
    else:
        trusted = client.anchors.get(proof.epoch_index)
    if trusted is None:
        return False
    try:
        return proof.epoch_proof.computed_root(journal.tx_hash()) == trusted
    except (ValueError, IndexError):
        return False


def verify_verdict(client, jsn: int, journal, proof) -> tuple[bool, str | None]:
    if journal.jsn != jsn:
        return False, "read returned another journal"
    if not fold_journal(client, journal, proof):
        return False, "proof does not fold to the anchor"
    return True, None


def clue_verdict(jsns, journals, proof, state_root) -> tuple[bool, str | None]:
    """The lineage check ``RemoteLedgerClient.verify_clue`` makes, with the
    reason a lineage failed."""
    digests = {i: journal.tx_hash() for i, journal in enumerate(journals)}
    if jsns and proof.verify(digests, state_root):
        return True, None
    if not jsns:
        return False, "empty lineage"
    if [journal.jsn for journal in journals] != list(jsns):
        return False, "read returned another journal"
    if proof.entry_count != len(jsns):
        return False, "lineage grew between list_tx and prove_clue"
    if not proof.mpt_proof.verify(state_root):
        return False, "clue proof does not fold to the returned state root"
    return False, "wrong verdict"


def run_verify_mix(seed: int, seconds: float, workdir: Path, traced: bool,
                   tracer: tracing.Tracer | None = None) -> Outcome:
    """Open loop at a fixed rate; each op is timed from its due time."""
    out = Outcome()
    started = time.perf_counter()
    host = Host(VERIFY_MIX.name, seed, workdir, traced)
    client = writer = None
    try:
        population = population_for(VERIFY_MIX.name, seed)
        schedule = verify_schedule(population, seconds)
        port = host.wait_ready()
        client = RemoteLedgerClient("127.0.0.1", port, expected_lsp_key=LSP_KEY)
        loop = client._loop  # ops run as coroutines on the client's own loop thread
        remote = client._remote
        writer = asyncio.run_coroutine_threadsafe(
            AsyncRemoteLedger.connect("127.0.0.1", port, expected_lsp_key=LSP_KEY), loop
        ).result(30.0)
        client.sync_anchors()
        out.metrics["setup_s"] = Metric(time.perf_counter() - started, "s")

        results: list[tuple[str, float, bool, object]] = []
        lateness: list[float] = []

        async def execute(op: Op, due: float) -> None:
            try:
                if op.kind == "verify":
                    journal = await remote.get_journal(op.target)
                    proof = await remote.get_proof(op.target, anchored=True)
                    ok, value = verify_verdict(client, op.target, journal, proof)
                elif op.kind == "clue":
                    # One journal at a time, as RemoteLedgerClient.verify_clue does.
                    jsns = await remote.list_tx(op.target)
                    journals = [await remote.get_journal(jsn) for jsn in jsns]
                    proof, state_root = await remote.prove_clue(op.target)
                    ok, value = clue_verdict(jsns, journals, proof, state_root)
                else:
                    value = await writer.submit(op.target)
                    ok = True
            except Exception as exc:  # noqa: BLE001 — an error is a failed op
                ok, value = False, type(exc).__name__
            end = time.perf_counter()
            if tracer is not None:
                tracer.record(f"op.{op.kind}", due, end)
            results.append((op.kind, end - due, ok, value))

        async def drive(window_start: float) -> None:
            """The open-loop generator: start each op at its due time."""
            tasks = []
            for op in schedule:
                due = window_start + op.due
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                lateness.append(time.perf_counter() - due)
                tasks.append(asyncio.ensure_future(execute(op, due)))
            await asyncio.gather(*tasks)

        host.begin()
        if tracer is not None:
            tracer.enabled = True
        window_start = out.open_window()
        driving = asyncio.run_coroutine_threadsafe(drive(window_start), loop)
        max_threads = threading.active_count()
        # This thread keeps the client's anchors in sync while the loop
        # thread generates and runs the ops.
        while True:
            try:
                driving.result(timeout=VERIFY_MIX.sync_every_s)
                break
            except concurrent.futures.TimeoutError:
                pass
            out.attempted += 1
            try:
                client.sync_anchors()
            except Exception as exc:  # noqa: BLE001 — a failed sync is a failed op
                out.fail("sync", reason=type(exc).__name__)
            max_threads = max(max_threads, threading.active_count())
        window_end = out.close_window()
        if tracer is not None:
            tracer.enabled = False
        asyncio.run_coroutine_threadsafe(writer.close(), loop).result(30.0)
        client.close()
        host_stats = host.stop()
    finally:
        if client is not None:
            client.close()
        host.kill()

    receipts = []
    by_kind: dict[str, list[float]] = {"verify": [], "clue": [], "write": []}
    for kind, latency, ok, value in results:
        out.attempted += 1
        if not ok:
            out.fail(kind, reason=value or "wrong verdict")
            continue
        by_kind[kind].append(latency)
        if kind == "write":
            receipts.append(value)
    reopen_check(population, host.data_dir, receipts, out)
    latency_metrics(out, "verify", by_kind["verify"], 0.99)
    latency_metrics(out, "clue", by_kind["clue"], 0.95)
    latency_metrics(out, "write", by_kind["write"], 0.95)
    completed = sum(len(v) for v in by_kind.values())
    late_p99, _ = percentile([s * 1e3 for s in lateness], 0.99)
    out.metrics["late_p99_ms"] = Metric(late_p99, "ms", len(lateness))
    out.metrics["fail_ratio"] = Metric(out.failed / max(out.attempted, 1), "ratio", out.attempted)
    out.metrics["peak_rss_mb"] = Metric(host_stats["peak_rss_mb"], "MB")
    out.slots = {"ops_per_s": completed / (window_end - window_start)}
    out.headline = out.metrics["verify_p50_ms"].value
    out.layer = {"host": host_stats, "ops": len(results), "threads": max_threads,
                 "connections": 2, "late_p99_ms": late_p99}
    return out


# ------------------------------------------------------------ audit-offline


def build_audit_ledger(seed: int, journals: int):
    population = population_for(AUDIT.name, seed)
    ledger = Ledger(LedgerConfig(**{**ledger_config_kwargs(), "node_store": "memory"}))
    population.register(ledger.registry, population.served_members)
    requests = population.requests(journals, "audit")
    for start in range(0, len(requests), 128):
        ledger.append_batch(requests[start : start + 128])
    return ledger


def run_audit(seed: int, seconds: float, workdir: Path, traced: bool,
              tracer: tracing.Tracer | None = None, untraced_only: bool = False) -> Outcome:
    """Sequential audit, parallel audit, export + standalone verify — in
    rounds until ``seconds`` have passed (at least one round)."""
    out = Outcome()
    # An auditor starts in a fresh process: no key tables from earlier passes.
    ecdsa.clear_fast_path_caches()
    started = time.perf_counter()
    ledger = build_audit_ledger(seed, AUDIT.journals)
    session = LedgerSession(ledger)
    journals = ledger.size
    out.metrics["setup_s"] = Metric(time.perf_counter() - started, "s")
    workers = len(os.sched_getaffinity(0))
    steps: dict[str, list[float]] = {"audit": [], "audit_par": [], "bundle_verify": []}
    state: dict = {}

    def check(kind: str, step) -> float:
        """Run one correctness-checked step; returns its wall time."""
        out.attempted += 1
        begin = time.perf_counter()
        try:
            ok, reason = step(), "wrong verdict"
        except Exception as exc:  # noqa: BLE001 — an error is a failed step
            ok, reason = False, type(exc).__name__
        elapsed = time.perf_counter() - begin
        if not ok:
            out.fail(kind, reason=reason)
        return elapsed

    def sequential() -> bool:
        state["reference"] = session.audit()
        return state["reference"].passed

    def parallel() -> bool:
        report = session.audit(workers=workers)
        return report.passed and report.canonical() == state["reference"].canonical()

    def bundle_verify() -> bool:
        state["bundle"] = session.export().to_bytes()
        bundle = ExportBundle.from_bytes(state["bundle"])
        return bool(export_verifier.verify_bundle(
            bundle, ca_public_key=ledger.registry.ca_public_key, lsp_public_key=LSP_KEY
        ))

    def rebuild() -> bool:
        _ledger, report = export_rebuild.rebuild_from_bundle(
            ExportBundle.from_bytes(state["bundle"])
        )
        return bool(report)

    if tracer is not None:
        tracer.enabled = True
    window_start = out.open_window()
    while True:
        steps["audit"].append(check("audit", sequential))
        if untraced_only:
            break
        steps["audit_par"].append(check("audit_par", parallel))
        steps["bundle_verify"].append(check("bundle_verify", bundle_verify))
        if tracer is not None:
            check("rebuild", rebuild)
        if time.perf_counter() - window_start >= seconds:
            break
    out.close_window()
    if tracer is not None:
        tracer.enabled = False
    out.layer["counters"] = obs.snapshot().get("counters", {})
    for step, durations in steps.items():
        if durations:
            rate = journals * len(durations) / sum(durations)
            out.metrics[f"{step}_jps"] = Metric(rate, "1/s", len(durations))
    out.metrics["fail_ratio"] = Metric(out.failed / max(out.attempted, 1), "ratio", out.attempted)
    out.metrics["peak_rss_mb"] = Metric(peak_rss_mb(), "MB")
    out.headline = out.metrics["audit_jps"].value
    if not untraced_only:
        out.slots = {
            "ops_per_s": 3 * journals * len(steps["audit"]) / sum(map(sum, steps.values())),
        }
    out.layer.update(ops=journals * len(steps["audit"]), journals=journals,
                     bundle_bytes=len(state.get("bundle", b"")), rounds=len(steps["audit"]))
    return out


# -------------------------------------------------------------- per-layer


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(workload: str, traced: Outcome, untraced: Outcome,
                  client_spans: list, client_samples: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of BENCHMARK.json from the traced pass."""
    host = traced.layer.get("host", {})
    host_spans = host.get("spans", []) if host else client_spans
    host_samples = host.get("samples", {}) if host else client_samples
    ledger_side = tracing.summarize(host_spans)
    client_side = tracing.summarize(client_spans) if host else {}
    merged = tracing.merge(ledger_side, client_side)
    ops = traced.layer.get("ops", 0) or 1

    def s(side: dict, name: str, key: str) -> float:
        return side.get(name, {}).get(key, 0.0)

    def per_unit(side, name, scale=1e6):
        return _ratio(s(side, name, "incl_s") * scale, s(side, name, "units"))

    def per_call(side, name, scale=1e6):
        return _ratio(s(side, name, "incl_s") * scale, s(side, name, "calls"))

    counters = host.get("counters", {}) if host else traced.layer.get("counters", {})
    hits = counters.get("ecdsa.pubkey_cache.hit", 0)
    misses = counters.get("ecdsa.pubkey_cache.miss", 0)
    store = host.get("node_store", {}) if host else {}
    journals_appended = s(ledger_side, "ledger.append_batch", "units")
    payload = sum(host_samples.get("ledger.payload_bytes", []))
    waits = host_samples.get("service.queue_wait_us", [])
    batches = host_samples.get("service.batch_size", [])

    # Audit: signature time is crypto time inside the replay (the
    # sequential audit verifies inline; pool workers are not traced).
    by_id = {span[0]: span for span in host_spans}

    def has_ancestor(span, name) -> bool:
        parent = span[1]
        while parent >= 0:
            ancestor = by_id.get(parent)
            if ancestor is None:
                return False
            if ancestor[2] == name:
                return True
            parent = ancestor[1]
        return False

    replay_journals = traced.layer.get("journals", 0) * s(ledger_side, "audit.replay", "calls")
    sig_s = sum(
        span[5] - span[4]
        for span in host_spans
        if span[2] in ("crypto.verify", "crypto.table_build") and has_ancestor(span, "audit.replay")
    )

    def seconds(name: str, parents: tuple[str, ...] | None = None, exclude=()) -> float:
        """Total duration of spans called ``name``, optionally only those
        whose parent is one of ``parents``, or none of ``exclude``."""
        total = 0.0
        for span in host_spans:
            if span[2] != name:
                continue
            parent = by_id.get(span[1], (None,) * 3)[2]
            if (parents is None or parent in parents) and parent not in exclude:
                total += span[5] - span[4]
        return total

    # Certificate checks without the pool start-up the first one triggers;
    # pool wait is start-up plus the coordinator blocked on futures.
    cert_calls = s(ledger_side, "audit.certificates", "calls")
    cert_check_s = seconds("audit.certificates") - seconds(
        "audit.pool_start", parents=("audit.certificates",)
    )
    pool_wait_s = seconds("audit.pool_start") + seconds(
        "audit.pool_wait", exclude=("audit.pool_start", "audit.pool_wait")
    )
    par_runs = max(1, traced.layer.get("rounds", 0))
    journals = traced.layer.get("journals", 0)

    metrics = {
        "crypto.verify_us": (per_unit(ledger_side, "crypto.verify"), "us"),
        "crypto.table_builds_per_1k": (
            _ratio(s(ledger_side, "crypto.table_build", "calls") * 1e3,
                   s(ledger_side, "crypto.verify", "units")), "count"),
        "crypto.table_build_us": (per_call(ledger_side, "crypto.table_build"), "us"),
        "crypto.pubkey_hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "crypto.sign_us": (per_unit(ledger_side, "crypto.sign"), "us"),
        "crypto.receipt_sign_us": (per_unit(ledger_side, "crypto.receipt_sign"), "us"),
        "service.batch_size": (_ratio(sum(batches), len(batches)), "count"),
        "service.queue_wait_us": (_ratio(sum(waits), len(waits)), "us"),
        "service.commit_us": (per_call(ledger_side, "service.commit"), "us"),
        "ledger.append_batch_self_us": (
            _ratio(s(ledger_side, "ledger.append_batch", "self_s") * 1e6, journals_appended), "us"),
        "ledger.get_journal_us": (per_call(ledger_side, "ledger.get_journal"), "us"),
        "ledger.get_proof_us": (per_call(ledger_side, "ledger.get_proof"), "us"),
        "ledger.prove_clue_us": (per_call(ledger_side, "ledger.prove_clue"), "us"),
        "storage.append_us": (per_call(ledger_side, "storage.append"), "us"),
        "storage.fsyncs_per_1k": (
            _ratio(s(ledger_side, "storage.fsync", "calls") * 1e3, journals_appended), "count"),
        "storage.write_amp": (
            _ratio(host.get("stream_bytes", 0) + store.get("bytes_written", 0), payload), "ratio"),
        "storage.read_us": (per_call(ledger_side, "storage.read"), "us"),
        "pagestore.hit_ratio": (
            _ratio(store.get("cache_hits", 0),
                   store.get("cache_hits", 0) + store.get("cache_misses", 0)), "ratio"),
        "pagestore.loads_per_read": (
            _ratio(store.get("page_loads", 0), store.get("backend_reads", 0)), "ratio"),
        "merkle.fam_append_us": (per_call(ledger_side, "merkle.fam_append"), "us"),
        "merkle.cmtree_add_us": (per_unit(ledger_side, "merkle.cmtree_add"), "us"),
        "merkle.get_proof_us": (per_call(ledger_side, "merkle.get_proof"), "us"),
        "merkle.prove_clue_us": (per_call(ledger_side, "merkle.prove_clue"), "us"),
        "merkle.proof_bytes": (
            _ratio(s(client_side, "merkle.proof_decode", "units"),
                   s(client_side, "merkle.proof_decode", "calls")), "bytes"),
        "net.encode_us": (per_call(merged, "net.encode"), "us"),
        "net.decode_us": (per_call(merged, "net.decode"), "us"),
        "net.bytes_per_op": (
            _ratio(s(client_side, "net.encode", "units") + s(client_side, "net.decode", "units"),
                   ops), "bytes"),
        "net.frames_per_op": (
            _ratio(s(client_side, "net.encode", "calls") + s(client_side, "net.decode", "calls"),
                   ops), "count"),
        "client.receipt_check_us": (per_unit(client_side, "client.receipt_check"), "us"),
        "client.fold_us": (per_call(client_side, "client.fold"), "us"),
        "client.sync_anchors_us": (per_call(client_side, "client.sync_anchors"), "us"),
        "audit.cert_check_s": (_ratio(cert_check_s, cert_calls), "s"),
        "audit.sig_us_per_journal": (_ratio(sig_s * 1e6, replay_journals), "us"),
        "audit.replay_us_per_journal": (
            _ratio(s(ledger_side, "audit.replay", "self_s") * 1e6, replay_journals), "us"),
        "audit.pool_wait_s": (pool_wait_s / par_runs if journals else 0.0, "s"),
        "export.build_us_per_journal": (
            _ratio(s(ledger_side, "export.build", "incl_s") * 1e6,
                   journals * s(ledger_side, "export.build", "calls")), "us"),
        "export.verify_us_per_journal": (
            _ratio(s(ledger_side, "export.verify", "incl_s") * 1e6,
                   journals * s(ledger_side, "export.verify", "calls")), "us"),
        "export.rebuild_us_per_journal": (
            _ratio(s(ledger_side, "export.rebuild", "incl_s") * 1e6,
                   journals * s(ledger_side, "export.rebuild", "calls")), "us"),
        "export.bundle_bytes_per_journal": (
            _ratio(traced.layer.get("bundle_bytes", 0), journals), "bytes"),
        "loadgen.late_p99_ms": (traced.layer.get("late_p99_ms", 0.0), "ms"),
        "loadgen.threads": (traced.layer.get("threads", 1), "count"),
        "loadgen.connections": (traced.layer.get("connections", 0), "count"),
    }

    # Self time per op of every layer, both processes.
    self_by_layer: dict[str, float] = {layer: 0.0 for layer in sorted(set(tracing.LAYERS.values()))}
    for name, entry in merged.items():
        layer = tracing.LAYERS.get(name.split(".", 1)[0])
        if layer is not None:
            self_by_layer[layer] += entry["self_s"]
    for layer, self_s in self_by_layer.items():
        metrics[f"{layer}.self_us_per_op"] = (self_s * 1e6 / ops, "us")

    # The bottleneck thread: most CPU in the window, over both processes.
    candidates = []
    if host:
        lo, hi = host["window"]
        for tid, cpu in host["thread_cpu"].items():
            label = f"server thread {host['thread_names'].get(tid, tid)}"
            candidates.append((cpu, int(tid), host_spans, lo, hi, label))
    lo, hi = traced.layer_window
    names = traced.layer.get("client_threads", {})
    for tid, cpu in traced.layer.get("client_cpu", {}).items():
        label = f"{'load generator' if host else 'benchmark'} thread {names.get(tid, tid)}"
        candidates.append((cpu, tid, client_spans, lo, hi, label))
    if candidates:
        cpu, tid, spans, lo, hi, label = max(candidates, key=lambda c: c[0])
        traced.layer["bottleneck"] = label
        covered = tracing.covered_seconds(spans, tid, lo, hi)
        metrics["trace.uncovered_share"] = (1.0 - _ratio(covered, hi - lo), "ratio")
        metrics["trace.bottleneck_cpu_share"] = (_ratio(cpu, hi - lo), "ratio")
    else:
        metrics["trace.uncovered_share"] = (0.0, "ratio")
        metrics["trace.bottleneck_cpu_share"] = (0.0, "ratio")
    if workload == AUDIT.name:
        overhead = _ratio(untraced.headline, traced.headline) - 1.0  # a rate
    else:
        overhead = _ratio(traced.headline, untraced.headline) - 1.0  # a latency
    metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
    return metrics


# ------------------------------------------------------------------ main


def run_pass(workload: str, seed: int, seconds: float, workdir: Path, traced: bool,
             untraced_only: bool = False) -> tuple[Outcome, tracing.Tracer | None]:
    tracer = None
    if traced:
        if workload == AUDIT.name:  # the ledger lives in this process
            obs.enable()
            obs.reset()
        tracer = tracing.Tracer()
        tracing.install(tracer, "offline" if workload == AUDIT.name else "client")
    try:
        if workload == INGEST.name:
            out = run_ingest(seed, seconds, workdir, traced, tracer=tracer)
        elif workload == VERIFY_MIX.name:
            out = run_verify_mix(seed, seconds, workdir, traced, tracer=tracer)
        else:
            out = run_audit(seed, seconds, workdir, traced, tracer=tracer,
                            untraced_only=untraced_only)
    finally:
        if tracer is not None:
            tracer.restore()
            obs.disable()
    return out, tracer


def print_report(workload: str, out: Outcome) -> None:
    print(f"== {workload}: {out.attempted} ops attempted, {out.failed} failed")
    for reason, count in sorted(out.reasons.items()):
        print(f"  failed {count:>6}  {reason}")
    for name in sorted(out.metrics):
        metric = out.metrics[name]
        note = f"  [{metric.note}]" if metric.note else ""
        print(f"  {name:<22} {metric.value:>12.4f} {metric.unit:<6} n={metric.samples}{note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end ledger benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="tiny ingest with one wrong-key request; exit 0 iff it is counted")
    args = parser.parse_args(argv)
    RUNS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=RUNS_DIR))
    try:
        if args.self_test:
            return self_test(args.seed, workdir)
        if args.workload is None:
            parser.error("--workload is required")
        return run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(workload: str, seed: int, seconds: float, traced: bool, workdir: Path) -> int:
    untraced, _ = run_pass(workload, seed, seconds, workdir / "untraced", False,
                           untraced_only=traced and workload == AUDIT.name)
    print_report(workload, untraced)
    if not traced:
        setup = untraced.metrics["setup_s"].value
        metrics = {"setup_s": setup, "peak_rss_mb": untraced.metrics["peak_rss_mb"].value,
                   **untraced.slots}
        result = {
            "correct": untraced.failed == 0,
            "attempted": untraced.attempted,
            "failed": untraced.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in END_TO_END.items()},
        }
    else:
        traced_out, tracer = run_pass(workload, seed, seconds, workdir / "traced", True)
        print_report(f"{workload} (traced)", traced_out)
        layers = layer_metrics(workload, traced_out, untraced, tracer.spans, tracer.samples)
        print(f"== per-layer (traced pass); bottleneck: {traced_out.layer.get('bottleneck')}")
        for name, (value, unit) in layers.items():
            print(f"  {name:<32} {value:>14.4f} {unit}")
        failed = untraced.failed + traced_out.failed
        result = {
            "correct": failed == 0,
            "attempted": untraced.attempted + traced_out.attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in layers.items()},
        }
    print(json.dumps(result))
    return 0


def self_test(seed: int, workdir: Path) -> int:
    """A wrong-key request must be refused and counted, not swallowed."""
    out = run_ingest(seed, 5.0, workdir, False, workload=SELF_TEST, tamper=7)
    print_report("self-test", out)
    caught = out.failures.get("append", 0) >= 1 and out.metrics["fail_ratio"].value > 0
    print("self-test:", "PASS" if caught else "FAIL (wrong-key request not counted)")
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())

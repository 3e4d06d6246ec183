"""In-memory span recorder and the wrappers that feed it.

The benchmark times the program from the outside: :func:`install` replaces
the public entry points of each ``repro`` layer with thin wrappers that
record ``(id, parent, name, thread, start, end, units)`` spans.  Each wrapper
patches the name where the caller looks it up (``repro.core.ledger`` imports
``verify_batch`` by name, so that name is patched there, not only in
``repro.crypto.keys``).  Spans stay in memory and are written once, at exit.

Nothing here runs unless a process calls :func:`install`; untraced runs never
import this module's wrappers into the program.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable

#: Span-name prefix -> layer (the ``repro`` package the entry point lives in).
LAYERS = {
    "crypto": "crypto",
    "service": "service",
    "ledger": "core",
    "storage": "storage",
    "merkle": "merkle",
    "net": "net",
    "client": "net",
    "audit": "audit",
    "export": "export",
}

Units = Callable[[tuple, dict, Any], float]


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording

    def reset(self) -> None:
        self.spans = []
        self.samples = defaultdict(list)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float, units: float = 1) -> None:
        """A span timed by the caller (e.g. one asynchronous operation)."""
        if self.enabled:
            self.spans.append(
                [next(self._ids), -1, name, threading.get_native_id(), start, end, units]
            )

    def _traced(self, fn: Callable, name: str, units: Units | None, before) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args, kwargs)
            stack = tracer._stack()
            record = [
                next(tracer._ids),
                stack[-1][0] if stack else -1,
                name,
                threading.get_native_id(),
                time.perf_counter(),
                0.0,
                1,
            ]
            stack.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = time.perf_counter()
                stack.pop()
                tracer.spans.append(record)
            if units is not None:
                record[6] = units(args, kwargs, result)
            return result

        return traced

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        units: Units | None = None,
        before: Callable | None = None,
    ) -> None:
        """Replace ``owner.attr`` (module function or class method) with a
        span-recording wrapper; :meth:`restore` puts the original back."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            patched: Any = classmethod(self._traced(raw.__func__, name, units, before))
        else:
            patched = self._traced(raw, name, units, before)
        setattr(owner, attr, patched)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def dump(self, path: str, extra: dict | None = None) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "samples": self.samples, **(extra or {})}, handle)


# ------------------------------------------------------------------ wiring


def _count(position: int) -> Units:
    return lambda args, kwargs, result: len(args[position])


def _queue_wait(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    now = time.perf_counter()
    waits = tracer.samples["service.queue_wait_us"]
    for pending in args[1]:
        waits.append((now - pending.enqueued_at) * 1e6)
    tracer.samples["service.batch_size"].append(len(args[1]))


def _payload_bytes(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    tracer.samples["ledger.payload_bytes"].append(sum(len(r.payload) for r in args[1]))


def install(tracer: Tracer, side: str) -> None:
    """Wrap the entry points a ``side`` ("server", "client" or "offline")
    calls into.  Crypto, core, merkle and frame coding are wrapped on every
    side; the rest only where that side runs it."""
    from repro.core import ledger as core_ledger
    from repro.core.receipt import Receipt
    from repro.crypto import ecdsa, keys
    from repro.merkle import cmtree, fam
    from repro.net import protocol

    for module in (ecdsa, keys):
        tracer.wrap(module, "verify_digest", "crypto.verify")
        tracer.wrap(module, "verify_digests", "crypto.verify", _count(0))
        tracer.wrap(module, "precompute_public_key", "crypto.table_build")
        tracer.wrap(module, "sign_digest", "crypto.sign")
        tracer.wrap(module, "sign_digests", "crypto.sign", _count(1))
    tracer.wrap(Receipt, "sign_batch", "crypto.receipt_sign", _count(1))
    tracer.wrap(Receipt, "signed_by", "crypto.receipt_sign")

    Ledger = core_ledger.Ledger
    tracer.wrap(Ledger, "append_batch", "ledger.append_batch", _count(1), _payload_bytes)
    tracer.wrap(Ledger, "get_journal", "ledger.get_journal")
    tracer.wrap(Ledger, "get_proof", "ledger.get_proof")
    tracer.wrap(Ledger, "prove_clue", "ledger.prove_clue")

    tracer.wrap(fam.FamAccumulator, "append", "merkle.fam_append")
    tracer.wrap(fam.FamAccumulator, "get_proof", "merkle.get_proof")
    tracer.wrap(cmtree.CMTree, "add", "merkle.cmtree_add")
    tracer.wrap(cmtree.CMTree, "add_many", "merkle.cmtree_add", _count(2))
    tracer.wrap(cmtree.CMTree, "prove_clue", "merkle.prove_clue")

    tracer.wrap(protocol, "encode_frame", "net.encode", lambda a, k, r: len(r))
    tracer.wrap(protocol, "decode_message", "net.decode", _count(0))

    if side == "server":
        from repro.service import group_commit
        from repro.storage import pagestore, stream

        tracer.wrap(group_commit.LedgerService, "_commit", "service.commit", _count(1), _queue_wait)
        tracer.wrap(
            stream.FileStream, "append_many", "storage.append",
            lambda a, k, r: sum(len(record) for record in a[1]),
        )
        tracer.wrap(stream.FileStream, "append", "storage.append", lambda a, k, r: len(a[1]))
        tracer.wrap(stream.FileStream, "read", "storage.read")
        tracer.wrap(pagestore.PagedNodeStore, "flush", "storage.page_flush")
        tracer.wrap(os, "fsync", "storage.fsync")
    elif side == "client":
        from repro.merkle.cmtree import ClueProof
        from repro.merkle.proofs import MembershipProof
        from repro.net import client as net_client

        tracer.wrap(net_client, "verify_batch", "client.receipt_check", _count(0))
        tracer.wrap(MembershipProof, "computed_root", "client.fold")
        tracer.wrap(ClueProof, "verify", "client.clue_fold")
        tracer.wrap(net_client.RemoteLedgerClient, "sync_anchors", "client.sync_anchors")
        tracer.wrap(fam.FamProof, "from_bytes", "merkle.proof_decode", _count(1))
    elif side == "offline":
        from concurrent.futures import Future

        from repro import api
        from repro.audit import engine
        from repro.export import rebuild, verifier

        Engine = engine._AuditEngine
        tracer.wrap(Engine, "run", "audit.run")
        tracer.wrap(Engine, "check_certificates", "audit.certificates")
        tracer.wrap(Engine, "replay", "audit.replay")
        tracer.wrap(Engine, "_ensure_pool", "audit.pool_start")
        tracer.wrap(Future, "result", "audit.pool_wait")
        tracer.wrap(api, "export_bundle", "export.build")
        tracer.wrap(verifier, "verify_bundle", "export.verify")
        tracer.wrap(rebuild, "rebuild_from_bundle", "export.rebuild")
    else:
        raise ValueError(f"unknown side {side!r}")


# --------------------------------------------------------------- threads


def thread_cpu() -> dict[int, float]:
    """CPU seconds (user + system) of every thread of this process."""
    ticks = os.sysconf("SC_CLK_TCK")
    out: dict[int, float] = {}
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # thread ended between listdir and open
        out[int(tid)] = (int(fields[11]) + int(fields[12])) / ticks
    return out


def thread_names() -> dict[int, str]:
    return {t.native_id: t.name for t in threading.enumerate() if t.native_id}


# ------------------------------------------------------------ aggregation


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, units, inclusive and self seconds.

    Self time is a span's duration minus the time its direct children cover
    (children are recorded on the same thread, so they nest).
    """
    child_time: dict[int, float] = defaultdict(float)
    for _id, parent, _name, _tid, start, end, _units in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for span_id, _parent, name, _tid, start, end, units in spans:
        entry = out.setdefault(name, {"calls": 0, "units": 0.0, "incl_s": 0.0, "self_s": 0.0})
        duration = end - start
        entry["calls"] += 1
        entry["units"] += units
        entry["incl_s"] += duration
        entry["self_s"] += duration - child_time.get(span_id, 0.0)
    return out


def merge(*summaries: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    """Add per-process summaries (span ids are only unique per process)."""
    out: dict[str, dict[str, float]] = {}
    for summary in summaries:
        for name, entry in summary.items():
            total = out.setdefault(name, dict.fromkeys(entry, 0.0))
            for key, value in entry.items():
                total[key] += value
    return out


def covered_seconds(spans: list[list], tid: int, lo: float, hi: float) -> float:
    """Wall time of [lo, hi] on thread ``tid`` that at least one span covers."""
    intervals = sorted(
        (max(start, lo), min(end, hi))
        for _id, _parent, _name, span_tid, start, end, _units in spans
        if span_tid == tid and end > lo and start < hi
    )
    total, cursor = 0.0, lo
    for start, end in intervals:
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total

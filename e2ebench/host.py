"""Server launcher: hosts one workload's durable ledger behind the TCP server.

Started by ``run.py`` as its own process::

    python3 e2ebench/host.py --workload ingest-skewed --seed 7 \
        --data-dir DIR --out STATS.json [--trace]

It derives the population from the seed, registers the workload's members,
preloads the ledger (``verify-mix`` only), serves it on an ephemeral port and
prints ``READY <port>``.  Commands arrive one per line on stdin:

* ``begin`` — start of the measured window (resets spans and counters);
* ``stop``  — end of the window: snapshot the window's statistics, drain and
  close the server, close the ledger (checkpointing it), write ``--out``
  and exit.  End of input counts as ``stop``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro import obs  # noqa: E402
from repro.core import Ledger, LedgerConfig  # noqa: E402
from repro.core.ledger import JOURNAL_FILE  # noqa: E402
from repro.net import LedgerServer  # noqa: E402

import tracing  # noqa: E402
from workloads import VERIFY_MIX, ledger_config_kwargs, population_for  # noqa: E402


def build_ledger(workload: str, seed: int, data_dir: str) -> Ledger:
    population = population_for(workload, seed)
    ledger = Ledger(LedgerConfig(data_dir=data_dir, **ledger_config_kwargs()))
    population.register(ledger.registry, population.served_members)
    if workload == VERIFY_MIX.name:
        writers = population.hot_writers()
        requests = population.requests(VERIFY_MIX.preload, "preload", writers=writers)
        for start in range(0, len(requests), 256):
            ledger.append_batch(requests[start : start + 256])
    return ledger


class Window:
    """Counters sampled at ``begin`` and ``stop`` of the measured window."""

    def __init__(self, ledger: Ledger, stream_path: Path) -> None:
        self.ledger = ledger
        self.stream_path = stream_path
        self.start = self.end = time.perf_counter()
        self.cpu_start: dict[int, float] = {}
        self.stats_start: dict = {}
        self.stream_start = 0

    def begin(self) -> None:
        obs.reset()
        self.cpu_start = tracing.thread_cpu()
        self.stats_start = self.ledger.node_store_stats()
        self.stream_start = self.stream_path.stat().st_size
        self.start = time.perf_counter()

    def finish(self) -> dict:
        self.end = time.perf_counter()
        cpu_end = tracing.thread_cpu()
        stats_end = self.ledger.node_store_stats()
        keys = ("cache_hits", "cache_misses", "page_loads", "backend_reads", "bytes_written")
        delta = {key: stats_end[key] - self.stats_start.get(key, 0) for key in keys}
        counters = obs.snapshot().get("counters", {})
        return {
            "window": [self.start, self.end],
            "thread_cpu": {
                str(tid): cpu - self.cpu_start.get(tid, 0.0) for tid, cpu in cpu_end.items()
            },
            "thread_names": {str(k): v for k, v in tracing.thread_names().items()},
            "node_store": delta,
            "stream_bytes": self.stream_path.stat().st_size - self.stream_start,
            "counters": {
                name: value for name, value in counters.items() if name.startswith("ecdsa.")
            },
        }


async def serve(ledger: Ledger, tracer: tracing.Tracer | None, out: str) -> None:
    server = LedgerServer(ledger, host="127.0.0.1", port=0)
    _host, port = await server.start()
    loop = asyncio.get_running_loop()
    commands: asyncio.Queue[str] = asyncio.Queue()

    def read_commands() -> None:
        for line in sys.stdin:
            loop.call_soon_threadsafe(commands.put_nowait, line.strip())
        loop.call_soon_threadsafe(commands.put_nowait, "stop")

    threading.Thread(target=read_commands, name="host-stdin", daemon=True).start()
    window = Window(ledger, Path(ledger.config.data_dir) / JOURNAL_FILE)
    print(f"READY {port}", flush=True)
    while True:
        command = await commands.get()
        if command == "begin":
            if tracer is not None:
                tracer.reset()
                tracer.enabled = True
            window.begin()
            print("OK", flush=True)
        elif command == "stop":
            break
    stats = window.finish()
    if tracer is not None:
        tracer.enabled = False
    await server.close(drain=True)
    ledger.close()
    stats["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.dump(out, stats)
    else:
        with open(out, "w") as handle:
            json.dump(stats, handle)
    print("DONE", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, "server")
    ledger = build_ledger(args.workload, args.seed, args.data_dir)
    asyncio.run(serve(ledger, tracer, args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

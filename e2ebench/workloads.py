"""Workload parameters: the one place they are set.

Each workload also appears, with a one-line reason, in ``BENCHMARK.json``.
Working sets are stated against the program's two caches: the 128-entry
ECDSA key-table cache (``repro.crypto.ecdsa.PUBKEY_CACHE_SIZE``) and the
64-page CM-Tree node cache (``LedgerConfig.cache_pages``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from population import Population, PopulationSpec, LEDGER_URI


@dataclass(frozen=True)
class IngestSkewed:
    # The paper's Append path: hundreds of zipf-active signers (>128 key
    # tables) so crypto admission, group commit and the fsync do the work.
    name: str = "ingest-skewed"
    spec: PopulationSpec = field(default_factory=PopulationSpec)
    connections: int = 2
    inflight_per_connection: int = 32
    #: Requests signed in set-up; the closed loop stops early if it runs out.
    presigned: int = 6000


@dataclass(frozen=True)
class VerifyMix:
    # Light clients: 150 ops/s open loop of anchored journal proofs, clue
    # lineages and hot-key writes over ~6000 journals (~170 node pages > 64
    # cached); 8 writer keys stay inside the 128 key tables.
    name: str = "verify-mix"
    spec: PopulationSpec = field(default_factory=PopulationSpec)
    rate_per_s: float = 150.0
    verify_share: float = 0.8
    clue_share: float = 0.1  # the remaining 0.1 are appends
    preload: int = 6000
    sync_every_s: float = 1.0


@dataclass(frozen=True)
class AuditOffline:
    # The §V auditor and the offline verifier redo every signature and
    # certificate check in bulk: ~250 distinct signers (>128 key tables) over
    # 300 journals, 1,024 certificates, in one process.
    name: str = "audit-offline"
    spec: PopulationSpec = field(default_factory=PopulationSpec)
    journals: int = 300


INGEST = IngestSkewed()
VERIFY_MIX = VerifyMix()
AUDIT = AuditOffline()
WORKLOADS = {w.name: w for w in (INGEST, VERIFY_MIX, AUDIT)}

#: ``run.py --self-test``: a tiny ingest whose failure accounting is checked.
SELF_TEST = IngestSkewed(
    name="self-test",
    spec=PopulationSpec(members=16, clues=64),
    inflight_per_connection=4,
    presigned=40,
)


def ledger_config_kwargs() -> dict:
    """The served ledger: durable paged node store, the server's defaults
    for block size, the library default fam epoch height and page cache."""
    return {"uri": LEDGER_URI, "node_store": "paged", "block_size": 64}


def population_for(workload: str, seed: int) -> Population:
    """The workload's population; ``verify-mix`` certifies only its writers."""
    spec = (SELF_TEST if workload == SELF_TEST.name else WORKLOADS[workload]).spec
    population = Population(seed, spec)
    if workload == VERIFY_MIX.name:
        population.served_members = population.hot_writers()
    return population

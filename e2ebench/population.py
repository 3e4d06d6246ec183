"""Seeded member / clue population shared by every workload.

One generator turns the ``--seed`` argument into everything the program
receives: which members exist and how often each one signs (zipf), which clue
each journal carries (zipf), the payload bytes, and the hot-writer set.  The
server launcher and the load generator build the same :class:`Population`
from the same seed, so keys never travel between processes.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass, replace

from repro.core import ClientRequest
from repro.crypto import KeyPair

#: URI of every ledger the benchmark builds.
LEDGER_URI = "ledger://e2ebench"


@dataclass(frozen=True)
class PopulationSpec:
    """Shape of a population; every workload's parameters live here."""

    members: int = 1024
    member_zipf: float = 1.0
    clues: int = 8192
    clue_zipf: float = 1.0
    payload_bytes: int = 256
    hot_writers: int = 8


class _Zipf:
    """Draw ranks 0..n-1 with weight 1/(rank+1)^s, mapped through a seeded
    permutation so the hottest item differs from seed to seed."""

    def __init__(self, n: int, exponent: float, rng: random.Random) -> None:
        self.order = list(range(n))
        rng.shuffle(self.order)
        self.cumulative = list(
            itertools.accumulate(1.0 / (rank + 1) ** exponent for rank in range(n))
        )

    def draw(self, rng: random.Random) -> int:
        rank = bisect.bisect_left(self.cumulative, rng.random() * self.cumulative[-1])
        return self.order[min(rank, len(self.order) - 1)]

    def hottest(self, count: int) -> list[int]:
        return self.order[:count]


class Population:
    """Members, clues and payloads drawn from one seed."""

    def __init__(self, seed: int, spec: PopulationSpec = PopulationSpec()) -> None:
        self.seed = seed
        self.spec = spec
        self._members = _Zipf(spec.members, spec.member_zipf, self.rng("member-rank"))
        self._clues = _Zipf(spec.clues, spec.clue_zipf, self.rng("clue-rank"))
        self._keys: dict[int, KeyPair] = {}
        #: The members the workload's ledger certifies (default: everyone).
        self.served_members = list(range(spec.members))

    def rng(self, stream: str) -> random.Random:
        """An independent deterministic random stream for one purpose."""
        return random.Random(f"e2ebench:{self.seed}:{stream}")

    # ------------------------------------------------------------- members

    @staticmethod
    def member_id(index: int) -> str:
        return f"m{index:05d}"

    def keypair(self, index: int) -> KeyPair:
        key = self._keys.get(index)
        if key is None:
            key = KeyPair.generate(seed=f"e2ebench:{self.seed}:member:{index}")
            self._keys[index] = key
        return key

    def hot_writers(self) -> list[int]:
        """The ``hot_writers`` most frequent signers of the member zipf."""
        return self._members.hottest(self.spec.hot_writers)

    def register(self, registry, members: list[int]) -> None:
        """Certify ``members`` in a fixed order (CA signatures are
        deterministic, so every process derives identical certificates)."""
        from repro.crypto import Role

        for index in members:
            registry.register(self.member_id(index), Role.USER, self.keypair(index).public)

    # ------------------------------------------------------------ requests

    def clue(self, rng: random.Random) -> str:
        return f"c{self._clues.draw(rng):05d}"

    def _draws(self, count: int, stream: str, writers: list[int] | None):
        rng = self.rng(f"requests:{stream}")
        for i in range(count):
            sender = writers[i % len(writers)] if writers else self._members.draw(rng)
            yield sender, rng.randbytes(self.spec.payload_bytes), self.clue(rng)

    def request_clues(
        self, count: int, stream: str, writers: list[int] | None = None
    ) -> list[str]:
        """The clues :meth:`requests` gives the same stream, without signing."""
        return [clue for _sender, _payload, clue in self._draws(count, stream, writers)]

    def requests(
        self, count: int, stream: str, writers: list[int] | None = None
    ) -> list[ClientRequest]:
        """``count`` signed requests: senders zipf over the population (or
        round-robin over ``writers``), one zipf clue each, seeded payloads.

        Signatures are produced per member with ``KeyPair.sign_batch`` —
        members sign on their own machines, so this is set-up work.
        """
        unsigned: list[tuple[int, ClientRequest]] = []
        for i, (sender, payload, clue) in enumerate(self._draws(count, stream, writers)):
            request = ClientRequest.build(
                LEDGER_URI,
                self.member_id(sender),
                payload,
                clues=(clue,),
                nonce=f"{stream}:{i}".encode(),
                client_timestamp=1.0,
            )
            unsigned.append((sender, request))
        by_sender: dict[int, list[int]] = {}
        for position, (sender, _request) in enumerate(unsigned):
            by_sender.setdefault(sender, []).append(position)
        signed: list[ClientRequest | None] = [None] * count
        for sender, positions in by_sender.items():
            digests = [unsigned[p][1].request_hash() for p in positions]
            for position, signature in zip(
                positions, self.keypair(sender).sign_batch(digests)
            ):
                signed[position] = replace(unsigned[position][1], signature=signature)
        return signed  # type: ignore[return-value]

"""Differential suite for the one verification kernel.

Two pairs of callers must reach identical verdicts on identical evidence:

* (a) the in-process :class:`~repro.core.client.LedgerClient` and the
  over-the-wire :class:`~repro.net.client.RemoteLedgerClient` — same
  scripted histories on two byte-identical ledgers, same anchor state, same
  verdicts, and the same :class:`VerificationFailure` message on every
  anchor-sync failure branch;
* (b) the per-journal :class:`~repro.core.verification.DaseinVerifier` and
  the standalone :func:`~repro.export.verifier.verify_bundle` — the
  conjunction of Dasein's *when* / *who* verdicts equals the bundle's, on an
  honest ledger and on each tampering.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import Ledger, LedgerConfig
from repro.core.client import LedgerClient
from repro.core.errors import VerificationFailure
from repro.core.journal import ClientRequest, JournalType
from repro.core.verification import DaseinVerifier
from repro.crypto import KeyPair, Role
from repro.export.bundle import export_bundle
from repro.export.verifier import verify_bundle
from repro.net import RemoteLedgerClient, ServerThread
from repro.timeauth import SimClock, TimeStampAuthority

SRC = str(Path(__file__).resolve().parent.parent / "src")
URI = "ledger://kernel-diff"
MEMBER = "alice"
GARBAGE = b"\x5a" * 32


# ------------------------------------------------- (a) local vs remote client


def _ledger() -> tuple[Ledger, KeyPair]:
    ledger = Ledger(LedgerConfig(uri=URI, fractal_height=3, block_size=4), clock=SimClock())
    keypair = KeyPair.generate(seed="kernel-diff:alice")
    ledger.registry.register(MEMBER, Role.USER, keypair.public)
    return ledger, keypair


class _Remote:
    """A remote client that signs exactly the requests LedgerClient would,
    so both ledgers stay byte-identical."""

    def __init__(self, client: RemoteLedgerClient, ledger: Ledger, keypair: KeyPair):
        self.client = client
        self.ledger = ledger
        self.keypair = keypair
        self.nonce = 0

    def _request(self, payload: bytes, clues: tuple[str, ...]) -> ClientRequest:
        self.nonce += 1
        return ClientRequest.build(
            URI,
            MEMBER,
            payload,
            clues=clues,
            nonce=self.nonce.to_bytes(8, "big"),
            client_timestamp=self.ledger.clock.now(),
        ).signed_by(self.keypair)

    def append(self, payload: bytes, clues: tuple[str, ...]) -> None:
        self.client.append(request=self._request(payload, clues))

    def append_batch(self, items: list[tuple[bytes, tuple[str, ...]]]) -> None:
        requests = [self._request(payload, clues) for payload, clues in items]
        self.client.append_batch(requests=requests)


@contextlib.contextmanager
def client_pair():
    """(local client, local ledger, remote wrapper, served ledger)."""
    local_ledger, keypair = _ledger()
    served_ledger, _ = _ledger()
    local = LedgerClient(MEMBER, keypair, local_ledger)
    with ServerThread(served_ledger) as served:
        host, port = served.address
        client = RemoteLedgerClient(
            host,
            port,
            member_id=MEMBER,
            keypair=keypair,
            expected_lsp_key=served_ledger.registry.public_key("__lsp__"),
        )
        try:
            yield local, local_ledger, _Remote(client, served_ledger, keypair), served_ledger
        finally:
            client.close()


def _items(step: int, count: int, clue_count: int) -> list[tuple[bytes, tuple[str, ...]]]:
    return [
        (b"step %d item %d" % (step, index), (f"C{(step + index) % clue_count}",))
        for index in range(count)
    ]


def _assert_same_state(local: LedgerClient, remote: RemoteLedgerClient) -> None:
    assert local.state == remote.state
    assert local.anchors.items() == remote.anchors.items()


STEPS = st.lists(
    st.one_of(st.just(0), st.integers(min_value=1, max_value=5)),
    min_size=4,
    max_size=14,
)


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(steps=STEPS)
def test_local_and_remote_clients_agree(steps):
    """Scripted appends spilling over several epochs, syncs where hypothesis
    puts them (0 = sync): equal ClientState, anchors and verdicts."""
    clues = 3
    with client_pair() as (local, local_ledger, remote, served_ledger):
        for index, step in enumerate(steps):
            if step == 0:
                assert local.sync_anchors() == remote.client.sync_anchors()
                _assert_same_state(local, remote.client)
                continue
            items = _items(index, step, clues)
            if step == 1:
                local.append(*items[0])
                remote.append(*items[0])
            else:
                local.append_batch(items)
                remote.append_batch(items)
        assert local_ledger.current_root() == served_ledger.current_root()
        assert local.sync_anchors() == remote.client.sync_anchors()
        _assert_same_state(local, remote.client)

        for jsn in range(local_ledger.size):
            journal = local_ledger.get_journal(jsn)
            assert remote.client.get_journal(jsn) == journal
            assert local.verify_journal(journal) is True
            assert remote.client.verify_journal(journal) is True
            forged = dataclasses.replace(journal, payload=b"forged " + journal.payload)
            assert local.verify_journal(forged) is False
            assert remote.client.verify_journal(forged) is False
        for clue in [f"C{index}" for index in range(clues)] + ["absent"]:
            assert local.verify_clue(clue) == remote.client.verify_clue(clue)


def test_forged_lineage_fails_on_both_transports(monkeypatch):
    with client_pair() as (local, local_ledger, remote, served_ledger):
        items = _items(0, 6, 1)
        local.append_batch(items)
        remote.append_batch(items)
        assert local.verify_clue("C0") and remote.client.verify_clue("C0")
        for ledger in (local_ledger, served_ledger):
            real = ledger.get_journal

            def forged(jsn, real=real):
                journal = real(jsn)
                if jsn == 2:
                    return dataclasses.replace(journal, payload=b"rewritten")
                return journal

            monkeypatch.setattr(ledger, "get_journal", forged)
        assert local.verify_clue("C0") is False
        assert remote.client.verify_clue("C0") is False


# -------------------------------------- anchor-sync failure branches, both ways


def _append(side, count: int, tag: str) -> None:
    items = [(b"%s %d" % (tag.encode(), index), ()) for index in range(count)]
    side.append_batch(items)


def _append_until_epochs(side, ledger: Ledger, num_epochs: int) -> None:
    counter = 0
    while ledger._fam.num_epochs < num_epochs:
        side.append(b"fill %d" % counter, ())
        counter += 1


def _client(side):
    return side.client if isinstance(side, _Remote) else side


def _sync(side) -> int:
    return _client(side).sync_anchors()


def _patch_epoch_root(monkeypatch, ledger: Ledger, epoch: int, root: bytes) -> None:
    real = ledger._fam.epoch_root
    monkeypatch.setattr(
        ledger._fam, "epoch_root", lambda index: root if index == epoch else real(index)
    )


def _bootstrap_mismatch(monkeypatch, side, ledger):
    _append_until_epochs(side, ledger, 2)
    _patch_epoch_root(monkeypatch, ledger, 0, GARBAGE)
    _sync(side)


def _bad_link(monkeypatch, side, ledger):
    _append_until_epochs(side, ledger, 3)
    _patch_epoch_root(monkeypatch, ledger, 1, GARBAGE)
    _sync(side)


def _changed_without_appends(monkeypatch, side, ledger):
    _append(side, 3, "a")
    _sync(side)
    _client(side).state.live_root = GARBAGE
    _sync(side)


def _not_append_only(monkeypatch, side, ledger):
    _append(side, 2, "a")
    _sync(side)
    _client(side).state.live_root = GARBAGE
    _append(side, 1, "b")
    _sync(side)


def _shrank(monkeypatch, side, ledger):
    _append(side, 3, "a")
    _sync(side)
    _client(side).state.live_size += 1
    _sync(side)


def _sealed_does_not_extend(monkeypatch, side, ledger):
    _append_until_epochs(side, ledger, 2)
    _append(side, 2, "a")
    _sync(side)
    _client(side).state.live_root = GARBAGE
    _append_until_epochs(side, ledger, 3)
    _sync(side)


def _sealed_disagrees_with_anchor(monkeypatch, side, ledger):
    _append_until_epochs(side, ledger, 2)
    _append(side, 2, "a")
    _sync(side)
    client = _client(side)
    client.anchors.add(1, GARBAGE)
    client.state.anchored_epochs = 2
    _append_until_epochs(side, ledger, 3)
    _sync(side)


FAILURES = [
    (_bootstrap_mismatch, "epoch 0 bootstrap verification failed"),
    (_bad_link, "merged-leaf link for epoch 1 failed"),
    (_changed_without_appends, "live commitment changed without appends"),
    (_not_append_only, "live epoch evolved non-append-only (history rewritten?)"),
    (_shrank, "live epoch shrank"),
    (
        _sealed_does_not_extend,
        "sealed epoch 1 does not extend the state this client verified",
    ),
    (_sealed_disagrees_with_anchor, "sealed epoch 1 root disagrees with anchor"),
]


@pytest.mark.parametrize(
    "scenario, message", FAILURES, ids=[scenario.__name__ for scenario, _ in FAILURES]
)
def test_sync_failure_branches_match(monkeypatch, scenario, message):
    with client_pair() as (local, local_ledger, remote, served_ledger):
        messages = []
        for side, ledger in ((local, local_ledger), (remote, served_ledger)):
            with monkeypatch.context() as patch:
                with pytest.raises(VerificationFailure) as excinfo:
                    scenario(patch, side, ledger)
            messages.append(str(excinfo.value))
        assert messages == [message, message]


# ---------------------------------------- (b) Dasein verifier vs bundle verifier


class _ForgingTSA(TimeStampAuthority):
    """Signs one timestamp, reports another: every token it issues is forged."""

    def stamp(self, digest):
        token = super().stamp(digest)
        return dataclasses.replace(token, timestamp=token.timestamp + 1000.0)


def _deployment(tsa_cls=TimeStampAuthority, trailing_anchor=True, forged_member=False):
    clock = SimClock()
    tsa = tsa_cls("diff-tsa", clock)
    ledger = Ledger(
        LedgerConfig(
            uri="ledger://kernel-dasein",
            fractal_height=3,
            block_size=4,
            require_client_signature=not forged_member,
        ),
        clock=clock,
    )
    ledger.attach_tsa(tsa)
    user = KeyPair.generate(seed="dasein-diff:user")
    ledger.registry.register("user", Role.USER, user.public)
    wrong = KeyPair.generate(seed="dasein-diff:not-the-user")
    for index in range(14):
        keypair = wrong if forged_member and index == 5 else user
        request = ClientRequest.build(
            ledger.config.uri,
            "user",
            b"dasein %d" % index,
            clues=(f"D{index % 2}",),
            nonce=index.to_bytes(8, "big"),
            client_timestamp=clock.now(),
        ).signed_by(keypair)
        ledger.append(request)
        clock.advance(0.5)
        if index % 5 == 4:
            ledger.anchor_time()
    if trailing_anchor:
        ledger.anchor_time()
    else:
        ledger.anchor_time()
        for index in range(2):
            request = ClientRequest.build(
                ledger.config.uri,
                "user",
                b"after the last anchor %d" % index,
                nonce=(100 + index).to_bytes(8, "big"),
                client_timestamp=clock.now(),
            ).signed_by(user)
            ledger.append(request)
    ledger.commit_block()
    return ledger, {"diff-tsa": tsa.public_key}


def _dasein_factors(view, tsa_keys, receipts):
    verifier = DaseinVerifier(view, tsa_keys=tsa_keys)
    journals = [verifier.journal_at(entry.jsn) for entry in view.entries]
    journals = [journal for journal in journals if journal is not None]
    when = all(
        verifier.verify_when(journal.jsn)[1]
        for journal in journals
        if journal.journal_type is not JournalType.TIME
    )
    who = all(verifier.verify_who(journal, receipts.get(journal.jsn)) for journal in journals)
    return when, who


def _compare(ledger, tsa_keys, view=None, bundle=None):
    view = view if view is not None else ledger.export_view()
    bundle = bundle if bundle is not None else export_bundle(ledger)
    held = {ledger.latest_receipt.jsn: view.latest_receipt}
    when, who = _dasein_factors(view, tsa_keys, held)
    result = verify_bundle(bundle, tsa_keys=tsa_keys)
    assert (when, who) == (result.when, result.who), result.detail
    return when, who


def test_honest_ledger_agrees():
    ledger, tsa_keys = _deployment()
    assert _compare(ledger, tsa_keys) == (True, True)


def test_forged_tsa_token_agrees():
    ledger, tsa_keys = _deployment(tsa_cls=_ForgingTSA)
    assert _compare(ledger, tsa_keys) == (False, True)


def test_unknown_tsa_key_agrees():
    ledger, _tsa_keys = _deployment()
    stranger = {"other-tsa": KeyPair.generate(seed="dasein-diff:stranger").public}
    assert _compare(ledger, stranger) == (False, True)


def test_journal_past_last_anchor_agrees():
    ledger, tsa_keys = _deployment(trailing_anchor=False)
    assert _compare(ledger, tsa_keys) == (False, True)


def test_forged_client_signature_agrees():
    ledger, tsa_keys = _deployment(forged_member=True)
    assert _compare(ledger, tsa_keys) == (True, False)


def test_receipt_for_another_jsn_agrees():
    ledger, tsa_keys = _deployment()
    genuine = ledger.latest_receipt
    forged = dataclasses.replace(genuine, jsn=genuine.jsn + 7, lsp_signature=None)
    forged = forged.signed_by(ledger._lsp_keypair)
    view = dataclasses.replace(ledger.export_view(), latest_receipt=forged)
    bundle = export_bundle(ledger)
    section = dataclasses.replace(bundle.shards[0], latest_receipt=forged.to_bytes())
    bundle = dataclasses.replace(bundle, shards=(section,))
    assert _compare(ledger, tsa_keys, view=view, bundle=bundle) == (True, False)


# ------------------------------------------------------- kernel import rule


_KERNEL_ONLY = """\
import json, sys
sys.path.insert(0, {src!r})
from repro.core.verification import (
    ClientState, check_time_evidence, sync_anchors, time_bracket, verify_anchored,
)
from repro.crypto.hashing import leaf_hash
from repro.merkle.fam import AnchorStore, FamAccumulator
from repro.timeauth.clock import SimClock
from repro.timeauth.tsa import TimeStampAuthority

fam = FamAccumulator(2)
digests = [leaf_hash(b"kernel %d" % jsn) for jsn in range(11)]
for digest in digests:
    fam.append(digest)
state, anchors = ClientState(), AnchorStore()
added = sync_anchors(state, anchors, fam)
folds = [
    verify_anchored(digest, fam.get_proof(jsn, anchored=True), anchors, state.live_root)
    for jsn, digest in enumerate(digests)
]
forged = verify_anchored(leaf_hash(b"forged"), fam.get_proof(3), anchors, state.live_root)

tsa = TimeStampAuthority("kernel-tsa", SimClock(5.0))
token = tsa.stamp(fam.current_root())
info = {{
    "mode": "tsa", "anchored_root": token.digest, "timestamp": token.timestamp,
    "tsa_id": token.tsa_id, "signature": token.signature.to_bytes(),
}}
timestamp, valid = check_time_evidence(info, None, {{"kernel-tsa": tsa.public_key}})
bound, bracketed = time_bracket([(11, timestamp, valid)], 4)
banned = sorted(
    name for name in sys.modules
    if name in ("repro.core.ledger", "repro.service", "repro.net")
    or name.startswith(("repro.service.", "repro.net."))
)
print(json.dumps({{
    "added": added, "folds": folds, "forged": forged, "valid": valid,
    "upper": bound.upper, "bracketed": bracketed, "banned": banned,
}}))
"""


def test_kernel_imports_no_ledger_service_or_net():
    """A fresh interpreter runs the kernel's fold and time checks without
    loading the ledger, the service layer or the network stack."""
    proc = subprocess.run(
        [sys.executable, "-c", _KERNEL_ONLY.format(src=SRC)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    report = json.loads(proc.stdout)
    assert report["banned"] == []
    assert report["added"] == 3
    assert report["folds"] == [True] * 11 and report["forged"] is False
    assert report["valid"] is True and report["bracketed"] is True
    assert report["upper"] == 5.0

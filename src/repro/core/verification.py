"""The verification kernel (§III): what, when, who — for every verifier.

The *Dasein* of a journal is verified along three axes:

* **what** — the journal exists verbatim on the ledger: a fam existence
  proof against a trusted commitment (an epoch anchor, the LSP-signed
  ``ledger_root`` in a receipt the client holds externally, or a
  TSA-anchored root);
* **when** — the journal was produced inside a verified time window: the
  time journals bracketing its jsn, each carrying TSA-signed evidence,
  bound its creation time from both sides;
* **who** — the journal's issuer cannot repudiate it: the client signature
  pi_c checks against the CA-certified member key, and the LSP's receipt
  pi_s convicts the LSP of having committed it.

Every verifier in the repository — the in-process and remote clients, both
sessions, :class:`DaseinVerifier`, the ledger's own ``verify_*`` methods,
the audit workers and the offline bundle verifier — runs these checks
through the plain functions here, over journals, proofs, receipts, tokens
and keys.  Callers only fetch the data.

Import rule: this module never imports ``repro.core.ledger``,
``repro.service`` or ``repro.net`` (a subprocess test enforces it), so an
offline verifier can load it without any server code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Protocol, Sequence

from .. import obs
from ..artifacts import DaseinReport, VerifyLevel, VerifyResult, VerifyTarget
from ..crypto.ecdsa import Signature
from ..crypto.hashing import Digest
from ..crypto.keys import PublicKey
from ..encoding import decode
from ..merkle.fam import AnchorStore, FamAccumulator, FamProof
from ..merkle.shrubs import FrontierAccumulator
from ..timeauth.pegging import TimeBound
from ..timeauth.tledger import TimeEvidence
from ..timeauth.tsa import TimeStampToken
from .errors import VerificationFailure
from .journal import ClientRequest, Journal, JournalType
from .receipt import Receipt

if TYPE_CHECKING:
    from ..merkle.cmtree import ClueProof
    from ..merkle.consistency import ConsistencyProof
    from ..merkle.proofs import MembershipProof
    from .ledger import LedgerView

__all__ = [
    "AnchorSource",
    "ClientState",
    "DaseinReport",
    "DaseinVerifier",
    "VerifyLevel",
    "VerifyResult",
    "VerifyTarget",
    "check_time_evidence",
    "lineage_digests",
    "parse_time_journal",
    "receipt_problem",
    "sync_anchors",
    "time_bracket",
    "time_marks",
    "tsa_token",
    "verify_anchored",
    "verify_lineage",
]


# ------------------------------------------------------------------- when


def parse_time_journal(journal: Journal) -> dict:
    """Decode a time journal's payload (mode, anchored root, as-of jsn, ...)."""
    if journal.journal_type is not JournalType.TIME:
        raise ValueError(f"journal {journal.jsn} is not a time journal")
    obj = decode(journal.payload)
    obj["anchored_root"] = bytes(obj["anchored_root"])
    return obj


def tsa_token(info: dict) -> TimeStampToken:
    """Rebuild the TSA token a "tsa"-mode time journal carries in its payload."""
    return TimeStampToken(
        digest=bytes(info["anchored_root"]),
        timestamp=info["timestamp"],
        tsa_id=info["tsa_id"],
        signature=Signature.from_bytes(bytes(info["signature"])),
    )


def check_time_evidence(
    info: dict,
    evidence: TimeEvidence | TimeStampToken | None,
    tsa_keys: Mapping[str, PublicKey],
) -> tuple[float, bool]:
    """Validate one time journal's authority evidence: (timestamp, valid).

    ``info`` is a :func:`parse_time_journal` payload.  "tsa" mode
    reconstructs the timestamp token from the journal itself; "tledger" mode
    checks the supplied cross-ledger evidence.  Stateless on purpose — the
    audit engine's worker pool calls it from forked processes.
    """
    mode = info.get("mode")
    if mode == "tsa":
        token = tsa_token(info)
        key = tsa_keys.get(token.tsa_id)
        return token.timestamp, key is not None and token.verify(key)
    if mode == "tledger":
        if not isinstance(evidence, TimeEvidence):
            return 0.0, False
        if evidence.entry.digest != info["anchored_root"]:
            return 0.0, False
        if not evidence.verify(tsa_keys):
            return 0.0, False
        return evidence.finalization.token.timestamp, True
    return 0.0, False


def time_marks(
    journals: Iterable[Journal],
    evidence: Mapping[int, TimeEvidence | TimeStampToken],
    tsa_keys: Mapping[str, PublicKey],
) -> list[tuple[int, float, bool]]:
    """``(jsn, timestamp, evidence_valid)`` per time journal, in input order."""
    marks = []
    for journal in journals:
        if journal.journal_type is JournalType.TIME:
            info = parse_time_journal(journal)
            timestamp, valid = check_time_evidence(info, evidence.get(journal.jsn), tsa_keys)
            marks.append((journal.jsn, timestamp, valid))
    return marks


def time_bracket(
    marks: Sequence[tuple[int, float, bool]], jsn: int
) -> tuple[TimeBound | None, bool]:
    """Bracket ``jsn`` between the verified time marks around it.

    ``marks`` come from :func:`time_marks`, sorted by jsn.  Returns
    ``(bound, valid)``: ``valid`` is False when the ceiling mark's evidence
    fails to verify, or when no ceiling exists yet (``bound`` is then None:
    the journal's existence has no credible upper bound).
    """
    lower = float("-inf")
    upper = float("inf")
    valid = True
    for time_jsn, timestamp, evidence_ok in marks:
        if time_jsn < jsn:
            if evidence_ok:
                lower = max(lower, timestamp)
        elif time_jsn > jsn:
            valid = evidence_ok
            upper = min(upper, timestamp)
            break  # first covering anchor is the tight one
    if upper == float("inf"):
        return None, False
    return TimeBound(lower=lower, upper=upper), valid


# ------------------------------------------------------------------- what


def verify_anchored(
    leaf_digest: Digest,
    proof: FamProof,
    anchors: AnchorStore,
    live_root: Digest | None,
    live_epoch: int | None = None,
) -> bool:
    """fam-aoa existence: fold an anchored proof in O(delta).

    A journal in the live epoch (``live_epoch``, by default the last epoch
    the proof names) must fold to ``live_root``; one in a completed epoch to
    that epoch's anchor.  A missing anchor or live root is ``False``, never
    a fallback to full-chain verification.  Never raises.
    """
    if live_epoch is None:
        live_epoch = proof.num_epochs - 1
    if proof.epoch_index == live_epoch:
        expected = live_root
    else:
        expected = anchors.get(proof.epoch_index)
    if expected is None:
        return False
    try:
        return proof.epoch_proof.computed_root(leaf_digest) == expected
    except (ValueError, IndexError):
        return False


def lineage_digests(journals: Sequence[Journal]) -> dict[int, Digest]:
    """Version -> tx-hash: the positional digests a clue proof folds."""
    return {version: journal.tx_hash() for version, journal in enumerate(journals)}


def verify_lineage(journals: Sequence[Journal], proof: ClueProof, root: Digest) -> bool:
    """N-lineage: ``journals`` are clue versions 0..n-1, folded to ``root``."""
    return proof.verify(lineage_digests(journals), root)


# ------------------------------------------------------------ anchor sync


@dataclass
class ClientState:
    """What a verifying client persists between sessions."""

    receipts: dict[int, Receipt] = field(default_factory=dict)
    anchored_epochs: int = 0  # epochs with verified anchors
    live_epoch_index: int = 0  # epoch the live state below belongs to
    live_size: int = 0  # last verified live-epoch leaf count
    live_root: Digest | None = None  # last verified live commitment


class AnchorSource(Protocol):
    """The fam reads anchor sync needs; every answer is an untrusted claim.

    A :class:`~repro.merkle.fam.FamAccumulator` is one directly; the remote
    client adapts its wire calls to the same names.
    """

    def live_state(self) -> tuple[int, int, Digest]: ...

    def epoch_root(self, epoch_index: int) -> Digest: ...

    def epoch_zero_leaves(self) -> list[Digest]: ...

    def prove_epoch_link(self, epoch_index: int) -> MembershipProof: ...

    def prove_live_consistency(self, old_live_size: int) -> ConsistencyProof: ...

    def prove_epoch_consistency(self, epoch_index: int, old_size: int) -> ConsistencyProof: ...


def sync_anchors(state: ClientState, anchors: AnchorStore, source: AnchorSource) -> int:
    """Advance a client's trusted anchors to the source's current state.

    Epoch 0's anchor is bootstrapped by replaying its raw leaf digests;
    every later epoch advances via an O(delta) merged-leaf link proof; the
    live epoch via a consistency proof from the last verified live size.
    Returns how many new epoch anchors were added.

    Raises :class:`VerificationFailure` the moment any link fails — nothing
    unverified is ever anchored.
    """
    num_epochs, live_size, live_root = source.live_state()
    added = 0
    while state.anchored_epochs < num_epochs - 1:
        epoch = state.anchored_epochs
        claimed_root = source.epoch_root(epoch)
        if epoch == 0:
            frontier = FrontierAccumulator()
            for leaf in source.epoch_zero_leaves():
                frontier.append_leaf(leaf)
            if frontier.root() != claimed_root:
                raise VerificationFailure("epoch 0 bootstrap verification failed")
            anchors.add(0, claimed_root)
        elif not anchors.advance(epoch, claimed_root, source.prove_epoch_link(epoch)):
            raise VerificationFailure(f"merged-leaf link for epoch {epoch} failed")
        state.anchored_epochs += 1
        added += 1
    _sync_live(state, anchors, source, num_epochs - 1, live_size, live_root)
    return added


def _sync_live(
    state: ClientState,
    anchors: AnchorStore,
    source: AnchorSource,
    current_epoch: int,
    live_size: int,
    live_root: Digest,
) -> None:
    if state.live_root is not None and state.live_size > 0:
        if state.live_epoch_index == current_epoch:
            # Same epoch: its evolution must be append-only.
            if state.live_size == live_size:
                if live_root != state.live_root:
                    raise VerificationFailure("live commitment changed without appends")
            elif state.live_size < live_size:
                proof = source.prove_live_consistency(state.live_size)
                if not proof.verify(state.live_root, live_root):
                    raise VerificationFailure(
                        "live epoch evolved non-append-only (history rewritten?)"
                    )
            else:
                raise VerificationFailure("live epoch shrank")
        else:
            # Our epoch has been sealed since we last looked: its final root
            # must extend the state we verified, and must equal the anchor
            # the epoch loop just validated for it.
            sealed_epoch = state.live_epoch_index
            sealed_root = source.epoch_root(sealed_epoch)
            proof = source.prove_epoch_consistency(sealed_epoch, state.live_size)
            if not proof.verify(state.live_root, sealed_root):
                raise VerificationFailure(
                    f"sealed epoch {sealed_epoch} does not extend the "
                    "state this client verified"
                )
            anchor = anchors.get(sealed_epoch)
            if anchor is not None and anchor != sealed_root:
                raise VerificationFailure(
                    f"sealed epoch {sealed_epoch} root disagrees with anchor"
                )
    state.live_epoch_index = current_epoch
    state.live_size = live_size
    state.live_root = live_root


# -------------------------------------------------------------------- who


def receipt_problem(receipt: Receipt, request: ClientRequest, signature_ok: bool) -> str | None:
    """Why ``receipt`` cannot be accepted for ``request``; None when it can.

    ``signature_ok`` is the caller's verdict on the LSP signature, so a
    client may check many receipts in one batch first.
    """
    if not signature_ok:
        return "LSP receipt signature invalid"
    if receipt.request_hash != request.request_hash():
        return "receipt does not cover the submitted request"
    return None


# --------------------------------------------------------- DaseinVerifier


class DaseinVerifier:
    """Client-side 3w verifier over an exported ledger view.

    Runs entirely from the view plus out-of-band trust anchors, so it makes
    no calls back into the — potentially malicious — LSP.  ``tsa_keys`` maps
    TSA ids to their public keys (obtained from the authorities directly,
    never from the LSP).  The trusted *what* datum is the LSP-signed
    ``ledger_root`` of the latest receipt by default; pass ``trusted_root``
    to use a different externally-validated commitment.
    """

    def __init__(
        self,
        view: LedgerView,
        tsa_keys: dict[str, PublicKey] | None = None,
        trusted_root: Digest | None = None,
    ) -> None:
        self.view = view
        self.tsa_keys = dict(tsa_keys or {})
        if trusted_root is None:
            if view.latest_receipt is None:
                raise ValueError("view has no receipt; pass trusted_root explicitly")
            trusted_root = view.latest_receipt.ledger_root
        self.trusted_root = trusted_root
        self._time_cache: list[tuple[int, float, bool]] | None = None

    # ----------------------------------------------------------------- what

    def journal_at(self, jsn: int) -> Journal | None:
        """Decode the journal at ``jsn`` from the view (None if mutated away)."""
        entry = self.view.entry(jsn)
        if entry.data is None:
            return None
        return Journal.from_bytes(entry.data)

    def verify_what(self, journal: Journal, proof: FamProof) -> bool:
        """Existence: fold the journal through fam to the trusted commitment.

        The proof must be a full-chain (non-anchored) proof, since a
        distrusting client verifies against one externally-trusted root.
        """
        with obs.span("dasein.what"):
            return FamAccumulator.verify_full(journal.tx_hash(), proof, self.trusted_root)

    def verify_what_digest(self, retained_hash: Digest, proof: FamProof) -> bool:
        """Used-to-exist: verify a mutated journal by its retained digest."""
        return FamAccumulator.verify_full(retained_hash, proof, self.trusted_root)

    # ----------------------------------------------------------------- when

    def _time_journals(self) -> list[tuple[int, float, bool]]:
        """(jsn, upper-bound timestamp, evidence_valid) per time journal."""
        if self._time_cache is None:
            journals = (
                Journal.from_bytes(entry.data)
                for entry in self.view.entries
                if entry.data is not None
            )
            self._time_cache = time_marks(journals, self.view.time_evidence, self.tsa_keys)
        return self._time_cache

    def verify_when(self, jsn: int) -> tuple[TimeBound | None, bool]:
        """Bracket ``jsn`` between verified time journals (:func:`time_bracket`)."""
        with obs.span("dasein.when"):
            return time_bracket(self._time_journals(), jsn)

    # ------------------------------------------------------------------ who

    def verify_who(self, journal: Journal, receipt: Receipt | None = None) -> bool:
        """Non-repudiation: pi_c against the member's certificate, and — when a
        receipt is presented — pi_s against the LSP's certificate."""
        with obs.span("dasein.who"):
            certificate = self.view.certificates.get(journal.client_id)
            if certificate is None or not certificate.verify(self.view.ca_public_key):
                return False
            if journal.client_signature is None:
                return False
            if not certificate.public_key.verify(
                journal.request_hash, journal.client_signature
            ):
                return False
            if receipt is not None:
                lsp_cert = self.view.certificates.get(self.view.lsp_member_id)
                if lsp_cert is None or not lsp_cert.verify(self.view.ca_public_key):
                    return False
                if not receipt.verify(lsp_cert.public_key):
                    return False
                # The receipt must be *this* journal's receipt: a genuine LSP
                # signature over some other jsn proves nothing about this
                # journal, so a jsn mismatch is a failure, not a skip.
                if receipt.jsn != journal.jsn:
                    return False
                if receipt.tx_hash != journal.tx_hash():
                    return False
            return True

    # --------------------------------------------------------------- dasein

    def verify_dasein(
        self,
        jsn: int,
        proof: FamProof,
        receipt: Receipt | None = None,
    ) -> DaseinReport:
        """Full 3w verification of one journal (Definition 1, per-journal)."""
        with obs.span("dasein.verify"):
            journal = self.journal_at(jsn)
            if journal is None:
                entry = self.view.entry(jsn)
                what = self.verify_what_digest(entry.retained_hash, proof)
                when_bound, when_valid = self.verify_when(jsn)
                return DaseinReport(
                    jsn=jsn, what=what, when_valid=when_valid, when_bound=when_bound,
                    who=False,  # the signature went with the payload
                )
            what = self.verify_what(journal, proof)
            when_bound, when_valid = self.verify_when(jsn)
            who = self.verify_who(journal, receipt)
            return DaseinReport(
                jsn=jsn, what=what, when_valid=when_valid, when_bound=when_bound, who=who
            )

"""LedgerClient — the client-side SDK of a *distrusting* ledger member.

A :class:`LedgerClient` is what a real participant runs against an untrusted
LSP.  It keeps, entirely on the client side:

* the member's key pair (requests are signed locally — pi_c never needs the
  key to leave the client);
* every receipt the LSP returned (pi_s — the evidence that convicts a
  repudiating LSP, held *externally* as §III-C requires);
* a trusted-anchor store (fam-aoa) advanced via merged-leaf link proofs and
  live-epoch consistency proofs, so existence verification costs O(delta)
  without ever re-trusting the server;
* the out-of-band trust material (CA and TSA public keys).

The client talks to the :class:`~repro.core.ledger.Ledger` through its
public API only; nothing here reads server-private state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto.hashing import Digest
from ..crypto.keys import KeyPair, PublicKey
from ..merkle.fam import AnchorStore, FamAccumulator
from .errors import LedgerError, VerificationFailure
from .journal import ClientRequest, Journal
from .ledger import LSP_MEMBER_ID, Ledger
from .receipt import Receipt
from .verification import DaseinReport, DaseinVerifier

__all__ = ["LedgerClient", "ClientState"]


@dataclass
class ClientState:
    """What the client persists between sessions."""

    receipts: dict[int, Receipt] = field(default_factory=dict)
    anchored_epochs: int = 0  # epochs with verified anchors
    live_epoch_index: int = 0  # epoch the live state below belongs to
    live_size: int = 0  # last verified live-epoch leaf count
    live_root: Digest | None = None  # last verified live commitment


class LedgerClient:
    """A ledger member's local agent."""

    def __init__(
        self,
        member_id: str,
        keypair: KeyPair,
        ledger: Ledger,
        tsa_keys: dict[str, PublicKey] | None = None,
    ) -> None:
        self.member_id = member_id
        self.keypair = keypair
        self.ledger = ledger
        self.tsa_keys = dict(tsa_keys or {})
        self.anchors = AnchorStore()
        self.state = ClientState()
        self._nonce = 0

    # ---------------------------------------------------------------- append

    def append(self, payload: bytes, clues: tuple[str, ...] = ()) -> Receipt:
        """Sign and submit a transaction; validate and store the receipt.

        The receipt check is the client's immediate defence: the LSP's
        signature must verify and the receipt must echo this exact request.
        """
        self._nonce += 1
        request = ClientRequest.build(
            self.ledger.config.uri,
            self.member_id,
            payload,
            clues=clues,
            nonce=self._nonce.to_bytes(8, "big"),
            client_timestamp=self.ledger.clock.now(),
        ).signed_by(self.keypair)
        receipt = self.ledger.append(request)
        lsp_certificate = self.ledger.registry.certificate(LSP_MEMBER_ID)
        if not receipt.verify(lsp_certificate.public_key):
            raise VerificationFailure("LSP receipt signature invalid")
        if receipt.request_hash != request.request_hash():
            raise VerificationFailure("receipt does not cover the submitted request")
        self.state.receipts[receipt.jsn] = receipt
        return receipt

    def append_batch(
        self,
        items: list[tuple[bytes, tuple[str, ...]]],
    ) -> list[Receipt]:
        """Sign and submit many ``(payload, clues)`` transactions at once.

        Signs every request locally, submits through the server's amortised
        :meth:`~repro.core.ledger.Ledger.append_batch`, then applies the same
        per-receipt defence as :meth:`append`.  Admission is atomic: on
        rejection no receipts are issued and the local nonce is unwound.
        """
        if not items:
            return []
        first_nonce = self._nonce
        requests = []
        for payload, clues in items:
            self._nonce += 1
            requests.append(
                ClientRequest.build(
                    self.ledger.config.uri,
                    self.member_id,
                    payload,
                    clues=tuple(clues),
                    nonce=self._nonce.to_bytes(8, "big"),
                    client_timestamp=self.ledger.clock.now(),
                ).signed_by(self.keypair)
            )
        try:
            receipts = self.ledger.append_batch(requests)
        except Exception:
            self._nonce = first_nonce
            raise
        lsp_certificate = self.ledger.registry.certificate(LSP_MEMBER_ID)
        for request, receipt in zip(requests, receipts):
            if not receipt.verify(lsp_certificate.public_key):
                raise VerificationFailure("LSP receipt signature invalid")
            if receipt.request_hash != request.request_hash():
                raise VerificationFailure("receipt does not cover the submitted request")
            self.state.receipts[receipt.jsn] = receipt
        return receipts

    def receipt_for(self, jsn: int) -> Receipt | None:
        return self.state.receipts.get(jsn)

    # --------------------------------------------------------------- anchors

    def sync_anchors(self) -> int:
        """Advance the trusted-anchor store to the server's current state.

        Epoch 0's anchor is bootstrapped by full verification (downloading
        and replaying the epoch's digests); every later epoch advances via
        an O(delta) merged-leaf link proof; the live epoch via a consistency
        proof from the last verified live size.  Returns how many new epoch
        anchors were added.

        Raises :class:`VerificationFailure` the moment any link fails — the
        client never anchors unverified state.
        """
        fam = self.ledger._fam  # public read path in a real deployment
        added = 0
        completed = fam.num_epochs - 1
        while self.state.anchored_epochs < completed:
            epoch_index = self.state.anchored_epochs
            claimed_root = fam.epoch_root(epoch_index)
            if epoch_index == 0:
                if not self._bootstrap_epoch_zero(fam, claimed_root):
                    raise VerificationFailure("epoch 0 bootstrap verification failed")
                self.anchors.add(0, claimed_root)
            else:
                link = fam.prove_epoch_link(epoch_index)
                if not self.anchors.advance(epoch_index, claimed_root, link):
                    raise VerificationFailure(
                        f"merged-leaf link for epoch {epoch_index} failed"
                    )
            self.state.anchored_epochs += 1
            added += 1
        self._sync_live(fam)
        return added

    def _bootstrap_epoch_zero(self, fam: FamAccumulator, claimed_root: Digest) -> bool:
        """Full verification of the first epoch (downloads its digests)."""
        from ..merkle.shrubs import FrontierAccumulator

        frontier = FrontierAccumulator()
        for jsn in range(fam.epoch_capacity):
            frontier.append_leaf(fam.leaf_digest(jsn))
        return frontier.root() == claimed_root

    def _sync_live(self, fam: FamAccumulator) -> None:
        current_epoch = fam.num_epochs - 1
        live_size = fam.snapshot()[1]
        live_root = fam.current_root()
        if self.state.live_root is not None and self.state.live_size > 0:
            if self.state.live_epoch_index == current_epoch:
                # Same epoch: its evolution must be append-only.
                if self.state.live_size == live_size:
                    if live_root != self.state.live_root:
                        raise VerificationFailure(
                            "live commitment changed without appends"
                        )
                elif self.state.live_size < live_size:
                    proof = fam.prove_live_consistency(self.state.live_size)
                    if not proof.verify(self.state.live_root, live_root):
                        raise VerificationFailure(
                            "live epoch evolved non-append-only (history rewritten?)"
                        )
                else:
                    raise VerificationFailure("live epoch shrank")
            else:
                # Our epoch has been sealed since we last looked: its final
                # root must extend the state we verified, and must equal the
                # anchor sync_anchors just validated for it.
                sealed_epoch = self.state.live_epoch_index
                sealed_root = fam.epoch_root(sealed_epoch)
                proof = fam.prove_epoch_consistency(sealed_epoch, self.state.live_size)
                if not proof.verify(self.state.live_root, sealed_root):
                    raise VerificationFailure(
                        f"sealed epoch {sealed_epoch} does not extend the "
                        "state this client verified"
                    )
                anchor = self.anchors.get(sealed_epoch)
                if anchor is not None and anchor != sealed_root:
                    raise VerificationFailure(
                        f"sealed epoch {sealed_epoch} root disagrees with anchor"
                    )
        self.state.live_epoch_index = current_epoch
        self.state.live_size = live_size
        self.state.live_root = live_root

    # ------------------------------------------------------------- verifying

    def verify_journal(self, journal: Journal) -> bool:
        """O(delta) existence verification against the client's own anchors."""
        proof = self.ledger.get_proof(journal.jsn, anchored=True)
        if proof.epoch_index == proof.num_epochs - 1:
            # Live epoch: check against the client's verified live commitment.
            if self.state.live_root is None:
                return False
            try:
                return proof.epoch_proof.computed_root(journal.tx_hash()) == self.state.live_root
            except (ValueError, IndexError):
                return False
        anchor = self.anchors.get(proof.epoch_index)
        if anchor is None:
            return False
        try:
            return proof.epoch_proof.computed_root(journal.tx_hash()) == anchor
        except (ValueError, IndexError):
            return False

    def verify_dasein(self, jsn: int) -> DaseinReport:
        """Full client-side 3w verification from a freshly exported view."""
        view = self.ledger.export_view()
        verifier = DaseinVerifier(view, tsa_keys=self.tsa_keys)
        proof = self.ledger.get_proof(jsn, anchored=False)
        return verifier.verify_dasein(jsn, proof, self.state.receipts.get(jsn))

    def verify_clue(self, clue: str) -> bool:
        """Client-side N-lineage verification of an entire clue."""
        jsns = self.ledger.list_tx(clue)
        if not jsns:
            return False
        journals = []
        for jsn in jsns:
            try:
                journals.append(self.ledger.get_journal(jsn))
            except LedgerError:
                # Not-found / purged / occulted: the lineage has a hole, so
                # the clue cannot fully verify.
                return False
        proof = self.ledger.prove_clue(clue)
        digests = {i: j.tx_hash() for i, j in enumerate(journals)}
        return proof.verify(digests, self.ledger.state_root())

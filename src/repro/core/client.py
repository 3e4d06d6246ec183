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
public API only; nothing here reads server-private state.  Every check runs
in the verification kernel (:mod:`repro.core.verification`), the same code
the remote client runs over the wire.
"""

from __future__ import annotations

from ..crypto.keys import KeyPair, PublicKey
from ..merkle.fam import AnchorStore
from .errors import LedgerError, VerificationFailure
from .journal import ClientRequest, Journal
from .ledger import LSP_MEMBER_ID, Ledger
from .receipt import Receipt
from .verification import (
    ClientState,
    DaseinReport,
    DaseinVerifier,
    receipt_problem,
    sync_anchors,
    verify_anchored,
    verify_lineage,
)

__all__ = ["LedgerClient", "ClientState"]


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

    def _request(self, payload: bytes, clues: tuple[str, ...]) -> ClientRequest:
        self._nonce += 1
        return ClientRequest.build(
            self.ledger.config.uri,
            self.member_id,
            payload,
            clues=tuple(clues),
            nonce=self._nonce.to_bytes(8, "big"),
            client_timestamp=self.ledger.clock.now(),
        ).signed_by(self.keypair)

    def _accept(self, requests: list[ClientRequest], receipts: list[Receipt]) -> None:
        """The client's immediate defence: the LSP's signature must verify and
        each receipt must echo its exact request."""
        lsp_key = self.ledger.registry.certificate(LSP_MEMBER_ID).public_key
        for request, receipt in zip(requests, receipts):
            problem = receipt_problem(receipt, request, receipt.verify(lsp_key))
            if problem is not None:
                raise VerificationFailure(problem)
            self.state.receipts[receipt.jsn] = receipt

    def append(self, payload: bytes, clues: tuple[str, ...] = ()) -> Receipt:
        """Sign and submit a transaction; validate and store the receipt."""
        request = self._request(payload, clues)
        receipt = self.ledger.append(request)
        self._accept([request], [receipt])
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
        requests = [self._request(payload, clues) for payload, clues in items]
        try:
            receipts = self.ledger.append_batch(requests)
        except Exception:
            self._nonce = first_nonce
            raise
        self._accept(requests, receipts)
        return receipts

    def receipt_for(self, jsn: int) -> Receipt | None:
        return self.state.receipts.get(jsn)

    # --------------------------------------------------------------- anchors

    def sync_anchors(self) -> int:
        """Advance the trusted-anchor store to the server's current state
        (:func:`~repro.core.verification.sync_anchors` over the ledger's fam).

        Returns how many new epoch anchors were added.  Raises
        :class:`VerificationFailure` the moment any link fails — the client
        never anchors unverified state.
        """
        fam = self.ledger._fam  # public read path in a real deployment
        return sync_anchors(self.state, self.anchors, fam)

    # ------------------------------------------------------------- verifying

    def verify_journal(self, journal: Journal) -> bool:
        """O(delta) existence verification against the client's own anchors."""
        proof = self.ledger.get_proof(journal.jsn, anchored=True)
        return verify_anchored(journal.tx_hash(), proof, self.anchors, self.state.live_root)

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
        return verify_lineage(journals, proof, self.ledger.state_root())

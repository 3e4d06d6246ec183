"""The unified session protocol: one verifying surface, any transport.

:class:`VerifyingSession` is the structural type both session classes
satisfy — :class:`repro.api.LedgerSession` (in-process, optionally
service-backed) and :class:`repro.net.client.RemoteLedgerSession` (TCP,
client-side verification).  Code written against the protocol — the
transparency :class:`~repro.transparency.witness.Witness`, the CLI, tests —
runs over either transport with zero branches::

    def cross_audit(session: VerifyingSession) -> WitnessReport:
        head = session.get_sth()            # works local AND remote
        ...

``repro.api.connect()`` returns a :class:`VerifyingSession` for both
registered ``lgid``\\ s and ``ledger://host:port`` addresses, and
``isinstance(session, VerifyingSession)`` holds at runtime for both.

The contract the protocol pins down (DESIGN.md §11/§16):

* identical method *signatures* on every transport — kwargs a transport
  cannot honour are rejected with a typed
  :class:`~repro.core.errors.UsageError` naming the transport, never
  silently swallowed.  Which kwarg belongs to which transport — and *why*
  the others refuse it — lives in one declarative table,
  :data:`CAPABILITIES`, instead of being re-stated at every call site;
* every ``verify``-family method returns a structured
  :class:`~repro.core.verification.VerifyResult` (truthy-compatible with
  the old bools);
* the transparency surface (``get_sth`` / ``get_sth_range`` /
  ``get_consistency`` / ``append_acked``) is part of the session, so
  non-equivocation auditing needs no side channel.

:class:`SessionHelpers` is the shared ABC-style mixin: context management,
argument normalisation and the ``verify`` dispatcher live here once instead
of per transport.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from .artifacts import VerifyLevel, VerifyResult, VerifyTarget
from .core.errors import UsageError

if TYPE_CHECKING:
    from .core.journal import ClientRequest, Journal
    from .core.receipt import Receipt
    from .crypto.keys import KeyPair
    from .export.bundle import ExportBundle
    from .transparency.censorship import SubmissionAck
    from .transparency.sth import (
        ConsistencyAssertion,
        ConsistencyBundle,
        SignedTreeHead,
    )

__all__ = [
    "CAPABILITIES",
    "SessionHelpers",
    "TransportCapability",
    "VerifyingSession",
    "check_transport_kwargs",
]


# ------------------------------------------------------------- capabilities


@dataclass(frozen=True)
class TransportCapability:
    """One session/connect kwarg and which transports honour it.

    ``reason`` explains — to the caller of the transport that *rejects* the
    kwarg — why passing it there cannot mean anything; it lands verbatim in
    the :class:`UsageError` and in generated documentation, so it should
    read as a sentence fragment after "``:``".
    """

    kwarg: str
    transports: frozenset[str]
    reason: str

    def supports(self, transport: str) -> bool:
        return transport in self.transports


#: The declarative capability table: every kwarg on the session surface
#: that only some transports honour, with the rejection rationale.  Both
#: ``connect()`` and the session classes consult this instead of hand-rolling
#: per-call-site rejections — add a row here, never another inline ``raise``.
CAPABILITIES: dict[str, TransportCapability] = {
    "service": TransportCapability(
        kwarg="service",
        transports=frozenset({"local"}),
        reason="the remote server runs its own group-commit service",
    ),
    "expected_lsp_key": TransportCapability(
        kwarg="expected_lsp_key",
        transports=frozenset({"remote"}),
        reason="an in-process ledger's LSP key needs no out-of-band pinning",
    ),
    "timeout": TransportCapability(
        kwarg="timeout",
        transports=frozenset({"remote"}),
        reason=(
            "local calls traverse no socket (per-call timeout= on "
            "service-backed appends still applies)"
        ),
    ),
}


def check_transport_kwargs(transport: str, lgid: Any = "?", **kwargs: Any) -> None:
    """Reject any non-``None`` kwarg the table says ``transport`` cannot honour.

    Raises:
        UsageError: naming the kwarg, the transport, and the table's reason.
    """
    for name, value in kwargs.items():
        if value is None:
            continue
        capability = CAPABILITIES.get(name)
        if capability is None or capability.supports(transport):
            continue
        raise UsageError(
            f"{name}= is not supported by the {transport} transport "
            f"({lgid!r}): {capability.reason}"
        )


@runtime_checkable
class VerifyingSession(Protocol):
    """Structural type of a verifying ledger session, local or remote.

    ``runtime_checkable`` checks member *presence* only; the signature
    contract is enforced by the conformance tests (identical parameter
    lists on both implementations, per-transport typed rejection of
    unsupported kwargs).
    """

    def append(
        self,
        payload: bytes | None = None,
        *,
        clue: str | None = None,
        clues: tuple[str, ...] | None = None,
        client_id: str | None = None,
        keypair: "KeyPair | None" = None,
        request: "ClientRequest | None" = None,
        timeout: float | None = None,
    ) -> "Receipt": ...

    def append_batch(
        self,
        items: list[tuple[bytes, str | None]] | None = None,
        *,
        client_id: str | None = None,
        keypair: "KeyPair | None" = None,
        requests: "list[ClientRequest] | None" = None,
        timeout: float | None = None,
    ) -> "list[Receipt]": ...

    def append_acked(
        self,
        payload: bytes | None = None,
        *,
        clue: str | None = None,
        clues: tuple[str, ...] | None = None,
        client_id: str | None = None,
        keypair: "KeyPair | None" = None,
        request: "ClientRequest | None" = None,
        deadline_epochs: int | None = None,
        timeout: float | None = None,
    ) -> "tuple[Receipt, SubmissionAck]": ...

    def list_tx(self, clue: str) -> "list[Journal]": ...

    def get_proof(self, jsn: int, anchored: bool = True) -> Any: ...

    def get_proofs(self, jsns: list[int], anchored: bool = True) -> list[Any]: ...

    def get_sth(self) -> "SignedTreeHead": ...

    def get_sth_range(self, start: int, end: int) -> "list[SignedTreeHead]": ...

    def get_consistency(
        self, old: "SignedTreeHead", new: "SignedTreeHead"
    ) -> "tuple[ConsistencyBundle | None, ConsistencyAssertion | None]": ...

    def verify(
        self,
        target: Any,
        *,
        key: str | None = None,
        txdata: "list[Journal] | None" = None,
        rho: Any = None,
        root: bytes | None = None,
        level: Any = "server",
    ) -> "VerifyResult": ...

    def export(
        self,
        path: Any = None,
        *,
        clues: tuple[str, ...] = (),
    ) -> "ExportBundle": ...

    def close(self) -> None: ...


class SessionHelpers:
    """Shared behaviour for :class:`VerifyingSession` implementations.

    Context management, argument normalisation and the ``verify`` dispatcher
    are transport-independent; both session classes inherit them from here
    so the protocol surface cannot drift apart by accident.  Each transport
    supplies ``_verify_tx`` and ``_verify_clue``.
    """

    #: Implementations override with their transport name, used in the
    #: typed errors that reject unsupported kwargs.
    transport = "session"

    def close(self) -> None:  # pragma: no cover - overridden by transports
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @staticmethod
    def _normalize_clues(
        clue: str | None, clues: tuple[str, ...] | None
    ) -> tuple[str, ...]:
        if clue is not None and clues is not None:
            raise UsageError("pass clue= or clues=, not both")
        return tuple(clues) if clues is not None else ((clue,) if clue else ())

    @staticmethod
    def _coerce(enum_cls: type, value: Any):
        """Accept the enum member itself or its string value ("tx", "server")."""
        if isinstance(value, enum_cls):
            return value
        try:
            return enum_cls(value)
        except ValueError:
            raise UsageError(
                f"{enum_cls.__name__} expected one of "
                f"{[member.value for member in enum_cls]}, got {value!r}"
            ) from None

    def verify(
        self,
        target: VerifyTarget | str,
        *,
        key: str | None = None,
        txdata: list[Journal] | None = None,
        rho: Any = None,
        root: bytes | None = None,
        level: VerifyLevel | str = VerifyLevel.SERVER,
    ) -> VerifyResult:
        """The Verify API (§IV-C), returning structured evidence.

        * ``target=TX`` — existence of the single journal in ``txdata[0]``;
          ``rho`` optionally carries a pre-fetched fam proof.  At
          ``level=SERVER`` the server runs the check (advisory over the
          wire: it attests its own ledger); at ``level=CLIENT`` the proof is
          folded locally — against ``root`` or the latest receipt's ledger
          root in process, against this client's synced anchor store
          remotely.
        * ``target=CLUE`` — N-lineage verification of clue ``key`` over
          ``txdata`` (all related journals, in order); ``rho`` optionally
          carries a pre-fetched :class:`~repro.merkle.cmtree.ClueProof`;
          ``root`` is the caller's trusted CM-Tree1 datum, else the
          (server's claimed) state root is used and reported in the result.

        Returns a :class:`VerifyResult` (truthy iff the check passed)
        carrying the proof used and the trusted root.  A *failed* check is a
        falsy result, not an exception.

        Raises:
            UsageError: bad target/level, wrong ``txdata`` shape, missing
                ``key``, or no trusted root available.
        """
        target = self._coerce(VerifyTarget, target)
        level = self._coerce(VerifyLevel, level)
        if target is VerifyTarget.TX:
            return self._verify_tx(txdata, rho, root, level)
        if target is VerifyTarget.CLUE:
            return self._verify_clue(key, txdata, rho, root, level)
        raise UsageError(f"unsupported verification target: {target}")

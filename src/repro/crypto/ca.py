"""Certificate authority substrate.

The threat model (§II-B) assumes "the identities of all ledger participants
are authentic, i.e., they (user, LSP, TSA, and regulator) disclose their
public keys certified by a CA".  This module provides that substrate: a CA
issues :class:`Certificate` objects binding a member id and role to a public
key; anyone holding the CA's public key can verify the binding offline.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .ecdsa import Signature
from .hashing import sha256
from .keys import KeyPair, PublicKey, verify_batch

__all__ = [
    "Role",
    "Certificate",
    "CertificateAuthority",
    "CertificateError",
    "verify_certificates",
]


class CertificateError(Exception):
    """Raised when a certificate fails validation."""


class Role(Enum):
    """Roles a ledger participant may hold (§III-C, §II-B)."""

    USER = "user"
    LSP = "lsp"
    TSA = "tsa"
    DBA = "dba"
    REGULATOR = "regulator"
    AUDITOR = "auditor"


@dataclass(frozen=True)
class Certificate:
    """A CA-signed binding of (member_id, role, public key)."""

    member_id: str
    role: Role
    public_key: PublicKey
    issuer: str
    signature: Signature

    def signing_payload(self) -> bytes:
        return _certificate_payload(self.member_id, self.role, self.public_key, self.issuer)

    def verify(self, ca_public_key: PublicKey) -> bool:
        """Check that ``ca_public_key`` signed this certificate."""
        return ca_public_key.verify(sha256(self.signing_payload()), self.signature)


def verify_certificates(
    certificates: list[Certificate], ca_public_key: PublicKey
) -> list[bool]:
    """:meth:`Certificate.verify` for many certificates, in one batch.

    Every certificate is signed by the same CA key, so the whole list is one
    aggregate equation (:func:`~repro.crypto.keys.verify_batch`).  Verdicts
    are per certificate, in input order; an unsigned certificate fails.
    """
    checks = [
        (ca_public_key, sha256(certificate.signing_payload()), certificate.signature)
        for certificate in certificates
        if certificate.signature is not None
    ]
    verdicts = iter(verify_batch(checks))
    return [
        certificate.signature is not None and next(verdicts)
        for certificate in certificates
    ]


def _certificate_payload(
    member_id: str, role: Role, public_key: PublicKey, issuer: str
) -> bytes:
    return b"\x00".join(
        [
            b"repro.certificate.v1",
            issuer.encode("utf-8"),
            member_id.encode("utf-8"),
            role.value.encode("utf-8"),
            public_key.to_bytes(),
        ]
    )


class CertificateAuthority:
    """A minimal CA that issues and validates member certificates.

    Duplicate member ids are rejected so one real-world entity cannot hold
    two conflicting certified keys under the same name.
    """

    def __init__(self, name: str, keypair: KeyPair | None = None) -> None:
        self.name = name
        self._keypair = keypair or KeyPair.generate(seed=f"ca:{name}")
        self._issued: dict[str, Certificate] = {}

    @property
    def public_key(self) -> PublicKey:
        return self._keypair.public

    def issue(self, member_id: str, role: Role, public_key: PublicKey) -> Certificate:
        """Issue a certificate for ``member_id`` acting as ``role``."""
        if member_id in self._issued:
            raise CertificateError(f"member id already certified: {member_id!r}")
        payload = _certificate_payload(member_id, role, public_key, self.name)
        cert = Certificate(
            member_id=member_id,
            role=role,
            public_key=public_key,
            issuer=self.name,
            signature=self._keypair.sign(sha256(payload)),
        )
        self._issued[member_id] = cert
        return cert

    def lookup(self, member_id: str) -> Certificate:
        """Fetch a previously-issued certificate."""
        try:
            return self._issued[member_id]
        except KeyError:
            raise CertificateError(f"no certificate for member {member_id!r}") from None

    def validate(self, certificate: Certificate) -> None:
        """Raise :class:`CertificateError` unless ``certificate`` is ours and valid."""
        if certificate.issuer != self.name:
            raise CertificateError(
                f"certificate issued by {certificate.issuer!r}, not {self.name!r}"
            )
        if not certificate.verify(self.public_key):
            raise CertificateError("certificate signature is invalid")

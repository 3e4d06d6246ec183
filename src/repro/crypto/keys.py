"""Key pairs and serialisable public keys for ledger participants.

Every member of a LedgerDB deployment (user, LSP, TSA, DBA, regulator) holds
an ECDSA key pair.  ``KeyPair.generate`` derives keys deterministically from a
seed so tests, examples, and benchmarks are reproducible without an OS RNG.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass

from .ecdsa import (
    CURVE_P256,
    Curve,
    Point,
    Signature,
    derive_public_key,
    is_on_curve,
    precompute_public_key,
    sign_digest,
    sign_digests,
    verify_digest,
    verify_digests,
)

__all__ = ["PublicKey", "KeyPair", "verify_batch"]


@dataclass(frozen=True)
class PublicKey:
    """A serialisable ECDSA public key (uncompressed SEC1-style encoding)."""

    point: Point
    curve: Curve = CURVE_P256

    def to_bytes(self) -> bytes:
        size = self.curve.byte_length
        return b"\x04" + self.point.x.to_bytes(size, "big") + self.point.y.to_bytes(size, "big")

    @classmethod
    def from_bytes(cls, data: bytes, curve: Curve = CURVE_P256) -> "PublicKey":
        size = curve.byte_length
        if len(data) != 1 + 2 * size or data[0] != 0x04:
            raise ValueError("expected uncompressed SEC1 public key")
        point = Point(
            int.from_bytes(data[1 : 1 + size], "big"),
            int.from_bytes(data[1 + size :], "big"),
        )
        if not is_on_curve(point, curve):
            raise ValueError("public key is not on the curve")
        return cls(point, curve)

    def fingerprint(self) -> bytes:
        """32-byte identifier of this key (hash of its encoding)."""
        return hashlib.sha256(self.to_bytes()).digest()

    def verify(self, digest: bytes, signature: Signature) -> bool:
        """Verify ``signature`` over a 32-byte digest.  Never raises."""
        return verify_digest(self.point, digest, signature, self.curve)

    def precompute(self) -> "PublicKey":
        """Eagerly build this key's window table in the verifier cache.

        For a caller that knows the key will verify many single signatures
        (batches need no table).  Returns ``self`` for chaining.  Raises
        ``ValueError`` for an invalid point (off-curve keys can never verify
        anyway).
        """
        if self.point.is_infinity() or not is_on_curve(self.point, self.curve):
            raise ValueError("cannot precompute an invalid public key")
        precompute_public_key(self.point, self.curve)
        return self


@dataclass(frozen=True)
class KeyPair:
    """A member's signing key pair (sk, pk)."""

    secret: int
    public: PublicKey

    @classmethod
    def generate(cls, seed: bytes | str | None = None, curve: Curve = CURVE_P256) -> "KeyPair":
        """Create a key pair.

        With ``seed`` the secret scalar is derived deterministically
        (hash-to-scalar with rejection sampling); without, a cryptographically
        random scalar is drawn.
        """
        if seed is None:
            secret = secrets.randbelow(curve.n - 1) + 1
        else:
            material = seed.encode("utf-8") if isinstance(seed, str) else seed
            counter = 0
            while True:
                candidate = int.from_bytes(
                    hashlib.sha256(material + counter.to_bytes(4, "big")).digest(), "big"
                )
                if 1 <= candidate < curve.n:
                    secret = candidate
                    break
                counter += 1
        return cls(secret, PublicKey(derive_public_key(secret, curve), curve))

    def sign(self, digest: bytes) -> Signature:
        """Sign a 32-byte digest with this key pair's secret."""
        return sign_digest(self.secret, digest, self.public.curve)

    def sign_batch(self, digests: list[bytes]) -> list[Signature]:
        """Sign many digests, amortising the modular inversions.

        Bit-identical output to ``[self.sign(d) for d in digests]`` — RFC
        6979 is deterministic — but roughly two of the three ``pow`` calls
        per signature collapse into one shared batch inversion.
        """
        return sign_digests(self.secret, digests, self.public.curve)


def verify_batch(checks: list[tuple[PublicKey, bytes, Signature]]) -> list[bool]:
    """Batch-verify ``(public_key, digest, signature)`` triples.

    Same verdict per item as :meth:`PublicKey.verify`; each curve's items
    are one :func:`~repro.crypto.ecdsa.verify_digests` call — one aggregate
    equation across every key.  Never raises — malformed inputs simply
    verify ``False``.
    """
    results = [False] * len(checks)
    by_curve: dict[str, tuple[Curve, list]] = {}
    for index, (public_key, digest, signature) in enumerate(checks):
        group = by_curve.setdefault(public_key.curve.name, (public_key.curve, []))
        group[1].append((index, public_key.point, digest, signature))
    for curve, items in by_curve.values():
        verdicts = verify_digests(
            [(point, digest, sig) for _i, point, digest, sig in items], curve
        )
        for (index, _point, _digest, _sig), ok in zip(items, verdicts):
            results[index] = ok
    return results

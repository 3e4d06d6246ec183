"""Standalone offline bundle verification — no ledger, no service, no network.

This module re-runs the paper's ubiquitous-verification story over an
:class:`~repro.export.bundle.ExportBundle` alone:

* **what** — every journal slot folds to the trusted root: a frontier-only
  :class:`~repro.merkle.fam.FamReplayer` replay of the whole slice (when it
  starts at jsn 0) must land exactly on the trusted commitment, every
  bundled full-chain fam proof must fold there too, and every bundled epoch
  anchor must equal the replayed epoch root;
* **when** — TSA-mode time journals bracket each journal's creation time;
  the tokens are reconstructed from the journal payloads themselves and
  checked against out-of-band TSA keys by the verification kernel's time
  checks (T-Ledger evidence is not serializable into a bundle — DESIGN.md
  §17 records that limit);
* **who** — client signatures against CA-certified member keys, the LSP
  receipt against the LSP certificate, the block chain against the
  receipt's block hash;
* **consistency** — the signed tree head chain verifies per head, links
  append-only via consistency bundles, the LSP's signed assertions match
  both endpoints, and a sharded bundle's composite head refolds from its
  shard heads, each of which must match that shard's trusted root.

The trusted root per shard is, in order of preference: a caller-pinned
root, else the LSP-signed ``ledger_root`` of the bundled latest receipt.
The LSP/CA keys default to the bundle-pinned ones (trust-on-first-use);
callers with out-of-band keys pass them explicitly and any mismatch is a
failure, not a fallback.

Import discipline is the point: this file reaches only
``repro.crypto`` / ``repro.merkle``, ledger-free ``repro.core`` modules
(journal, receipt, blocks and the verification kernel
:mod:`repro.core.verification`), ``repro.transparency.sth`` and
``repro.timeauth`` — never ``repro.core.ledger``, ``repro.service`` or
``repro.net`` (a test asserts this on a live interpreter).  Verification
**never raises** on bad evidence: every defect lands in a falsy, typed
:class:`~repro.artifacts.VerifyResult`.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..artifacts import VerifyResult
from ..core.blocks import Block
from ..core.journal import Journal, JournalType
from ..core.receipt import Receipt
from ..core.verification import time_bracket, time_marks
from ..crypto.ca import Certificate, Role, verify_certificates
from ..crypto.ecdsa import Signature
from ..crypto.hashing import EMPTY_DIGEST
from ..crypto.keys import PublicKey, verify_batch
from ..merkle.cmtree import ClueProof
from ..merkle.fam import FamAccumulator, FamProof, FamReplayer
from ..transparency.sth import (
    SOLO_SHARD,
    ConsistencyAssertion,
    ConsistencyBundle,
    SignedTreeHead,
)
from .bundle import ExportBundle, ShardSection

__all__ = ["verify_bundle", "verify_bundle_path"]

_MAX_DETAILS = 8


class _Problems:
    """Accumulates typed defect strings; keeps the result message bounded."""

    def __init__(self) -> None:
        self.entries: list[str] = []

    def add(self, kind: str, message: str) -> None:
        self.entries.append(f"{kind}: {message}")

    def detail(self) -> str:
        shown = "; ".join(self.entries[:_MAX_DETAILS])
        extra = len(self.entries) - _MAX_DETAILS
        if extra > 0:
            shown += f"; (+{extra} more)"
        return shown


def verify_bundle(
    bundle: ExportBundle,
    *,
    ca_public_key: PublicKey | None = None,
    lsp_public_key: PublicKey | None = None,
    tsa_keys: Mapping[str, PublicKey] | None = None,
    pinned_roots: Mapping[int, bytes] | None = None,
) -> VerifyResult:
    """Offline-verify ``bundle``; returns a structured, never-raising result.

    ``tsa_keys`` enables the *when* factor (``when=None`` means "not
    checked", not "passed"); ``pinned_roots`` maps shard index → trusted fam
    root, overriding the receipt-derived root for that shard.
    """
    try:
        return _verify(bundle, ca_public_key, lsp_public_key, tsa_keys, pinned_roots)
    except Exception as exc:  # noqa: BLE001 — boundary: malformed evidence must
        # fail typed+falsy, not crash the auditor's batch run.
        return VerifyResult(
            ok=False,
            target="bundle",
            level="standalone",
            what=False,
            detail=f"malformed bundle evidence: {type(exc).__name__}: {exc}",
        )


def verify_bundle_path(path: Any, **anchors: Any) -> VerifyResult:
    """:func:`verify_bundle` over a bundle file.

    Container-level damage (truncation, bit rot) raises
    :class:`~repro.export.bundle.BundleCorruptionError` from
    :meth:`ExportBundle.read` — typed, and distinct from evidence-level
    failures which return a falsy result.
    """
    return verify_bundle(ExportBundle.read(path), **anchors)


def _verify(
    bundle: ExportBundle,
    ca_public_key: PublicKey | None,
    lsp_public_key: PublicKey | None,
    tsa_keys: Mapping[str, PublicKey] | None,
    pinned_roots: Mapping[int, bytes] | None,
) -> VerifyResult:
    problems = _Problems()
    what_ok = True
    who_ok = True
    when_ok: bool | None = True if tsa_keys is not None else None

    ca_key = ca_public_key or PublicKey.from_bytes(bundle.ca_public_key)
    lsp_key = lsp_public_key or PublicKey.from_bytes(bundle.lsp_public_key)
    if ca_public_key is not None and ca_public_key.to_bytes() != bundle.ca_public_key:
        who_ok = False
        problems.add("ca-key", "bundle pins a different CA key than supplied")
    if (
        lsp_public_key is not None
        and lsp_public_key.to_bytes() != bundle.lsp_public_key
    ):
        who_ok = False
        problems.add("lsp-key", "bundle pins a different LSP key than supplied")

    bundled = [
        Certificate(
            member_id=bc.member_id,
            role=Role(bc.role),
            public_key=PublicKey.from_bytes(bc.public_key),
            issuer=bc.issuer,
            signature=Signature.from_bytes(bc.signature) if bc.signature else None,
        )
        for bc in bundle.certificates
    ]
    for cert, valid in zip(bundled, verify_certificates(bundled, ca_key)):
        if not valid:
            who_ok = False
            problems.add("certificate", f"{cert.member_id!r} fails CA validation")
    certificates = {cert.member_id: cert for cert in bundled}

    if len(bundle.shards) != bundle.num_shards:
        what_ok = False
        problems.add(
            "shape",
            f"bundle claims {bundle.num_shards} shards, carries {len(bundle.shards)}",
        )

    shard_roots: dict[int, bytes | None] = {}
    for section in bundle.shards:
        s_what, s_who, s_when, root = _verify_shard(
            bundle, section, certificates, lsp_key, tsa_keys, pinned_roots, problems
        )
        what_ok = what_ok and s_what
        who_ok = who_ok and s_who
        if when_ok is not None and s_when is not None:
            when_ok = when_ok and s_when
        shard_roots[section.shard_index] = root

    what_ok = _verify_composite(bundle, lsp_key, shard_roots, problems) and what_ok

    factors = [f for f in (what_ok, when_ok, who_ok) if f is not None]
    ok = all(factors)
    solo_root = shard_roots.get(0) if bundle.num_shards == 1 else None
    return VerifyResult(
        ok=ok,
        target="bundle",
        level="standalone",
        what=what_ok,
        when=when_ok,
        who=who_ok,
        trusted_root=solo_root,
        detail=problems.detail()
        or f"{bundle.journal_count} journals across {bundle.num_shards} shard(s)",
    )


def _verify_shard(
    bundle: ExportBundle,
    section: ShardSection,
    certificates: dict[str, Certificate],
    lsp_key: PublicKey,
    tsa_keys: Mapping[str, PublicKey] | None,
    pinned_roots: Mapping[int, bytes] | None,
    problems: _Problems,
) -> tuple[bool, bool, bool | None, bytes | None]:
    tag = f"shard {section.shard_index}"
    what_ok = True
    who_ok = True
    when_ok: bool | None = None

    # --- decode the slice; journal bytes must hash to their retained digest
    journals: dict[int, Journal] = {}
    retained: dict[int, bytes] = {}
    contiguous = True
    expected = section.genesis_start
    for entry in section.entries:
        if entry.jsn != expected:
            contiguous = False
        expected = entry.jsn + 1
        retained[entry.jsn] = entry.retained_hash
        if entry.data is None:
            continue
        journal = Journal.from_bytes(entry.data)
        if journal.jsn != entry.jsn:
            what_ok = False
            problems.add("slice", f"{tag}: slot {entry.jsn} holds jsn {journal.jsn}")
            continue
        if journal.tx_hash() != entry.retained_hash:
            what_ok = False
            problems.add(
                "slice", f"{tag}: jsn {entry.jsn} bytes do not hash to retained digest"
            )
            continue
        journals[entry.jsn] = journal

    # --- trusted root: pinned, else the receipt's LSP-signed ledger_root
    receipt: Receipt | None = None
    if section.latest_receipt:
        receipt = Receipt.from_bytes(section.latest_receipt)
        if not receipt.verify(lsp_key):
            who_ok = False
            receipt = None
            problems.add("receipt", f"{tag}: latest receipt fails the LSP signature")
    trusted_root: bytes | None = None
    if pinned_roots is not None:
        trusted_root = pinned_roots.get(section.shard_index)
    if trusted_root is None and receipt is not None:
        trusted_root = receipt.ledger_root
    if trusted_root is None:
        what_ok = False
        problems.add("trust", f"{tag}: no trusted root (no pin, no valid receipt)")
        return what_ok, who_ok, when_ok, None

    # --- what: full replay (complete slices) + every bundled proof
    anchors = dict(section.anchors)
    if section.genesis_start == 0 and contiguous and section.entries:
        replayer = FamReplayer(bundle.fractal_height)
        for entry in section.entries:
            replayer.append(entry.retained_hash)
        if replayer.current_root() != trusted_root:
            what_ok = False
            problems.add(
                "replay", f"{tag}: replayed slice root diverges from trusted root"
            )
        for epoch, root in anchors.items():
            if epoch >= len(replayer.epoch_roots) or replayer.epoch_roots[epoch] != root:
                what_ok = False
                problems.add("anchor", f"{tag}: epoch {epoch} anchor diverges")
    elif anchors:
        problems.add(
            "anchor",
            f"{tag}: slice is partial; {len(anchors)} anchors taken on proof evidence only",
        )

    for jsn, blob in section.proofs:
        if jsn not in retained:
            what_ok = False
            problems.add("proof", f"{tag}: proof for jsn {jsn} outside the slice")
            continue
        proof = FamProof.from_bytes(blob)
        if not FamAccumulator.verify_full(retained[jsn], proof, trusted_root):
            what_ok = False
            problems.add("proof", f"{tag}: jsn {jsn} does not fold to trusted root")

    # --- blocks: chained, and pinned by the receipt
    blocks = [Block.from_bytes(blob) for blob in section.blocks]
    for height in range(1, len(blocks)):
        if blocks[height].previous_hash != blocks[height - 1].hash():
            what_ok = False
            problems.add("blocks", f"{tag}: chain breaks at height {height}")
    if receipt is not None and blocks and receipt.block_hash != EMPTY_DIGEST:
        # The receipt pins the latest block *as of its issue* (EMPTY_DIGEST
        # when none was sealed yet); blocks sealed after it (a trailing
        # partial commit) chain forward from that point.
        if receipt.block_hash not in {block.hash() for block in blocks}:
            what_ok = False
            problems.add("blocks", f"{tag}: receipt attests no block in the chain")

    # --- when: TSA-mode brackets reconstructed from the journals themselves
    if tsa_keys is not None:
        when_ok = _verify_when(tag, journals, retained, tsa_keys, problems)

    # --- who: every surviving journal's pi_c (one batch across every member
    # key), plus the receipt's pi_s target
    signed = [
        journal
        for journal in journals.values()
        if journal.client_id in certificates and journal.client_signature is not None
    ]
    checks = [
        (certificates[j.client_id].public_key, j.request_hash, j.client_signature)
        for j in signed
    ]
    valid = {j.jsn for j, ok in zip(signed, verify_batch(checks)) if ok}
    for jsn in sorted(journals):
        if journals[jsn].client_id not in certificates:
            who_ok = False
            problems.add("who", f"{tag}: jsn {jsn} has no certificate on file")
        elif jsn not in valid:
            who_ok = False
            problems.add("who", f"{tag}: jsn {jsn} fails the client signature")
    if receipt is not None:
        target = journals.get(receipt.jsn)
        if target is None and receipt.jsn not in retained:
            who_ok = False
            problems.add("receipt", f"{tag}: receipt names jsn outside the slice")
        elif target is not None and receipt.tx_hash != target.tx_hash():
            who_ok = False
            problems.add("receipt", f"{tag}: receipt tx-hash mismatch")

    # --- the signed tree head chain + consistency assertions
    expected_shard = SOLO_SHARD if bundle.num_shards == 1 else section.shard_index
    heads = [SignedTreeHead.from_bytes(blob) for blob in section.sths]
    for position, head in enumerate(heads):
        if not head.verify(lsp_key):
            what_ok = False
            problems.add("sth", f"{tag}: head #{position} fails the LSP signature")
        if head.shard_index != expected_shard or head.ledger_uri != bundle.ledger_uri:
            what_ok = False
            problems.add("sth", f"{tag}: head #{position} belongs to another stream")
    if heads:
        newest = heads[-1]
        if pinned_roots is None and newest.root != trusted_root:
            what_ok = False
            problems.add(
                "sth", f"{tag}: freshest head contradicts the receipt's ledger root"
            )
    covered = set()
    for old_idx, new_idx, cb_blob, assertion_blob in section.consistency:
        if not (0 <= old_idx < new_idx < len(heads)):
            what_ok = False
            problems.add("consistency", f"{tag}: pair ({old_idx},{new_idx}) out of range")
            continue
        old, new = heads[old_idx], heads[new_idx]
        cbundle = ConsistencyBundle.from_bytes(cb_blob)
        assertion = ConsistencyAssertion.from_bytes(assertion_blob)
        if not cbundle.verify(old, new):
            what_ok = False
            problems.add(
                "consistency", f"{tag}: heads #{old_idx}->#{new_idx} not append-only"
            )
        if not (
            assertion.verify(lsp_key)
            and assertion.matches_old(old)
            and assertion.matches_new(new)
        ):
            what_ok = False
            problems.add(
                "consistency", f"{tag}: assertion #{old_idx}->#{new_idx} invalid"
            )
        covered.add((old_idx, new_idx))
    missing = [
        (i, i + 1) for i in range(len(heads) - 1) if (i, i + 1) not in covered
    ]
    if missing:
        what_ok = False
        problems.add(
            "consistency", f"{tag}: {len(missing)} adjacent head pair(s) unlinked"
        )

    # --- clue lineages, bound to the block-attested state root
    attested_state = blocks[-1].state_root if blocks else None
    for clue_section in section.clue_proofs:
        proof = ClueProof.from_bytes(clue_section.proof)
        digests = {
            version: retained[jsn]
            for version, jsn in enumerate(clue_section.jsns)
            if jsn in retained
        }
        if len(digests) != len(clue_section.jsns):
            what_ok = False
            problems.add(
                "clue", f"{tag}: {clue_section.clue!r} references jsns outside the slice"
            )
            continue
        if not proof.verify(digests, clue_section.state_root):
            what_ok = False
            problems.add("clue", f"{tag}: {clue_section.clue!r} lineage fails")
        if attested_state is None or clue_section.state_root != attested_state:
            what_ok = False
            problems.add(
                "clue",
                f"{tag}: {clue_section.clue!r} state root is not block-attested",
            )

    return what_ok, who_ok, when_ok, trusted_root


def _verify_when(
    tag: str,
    journals: dict[int, Journal],
    retained: dict[int, bytes],
    tsa_keys: Mapping[str, PublicKey],
    problems: _Problems,
) -> bool:
    """Bracket every non-time journal between verified TSA time anchors.

    T-Ledger evidence lives outside the journal payload and is not
    bundle-serializable, so T-Ledger anchors bound nothing here.
    """
    marks = time_marks((journals[jsn] for jsn in sorted(journals)), {}, tsa_keys)
    ok = True
    unbounded = 0
    for jsn in sorted(retained):
        journal = journals.get(jsn)
        if journal is not None and journal.journal_type is JournalType.TIME:
            continue
        bound, valid = time_bracket(marks, jsn)
        if bound is None:
            unbounded += 1
        elif not valid:
            ok = False
            problems.add("when", f"{tag}: jsn {jsn} ceiling anchor fails verification")
    if unbounded:
        ok = False
        problems.add(
            "when", f"{tag}: {unbounded} journal(s) have no verified time ceiling"
        )
    return ok


def _verify_composite(
    bundle: ExportBundle,
    lsp_key: PublicKey,
    shard_roots: dict[int, bytes | None],
    problems: _Problems,
) -> bool:
    if bundle.num_shards == 1:
        if bundle.composite_sth:
            problems.add("composite", "solo bundle carries a composite head")
            return False
        return True
    if not bundle.composite_sth:
        problems.add("composite", "sharded bundle is missing its composite head")
        return False
    head = SignedTreeHead.from_bytes(bundle.composite_sth)
    ok = True
    if not head.verify(lsp_key):
        ok = False
        problems.add("composite", "composite head fails the LSP signature")
    if not head.is_composite or head.ledger_uri != bundle.ledger_uri:
        ok = False
        problems.add("composite", "composite head misdescribes the deployment")
    if not head.composite_consistent():
        ok = False
        problems.add("composite", "composite root does not refold from shard heads")
    seen = set()
    for shard_index, _epoch, _tree, _live, root in head.shard_heads:
        seen.add(shard_index)
        expected = shard_roots.get(shard_index)
        if expected is None or bytes(root) != expected:
            ok = False
            problems.add(
                "composite", f"shard {shard_index} head contradicts its trusted root"
            )
    if seen != set(range(bundle.num_shards)):
        ok = False
        problems.add("composite", "composite head does not cover every shard")
    return ok

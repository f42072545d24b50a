"""Restart recovery: replay a journal and *prove* it by fingerprint.

Content addressing makes recovery cheaply verifiable (the Sun &
Blelloch augmented-map observation from PAPERS.md applied to
durability): every journal record carries both the fingerprint it was
applied to (``base``) and the fingerprint the commit produced, and the
registry recomputes fingerprints from content on registration.  So
:func:`replay_journal` does not *trust* the journal -- it re-applies
each batch to the checkpoint dataset and checks that the recomputed
content hash equals the recorded one, bit for bit.  A divergence (bit
rot below the CRC's radar, a software bug, a mismatched checkpoint)
raises :class:`RecoveryError` instead of serving silently wrong data.

Replay is **lazy** like the live mutation path: versions are staged
and activated without building indexes, so recovering a 10k-record
journal costs hashes and vstacks, not 10k tree builds -- the head's
index comes from the store's warm tier or one cold build afterwards.

Idempotence is positional, like versions are: replay walks the journal
in lockstep with the live chain.  The cursor starts at the earliest
position of the checkpoint content from which the rest of the chain is
a prefix of the journal; a record whose position the chain already
holds is counted ``records_skipped`` (a second ``recover()``, or an
attached journal), the rest are applied, and a chain that is no such
prefix is a :class:`RecoveryError` -- never a guess by membership.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from itertools import islice
from typing import Dict, List

from ..errors import EngineError
from .journal import MutationJournal

__all__ = ["RecoveryError", "RecoveryReport", "replay_journal",
           "journal_roots"]


class RecoveryError(EngineError):
    """Replay could not reproduce the journal's committed fingerprints."""

    reason = "recovery_failed"


@dataclass(frozen=True)
class RecoveryReport:
    """What one chain's recovery did (one row of ``Engine.recover()``)."""

    root: str                     # journal directory name: the original handle
    chain_root: str               # chain anchor after replay (checkpoint fp)
    checkpoint_fingerprint: str
    checkpoint_seq: int
    records_replayed: int
    records_skipped: int          # positions the live chain already held
    fingerprint: str              # recovered head's content fingerprint
    version: int                  # recovered head's chain position
    num_lines: int

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


def journal_roots(journal_dir: str) -> List[str]:
    """The chain roots (subdirectory names) a journal directory holds."""
    if not os.path.isdir(journal_dir):
        return []
    return sorted(name for name in os.listdir(journal_dir)
                  if os.path.isdir(os.path.join(journal_dir, name)))


def replay_journal(journal: MutationJournal, registry,
                   root: str) -> RecoveryReport:
    """Re-apply one journal's committed records onto ``registry``.

    Registers the checkpoint dataset, stages every later record the
    live chain does not already hold through the registry's one write
    path (``stage_version``), and proves each step by fingerprint
    identity before activating it.  Returns the
    :class:`RecoveryReport`; the caller (the engine) aliases the
    original handle onto the recovered chain and re-attaches the
    journal for new commits.
    """
    ck = journal.read_checkpoint()
    if ck is None:
        raise RecoveryError(
            f"journal {journal.directory!r} has no readable checkpoint; "
            f"cannot anchor replay")
    lines, meta = ck
    ck_fp = registry.register(lines, domain=int(meta["domain"]))
    if ck_fp != meta["fingerprint"]:
        raise RecoveryError(
            f"checkpoint content hashes to {ck_fp}, manifest says "
            f"{meta['fingerprint']} -- snapshot corrupt")
    seq0, handle = int(meta["seq"]), registry.resolve(ck_fp).root
    chain = registry.history(handle)
    ahead = tuple(rec.fingerprint for rec in islice(
        journal.records(after_seq=seq0), len(chain) - 1))
    cursor = next((p for p, fp in enumerate(chain) if fp == ck_fp
                   and chain[p + 1:] == ahead[:len(chain) - p - 1]), None)
    if cursor is None:
        raise RecoveryError(
            f"live chain {handle} ({len(chain)} versions) is not a prefix "
            f"of the journal after checkpoint {ck_fp} -- does not chain")
    cur_fp = ck_fp
    replayed = skipped = 0
    for rec in journal.records(after_seq=seq0):
        if rec.base != cur_fp:
            raise RecoveryError(
                f"record seq {rec.seq} applies to {rec.base} but replay "
                f"is at {cur_fp} -- journal does not chain")
        cur_fp, cursor = rec.fingerprint, cursor + 1
        if cursor < len(chain):
            skipped += 1    # lockstep: the live chain holds this position
            continue
        try:
            cur, staged = registry.stage_version(
                handle, rec.insert_lines, rec.delete_ids)
        except IndexError as exc:
            raise RecoveryError(f"record seq {rec.seq}: {exc}") from exc
        if staged is cur or (staged.fingerprint, staged.num_lines) \
                != (rec.fingerprint, int(rec.num_lines)):
            registry.abandon_version(staged.fingerprint)
            raise RecoveryError(
                f"record seq {rec.seq} replayed to {staged.fingerprint} "
                f"({staged.num_lines} lines), journal committed "
                f"{rec.fingerprint} ({rec.num_lines} lines) -- fingerprint "
                f"identity violated")
        registry.activate_version(staged.fingerprint)
        replayed += 1
    head = registry.resolve(handle)
    return RecoveryReport(
        root=root, chain_root=head.root,
        checkpoint_fingerprint=str(meta["fingerprint"]),
        checkpoint_seq=int(meta["seq"]),
        records_replayed=replayed, records_skipped=skipped,
        fingerprint=head.fingerprint, version=head.version,
        num_lines=head.num_lines)

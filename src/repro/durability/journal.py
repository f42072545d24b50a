"""The write-ahead mutation journal: crash-consistent commit records.

One :class:`MutationJournal` belongs to one dataset version chain (one
*root* fingerprint).  Every committed mutation batch appends exactly
one record **before** the engine warms the new version's index and
flips reads to it -- the PR 7 commit protocol becomes::

    stage -> journal append (+fsync) -> warm build -> flip -> ack

so an acknowledged commit is always on disk, and a commit that died
before the ack is either absent (crashed before the append finished --
the torn tail is truncated on the next open) or present as a whole
record (crashed after: replay applies it atomically; a batch is never
half-visible).  A failed warm build *abandons* the just-appended tail
record by truncating it back off the segment, keeping the journal's
"every record was committed" invariant without tombstones.

On-disk layout (``journal_dir/<root>/``)::

    checkpoint.npz            # dataset snapshot covering records <= seq
    seg-<first seq, 16 digits>.wal

Each segment starts with an 8-byte magic; each record is::

    u32 payload length | u32 CRC-32 of the payload | payload

and the payload is a u32-length-prefixed JSON header (seq, base and
committed fingerprints, chain version, row counts, domain) followed by
the raw delete-id (int64 LE) and insert-row (float64 LE) bytes.  The
CRC plus the length prefix make a torn tail detectable: on open the
last good record boundary is found and the file is truncated there
(``torn_tail_truncations``).  Corruption *before* the tail -- which an
fsync'd journal should never produce -- conservatively drops that
segment's tail and every later segment.

Checkpoints make recovery self-contained and bound replay work: a
checkpoint atomically snapshots the chain head's dataset (temp file +
``os.replace``, verified by content fingerprint on load) and then
drops every segment whose records it fully covers (prefix truncation).
The journal writes a *base* checkpoint (seq 0, the dataset as of
journal creation) the moment it is created, so a journal can always be
replayed from its own directory alone.

``fsync`` policy: ``"commit"`` (default) fsyncs the segment after every
append -- an acked write survives power loss; ``"none"`` only flushes
to the OS -- an acked write survives a killed *process* (the kill -9
chaos test passes either way) but not a lost machine.
"""

from __future__ import annotations

import io
import json
import os
import re
import struct
import tempfile
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import EngineError

__all__ = ["JournalError", "JournalRecord", "MutationJournal",
           "FSYNC_POLICIES"]

#: accepted ``fsync`` policies
FSYNC_POLICIES = ("commit", "none")

_MAGIC = b"RWALSEG1"
_REC_HEAD = struct.Struct("<II")      # payload length, payload crc32
_HDR_LEN = struct.Struct("<I")        # JSON header length
_SEG_RE = re.compile(r"^seg-(\d{16})\.wal$")
_CHECKPOINT = "checkpoint.npz"


class JournalError(EngineError):
    """The journal is unusable (bad magic, refused append, ...)."""

    reason = "journal_error"


@dataclass(frozen=True)
class JournalRecord:
    """One committed mutation batch as replay sees it."""

    seq: int                  # 1-based, contiguous per journal
    base: str                 # fingerprint the batch was applied to
    fingerprint: str          # content fingerprint of the committed version
    version: int              # chain position at commit time
    num_lines: int            # row count of the committed version
    domain: int               # committed version's (possibly grown) domain
    delete_ids: np.ndarray    # int64 row ids of ``base`` deleted first
    insert_lines: np.ndarray  # float64 (n, 4) rows appended after survivors


def _encode_record(rec: JournalRecord) -> bytes:
    dels = np.ascontiguousarray(rec.delete_ids, dtype=np.int64)
    ins = np.ascontiguousarray(rec.insert_lines,
                               dtype=np.float64).reshape(-1, 4)
    header = json.dumps({
        "seq": int(rec.seq), "base": rec.base, "fp": rec.fingerprint,
        "version": int(rec.version), "num_lines": int(rec.num_lines),
        "domain": int(rec.domain), "n_del": int(dels.size),
        "n_ins": int(ins.shape[0]),
    }, sort_keys=True).encode()
    payload = b"".join([_HDR_LEN.pack(len(header)), header,
                        dels.tobytes(), ins.tobytes()])
    return _REC_HEAD.pack(len(payload), zlib.crc32(payload)) + payload


def _decode_payload(payload: bytes) -> JournalRecord:
    (hlen,) = _HDR_LEN.unpack_from(payload)
    pos = _HDR_LEN.size
    hdr = json.loads(payload[pos:pos + hlen].decode())
    pos += hlen
    n_del, n_ins = int(hdr["n_del"]), int(hdr["n_ins"])
    dels = np.frombuffer(payload, dtype="<i8", count=n_del,
                         offset=pos).astype(np.int64)
    pos += n_del * 8
    ins = np.frombuffer(payload, dtype="<f8", count=n_ins * 4,
                        offset=pos).astype(np.float64).reshape(-1, 4)
    return JournalRecord(seq=int(hdr["seq"]), base=str(hdr["base"]),
                         fingerprint=str(hdr["fp"]),
                         version=int(hdr["version"]),
                         num_lines=int(hdr["num_lines"]),
                         domain=int(hdr["domain"]),
                         delete_ids=dels, insert_lines=ins)


@dataclass
class _Segment:
    path: str
    first_seq: int           # seq the file name promises
    last_seq: int = 0        # 0: no readable records
    end_offset: int = len(_MAGIC)


class MutationJournal:
    """Append-only, CRC-checksummed mutation log for one version chain.

    Single-writer: the engine serializes appends per root under its
    mutation lock, so the journal itself needs no locking.  ``observer``
    (optional) receives ``(event, n)`` per counter increment --
    ``wal_append``, ``wal_bytes``, ``fsync``, ``torn_tail_truncation``,
    ``checkpoint``, ``wal_segment_rotated``, ``wal_segment_truncated``,
    ``wal_abandon`` -- the engine points it at its counter table's
    :meth:`~repro.counters.Counters.event`.
    """

    def __init__(self, directory: str, *, fsync: str = "commit",
                 segment_bytes: int = 4 << 20,
                 observer: Optional[Callable[..., None]] = None):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"unknown fsync policy {fsync!r}; "
                             f"choose from {FSYNC_POLICIES}")
        if segment_bytes < 1:
            raise ValueError("segment_bytes must be >= 1")
        self.directory = os.fspath(directory)
        self.fsync_policy = fsync
        self.segment_bytes = int(segment_bytes)
        self._observer = observer
        self._segments: List[_Segment] = []
        self._fh: Optional[io.BufferedRandom] = None
        #: (seq, pre-append end offset) of the newest append -- what
        #: :meth:`abandon_last` rolls back
        self._last_append: Optional[Tuple[int, int]] = None
        self._last_fingerprint: Optional[str] = None
        self._closed = False
        self.appends = 0
        self.bytes_appended = 0
        self.fsyncs = 0
        self.torn_tail_truncations = 0
        self.checkpoints = 0
        self.segments_truncated = 0
        self.abandons = 0
        self._open()

    # -- opening / scanning ----------------------------------------------

    def _notify(self, event: str, n: int = 1) -> None:
        if self._observer is not None:
            self._observer(event, n)

    def _open(self) -> None:
        os.makedirs(self.directory, exist_ok=True)
        # a crashed checkpoint writer leaves only temp files; sweep them
        for name in os.listdir(self.directory):
            if name.startswith(".tmp-"):
                _unlink(os.path.join(self.directory, name))
        names = sorted((m.group(1), name)
                       for name in os.listdir(self.directory)
                       for m in [_SEG_RE.match(name)] if m)
        for first, name in names:
            seg = _Segment(os.path.join(self.directory, name), int(first))
            torn = self._scan_segment(seg)
            self._segments.append(seg)
            if torn:
                # everything past the tear is unreadable; an fsync'd
                # journal only ever tears at the very tail, but a
                # mid-journal tear still recovers the longest clean
                # prefix instead of refusing to open
                os.truncate(seg.path, max(seg.end_offset, 0))
                if seg.end_offset < len(_MAGIC):
                    # the magic itself was torn: re-stamp an empty segment
                    with open(seg.path, "r+b") as fh:
                        fh.write(_MAGIC)
                    seg.end_offset = len(_MAGIC)
                self.torn_tail_truncations += 1
                self._notify("torn_tail_truncation")
                later = [s for _, s in names if int(_SEG_RE.match(s).group(1))
                         > seg.first_seq]
                for doomed in later:
                    _unlink(os.path.join(self.directory, doomed))
                break
        if not self._segments:
            self._add_segment(1)
        else:
            last = self._segments[-1]
            self._fh = open(last.path, "r+b")
            self._fh.seek(last.end_offset)

    def _scan_segment(self, seg: _Segment) -> bool:
        """Walk records, fixing ``seg``'s bookkeeping; True if torn."""
        expect = seg.first_seq
        with open(seg.path, "rb") as fh:
            if fh.read(len(_MAGIC)) != _MAGIC:
                seg.end_offset = 0   # unreadable file: treat as all-torn
                return True
            offset = len(_MAGIC)
            while True:
                head = fh.read(_REC_HEAD.size)
                if not head:
                    return False       # clean end
                if len(head) < _REC_HEAD.size:
                    return True
                length, crc = _REC_HEAD.unpack(head)
                payload = fh.read(length)
                if len(payload) < length or zlib.crc32(payload) != crc:
                    return True
                try:
                    rec = _decode_record_header(payload)
                except (ValueError, KeyError):
                    return True
                if rec["seq"] != expect:
                    return True
                offset += _REC_HEAD.size + length
                seg.last_seq = expect
                seg.end_offset = offset
                self._last_fingerprint = rec["fp"]
                expect += 1

    def _add_segment(self, first_seq: int) -> None:
        if self._fh is not None:
            self._flush(force_fsync=self.fsync_policy == "commit")
            self._fh.close()
        path = os.path.join(self.directory, f"seg-{first_seq:016d}.wal")
        self._fh = open(path, "w+b")
        self._fh.write(_MAGIC)
        self._flush(force_fsync=self.fsync_policy == "commit")
        self._fsync_dir()
        self._segments.append(_Segment(path, first_seq))

    # -- writing ---------------------------------------------------------

    @property
    def last_seq(self) -> int:
        for seg in reversed(self._segments):
            if seg.last_seq:
                return seg.last_seq
        return self._checkpoint_seq()

    @property
    def next_seq(self) -> int:
        tail = self._segments[-1]
        return tail.last_seq + 1 if tail.last_seq else tail.first_seq

    @property
    def last_fingerprint(self) -> Optional[str]:
        """Committed fingerprint of the newest record (None: no records)."""
        return self._last_fingerprint

    def append(self, *, base: str, fingerprint: str, version: int,
               num_lines: int, domain: int, delete_ids,
               insert_lines) -> int:
        """Durably log one committed batch; returns its sequence number.

        Called *before* the warm build: on return the record is flushed
        (and fsync'd under the ``commit`` policy), so a crash at any
        later point of the commit replays it.  A failed build must call
        :meth:`abandon_last` with the returned seq.
        """
        if self._closed:
            raise JournalError("journal is closed")
        tail = self._segments[-1]
        if tail.last_seq and tail.end_offset >= self.segment_bytes:
            self._add_segment(tail.last_seq + 1)
            self._notify("wal_segment_rotated")
            tail = self._segments[-1]
        seq = self.next_seq
        rec = JournalRecord(seq=seq, base=base, fingerprint=fingerprint,
                            version=version, num_lines=num_lines,
                            domain=domain,
                            delete_ids=np.asarray(delete_ids,
                                                  dtype=np.int64).reshape(-1),
                            insert_lines=np.asarray(
                                insert_lines,
                                dtype=np.float64).reshape(-1, 4))
        blob = _encode_record(rec)
        before = tail.end_offset
        self._fh.seek(before)
        self._fh.write(blob)
        self._flush(force_fsync=self.fsync_policy == "commit")
        tail.last_seq = seq
        tail.end_offset = before + len(blob)
        self._last_append = (seq, before)
        self._last_fingerprint = fingerprint
        self.appends += 1
        self.bytes_appended += len(blob)
        self._notify("wal_append")
        self._notify("wal_bytes", len(blob))
        return seq

    def abandon_last(self, seq: int) -> None:
        """Roll the newest record back off the tail (failed warm build).

        Only the record :meth:`append` just wrote can be abandoned --
        appends per chain are serialized, so the failed commit is
        always the tail and truncation needs no tombstones.
        """
        if self._last_append is None or self._last_append[0] != seq:
            raise JournalError(
                f"cannot abandon seq {seq}: not the newest append")
        _, before = self._last_append
        tail = self._segments[-1]
        self._fh.truncate(before)
        self._flush(force_fsync=self.fsync_policy == "commit")
        tail.end_offset = before
        tail.last_seq = seq - 1 if seq - 1 >= tail.first_seq else 0
        self._last_append = None
        self._last_fingerprint = None   # unknown without a rescan
        self.abandons += 1
        self._notify("wal_abandon")

    def _flush(self, force_fsync: bool) -> None:
        self._fh.flush()
        if force_fsync:
            os.fsync(self._fh.fileno())
            self.fsyncs += 1
            self._notify("fsync")

    def _fsync_dir(self) -> None:
        if self.fsync_policy != "commit":
            return
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:
            return   # platform without directory fds
        try:
            os.fsync(fd)
            self.fsyncs += 1
            self._notify("fsync")
        finally:
            os.close(fd)

    # -- reading ---------------------------------------------------------

    def records(self, after_seq: int = 0) -> Iterator[JournalRecord]:
        """Replay every durable record with ``seq > after_seq`` in order."""
        if self._fh is not None:
            self._fh.flush()
        for seg in self._segments:
            if seg.last_seq and seg.last_seq <= after_seq:
                continue
            with open(seg.path, "rb") as fh:
                if fh.read(len(_MAGIC)) != _MAGIC:
                    return
                offset = len(_MAGIC)
                while offset < seg.end_offset:
                    head = fh.read(_REC_HEAD.size)
                    length, crc = _REC_HEAD.unpack(head)
                    payload = fh.read(length)
                    if zlib.crc32(payload) != crc:
                        raise JournalError(
                            f"CRC mismatch inside scanned region of "
                            f"{seg.path} at offset {offset}")
                    offset += _REC_HEAD.size + length
                    rec = _decode_payload(payload)
                    if rec.seq > after_seq:
                        yield rec

    # -- checkpoints -----------------------------------------------------

    def _checkpoint_path(self) -> str:
        return os.path.join(self.directory, _CHECKPOINT)

    def _checkpoint_seq(self) -> int:
        meta = self.read_checkpoint_meta()
        return int(meta["seq"]) if meta else 0

    def write_checkpoint(self, lines: np.ndarray, *, fingerprint: str,
                         version: int, domain: int,
                         seq: Optional[int] = None) -> Dict[str, object]:
        """Atomically snapshot the dataset covering records ``<= seq``.

        ``seq`` defaults to the newest record (the caller must hold the
        chain quiescent so the snapshot really is that record's
        content).  Fully covered segments are dropped afterwards --
        the prefix truncation that keeps replay bounded.
        """
        if seq is None:
            seq = self.last_seq
        arr = np.ascontiguousarray(np.asarray(lines,
                                              dtype=np.float64).reshape(-1, 4))
        meta = {"seq": int(seq), "fingerprint": str(fingerprint),
                "version": int(version), "domain": int(domain),
                "num_lines": int(arr.shape[0])}
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=".tmp-ck-",
                                   suffix=".npz")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, lines=arr,
                         meta=np.frombuffer(json.dumps(meta).encode(),
                                            dtype=np.uint8))
                fh.flush()
                if self.fsync_policy == "commit":
                    os.fsync(fh.fileno())
                    self.fsyncs += 1
                    self._notify("fsync")
            os.replace(tmp, self._checkpoint_path())
        except BaseException:
            _unlink(tmp)
            raise
        self._fsync_dir()
        self.checkpoints += 1
        self._notify("checkpoint")
        self._truncate_through(int(seq))
        return meta

    def read_checkpoint(self):
        """``(lines, meta)`` of the snapshot; ``None`` if absent/corrupt."""
        path = self._checkpoint_path()
        if not os.path.exists(path):
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                lines = np.asarray(data["lines"], dtype=np.float64)
                meta = json.loads(bytes(np.asarray(data["meta"],
                                                   dtype=np.uint8)).decode())
        except Exception:
            return None
        return lines.reshape(-1, 4), meta

    def read_checkpoint_meta(self) -> Optional[Dict[str, object]]:
        ck = self.read_checkpoint()
        return ck[1] if ck is not None else None

    def _truncate_through(self, seq: int) -> None:
        """Drop whole segments whose records are all ``<= seq``.

        The active tail segment always survives (its file handle stays
        open); replay skips its covered records by sequence number.
        """
        keep: List[_Segment] = []
        for seg in self._segments:
            covered = seg.last_seq and seg.last_seq <= seq
            if covered and seg is not self._segments[-1]:
                _unlink(seg.path)
                self.segments_truncated += 1
                self._notify("wal_segment_truncated")
            else:
                keep.append(seg)
        self._segments = keep
        self._fsync_dir()

    # -- lifecycle / stats -----------------------------------------------

    def segment_paths(self) -> List[str]:
        return [seg.path for seg in self._segments]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._fh is not None:
            # the "none" policy still makes one durability point here:
            # a *graceful* shutdown leaves nothing in the page cache
            self._fh.flush()
            try:
                os.fsync(self._fh.fileno())
                self.fsyncs += 1
                self._notify("fsync")
            except OSError:
                pass
            self._fh.close()
            self._fh = None

    def snapshot(self) -> Dict[str, object]:
        meta = self.read_checkpoint_meta() or {}
        return {
            "directory": self.directory,
            "segments": len(self._segments),
            "last_seq": self.last_seq,
            "appends": self.appends,
            "bytes_appended": self.bytes_appended,
            "fsyncs": self.fsyncs,
            "fsync_policy": self.fsync_policy,
            "torn_tail_truncations": self.torn_tail_truncations,
            "checkpoints": self.checkpoints,
            "segments_truncated": self.segments_truncated,
            "abandons": self.abandons,
            "checkpoint_seq": int(meta.get("seq", 0)),
            "checkpoint_fingerprint": meta.get("fingerprint"),
        }

    def __enter__(self) -> "MutationJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _decode_record_header(payload: bytes) -> Dict[str, object]:
    (hlen,) = _HDR_LEN.unpack_from(payload)
    if _HDR_LEN.size + hlen > len(payload):
        raise ValueError("header overruns payload")
    return json.loads(payload[_HDR_LEN.size:_HDR_LEN.size + hlen].decode())


def _unlink(path: str) -> bool:
    try:
        os.unlink(path)
        return True
    except OSError:
        return False

"""Fingerprint-keyed shared-memory arena: publish once, map everywhere.

The process backend's locality problem is that every worker otherwise
receives its own pickled copy of a dataset snapshot over the pool's
pipe (~2.2 MB × workers for a 10k-segment map, linear in dataset
size).  The arena replaces those copies with **one** OS-level
``multiprocessing.shared_memory`` block per published object; jobs then
carry only a :class:`ShmHandle` -- ``(name, tag, nbytes, checksum,
meta)`` -- and every worker maps the same physical pages read-only.

Every block has one layout, the *payload*: a set of named arrays laid
out uncompressed at 64-byte-aligned offsets behind a JSON header.  A
prebuilt index (``ix:`` tag) is the entries io format v3 would write
(:func:`repro.structures.io.structure_payload`); a dataset (``ds:``
tag) is the one entry ``{"lines": segments}``.  :func:`attach_payload`
returns a dict of zero-copy read-only views, from which
:func:`repro.structures.io.attach_tree` rebuilds an index *in place*
-- the tree's arrays alias the shared pages.

Lifecycle and crash safety:

* The parent **owns** every block: :meth:`ShmArena.close` unlinks them
  all, and a ``weakref.finalize`` guard does the same if the arena is
  garbage-collected unclosed, so a normal exit never leaks and never
  triggers a resource-tracker warning.
* A **session registry** file (``$TMPDIR/repro-shm/session-<pid>-*.json``)
  lists the live block names.  A parent killed outright (SIGKILL, power
  loss) leaves the file behind; the next arena construction reconciles:
  any session whose pid is dead has its listed blocks unlinked.  This is
  the reconciliation layer on top of the stdlib resource tracker.
* Workers attach **untracked** (:func:`attach_untracked`): before
  Python 3.13 an attaching process re-registers the block with its
  resource tracker, which would unlink it -- and warn -- when that
  worker exits (bpo-39959).  Suppressing the attach-side registration
  keeps ownership solely with the parent; a worker killed mid-job
  (``os._exit``) therefore cannot leak or double-free anything.

Budget: ``budget_bytes`` caps the total published bytes.  A publish
that would exceed it returns ``None`` (counted in
``publish_failures``) and the caller falls back to the pipe-shipping
path -- degraded throughput, never an error.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import struct
import tempfile
import threading
import weakref
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np
from multiprocessing import resource_tracker, shared_memory

__all__ = ["DATASET_PREFIX", "INDEX_PREFIX", "ShmHandle", "ShmArena",
           "Attachment", "ShmIntegrityError", "attach_untracked",
           "attach_payload", "reconcile_stale_sessions"]

#: arena tag prefixes: one namespace per published object class
DATASET_PREFIX = "ds:"     # + dataset fingerprint
INDEX_PREFIX = "ix:"       # + store key_id (fingerprint-structure-digest)

#: payload blocks align every entry so attached views can be vectorized
_ALIGN = 64

#: payload header: little-endian u64 byte length, then the JSON entries
_HEADER_LEN = struct.Struct("<Q")


class ShmIntegrityError(ValueError):
    """An attached block failed its handle's checksum."""


def _canon(arr) -> np.ndarray:
    """C-contiguous view/copy that preserves 0-d shapes.

    ``np.ascontiguousarray`` promotes 0-d arrays (the string tags of
    io-v3 payloads) to 1-d, which would corrupt the round trip.
    """
    arr = np.asarray(arr)
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    return arr


def _checksum(buf) -> str:
    """SHA-256 (truncated) over raw block bytes -- what handles carry."""
    h = hashlib.sha256()
    h.update(bytes(buf) if not isinstance(buf, (bytes, memoryview)) else buf)
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class ShmHandle:
    """The picklable stand-in for one published block.

    ``name`` is the OS-level shared-memory name (what workers attach
    by); ``tag`` is the arena key (``ds:<fingerprint>`` or
    ``ix:<key_id>``); ``checksum`` covers the first ``nbytes`` of the
    block so an attacher can verify it maps the bytes the publisher
    wrote; the block carries its own layout in an embedded header.
    ``meta`` is a small string-pair tuple (e.g. a dataset's domain).
    """

    name: str
    tag: str
    nbytes: int
    checksum: str
    meta: Tuple[Tuple[str, str], ...] = ()

    def meta_dict(self) -> Dict[str, str]:
        return dict(self.meta)


# -- worker-side attachment ------------------------------------------------


def attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing block without resource-tracker ownership.

    Pre-3.13 ``SharedMemory(name=...)`` registers the segment with the
    attaching process's resource tracker, which unlinks it (with a leak
    warning) when that process exits -- wrong for blocks the parent
    owns.  On 3.13+ ``track=False`` expresses this directly; earlier,
    the registration is suppressed for the duration of the attach.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    orig = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = orig


@dataclass
class Attachment:
    """One mapped block: the SharedMemory keeps the views' buffer alive."""

    handle: ShmHandle
    shm: shared_memory.SharedMemory
    value: Optional[Dict[str, np.ndarray]]   # key -> zero-copy view

    def close(self) -> None:
        """Drop this process's mapping (never unlinks -- parent owns)."""
        self.value = None
        try:
            self.shm.close()
        except (OSError, BufferError):
            pass


def _verify(shm: shared_memory.SharedMemory, handle: ShmHandle) -> None:
    got = _checksum(shm.buf[:handle.nbytes])
    if got != handle.checksum:
        shm.close()
        raise ShmIntegrityError(
            f"block {handle.name!r} ({handle.tag}) checksum mismatch: "
            f"published {handle.checksum}, mapped {got}")


def attach_payload(handle: ShmHandle, verify: bool = True) -> Attachment:
    """Map a block as a dict of read-only zero-copy views."""
    shm = attach_untracked(handle.name)
    if verify:
        _verify(shm, handle)
    hlen, = _HEADER_LEN.unpack_from(shm.buf, 0)
    entries = json.loads(bytes(shm.buf[_HEADER_LEN.size:
                                       _HEADER_LEN.size + hlen]).decode())
    out: Dict[str, np.ndarray] = {}
    for ent in entries:
        arr = np.ndarray(tuple(ent["shape"]), dtype=np.dtype(ent["dtype"]),
                         buffer=shm.buf, offset=int(ent["offset"]))
        arr.setflags(write=False)
        out[ent["key"]] = arr
    return Attachment(handle=handle, shm=shm, value=out)


# -- payload packing -------------------------------------------------------


def _pack_layout(arrays: Mapping[str, np.ndarray]):
    """Plan a payload block: (header bytes, entry offsets, total size)."""
    entries = []
    canon: Dict[str, np.ndarray] = {}
    for key in sorted(arrays):
        arr = _canon(arrays[key])
        canon[key] = arr
        entries.append({"key": key, "dtype": arr.dtype.str,
                        "shape": list(arr.shape), "nbytes": arr.nbytes})
    # offsets depend on the header length, which depends on the offsets'
    # digit count -- iterate to the fixed point (the length is weakly
    # increasing in itself, so this converges in a couple of rounds)
    header = json.dumps(entries, separators=(",", ":")).encode()
    for _ in range(8):
        cursor = _HEADER_LEN.size + len(header)
        for ent in entries:
            cursor = (cursor + _ALIGN - 1) // _ALIGN * _ALIGN
            ent["offset"] = cursor
            cursor += ent["nbytes"]
        new_header = json.dumps(entries, separators=(",", ":")).encode()
        if len(new_header) == len(header):
            header = new_header
            break
        header = new_header
    else:  # pragma: no cover - the fixed point is reached in practice
        raise ValueError("payload header layout did not converge")
    return canon, entries, header, cursor


# -- session registry (crash reconciliation) -------------------------------


def _registry_dir() -> str:
    return os.path.join(tempfile.gettempdir(), "repro-shm")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


def reconcile_stale_sessions(registry_dir: Optional[str] = None) -> int:
    """Unlink blocks left behind by dead arena sessions; returns count.

    Every arena writes a session file naming its live blocks.  A parent
    that died without :meth:`ShmArena.close` (SIGKILL) leaves the file;
    this sweep -- run by every new arena, or standalone -- unlinks those
    blocks and removes the file.  Sessions whose pid is still alive are
    left alone.
    """
    rdir = registry_dir or _registry_dir()
    if not os.path.isdir(rdir):
        return 0
    cleaned = 0
    for fname in sorted(os.listdir(rdir)):
        if not (fname.startswith("session-") and fname.endswith(".json")):
            continue
        path = os.path.join(rdir, fname)
        try:
            with open(path) as fh:
                session = json.load(fh)
            pid = int(session.get("pid", -1))
            names = list(session.get("names", []))
        except (OSError, ValueError):
            continue
        if pid > 0 and _pid_alive(pid):
            continue
        for name in names:
            try:
                seg = attach_untracked(name)
            except FileNotFoundError:
                continue
            except OSError:
                continue
            try:
                seg.unlink()
            except (OSError, FileNotFoundError):
                pass
            seg.close()
            cleaned += 1
        try:
            os.unlink(path)
        except OSError:
            pass
    return cleaned


def _cleanup_session(owned: Dict[str, shared_memory.SharedMemory],
                     session_path: str) -> None:
    """Unlink every owned block (finalizer-safe: no arena reference)."""
    for shm in list(owned.values()):
        try:
            shm.unlink()
        except (OSError, FileNotFoundError):
            pass
        try:
            shm.close()
        except (OSError, BufferError):
            pass
    owned.clear()
    try:
        os.unlink(session_path)
    except OSError:
        pass


@dataclass
class _Block:
    handle: ShmHandle
    shm: shared_memory.SharedMemory
    live_attached: int = 0         # attachments reported by live workers
    attach_total: int = 0          # cumulative, survives pool restarts


class ShmArena:
    """Parent-owned registry of published shared-memory blocks.

    Thread-safe; all methods are cheap after the first publish of a
    tag (a dict lookup).  ``budget_bytes=None`` is unbounded; a publish
    that would exceed a finite budget returns ``None`` so callers fall
    back to pipe shipping.
    """

    def __init__(self, budget_bytes: Optional[int] = None,
                 registry_dir: Optional[str] = None,
                 reconcile: bool = True):
        if budget_bytes is not None and budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0")
        self.budget_bytes = budget_bytes
        self._lock = threading.Lock()
        self._blocks: Dict[str, _Block] = {}
        self._bytes = 0
        self.publishes = 0
        self.publish_failures = 0
        self.releases = 0
        self.attach_total = 0
        self._registry_dir = registry_dir or _registry_dir()
        os.makedirs(self._registry_dir, exist_ok=True)
        if reconcile:
            try:
                reconcile_stale_sessions(self._registry_dir)
            except OSError:
                pass
        self._session_path = os.path.join(
            self._registry_dir,
            f"session-{os.getpid()}-{secrets.token_hex(4)}.json")
        #: name -> SharedMemory, shared with the finalizer so unlink
        #: happens even if the arena is dropped without close()
        self._owned: Dict[str, shared_memory.SharedMemory] = {}
        self._write_session()
        self._finalizer = weakref.finalize(
            self, _cleanup_session, self._owned, self._session_path)
        self.closed = False

    # -- publishing ------------------------------------------------------

    def handle(self, tag: str) -> Optional[ShmHandle]:
        """The published handle for ``tag``, or ``None``."""
        with self._lock:
            block = self._blocks.get(tag)
            return block.handle if block is not None else None

    def publish_payload(self, tag: str, arrays: Mapping[str, np.ndarray],
                        meta: Optional[Mapping[str, str]] = None
                        ) -> Optional[ShmHandle]:
        """Publish named arrays under ``tag`` (idempotent per tag).

        The entries are laid out uncompressed behind a JSON header so
        :func:`attach_payload` can hand back zero-copy views -- the
        in-memory analogue of an io-v3 archive, minus the compression.
        Returns the handle, or ``None`` when the byte budget refuses
        the block (callers fall back to pipe shipping).
        """
        canon, entries, header, total = _pack_layout(arrays)
        with self._lock:
            block = self._blocks.get(tag)
            if block is not None:
                return block.handle
            shm = self._create_locked(total)
            if shm is None:
                return None
            _HEADER_LEN.pack_into(shm.buf, 0, len(header))
            shm.buf[_HEADER_LEN.size:_HEADER_LEN.size + len(header)] = header
            for ent in entries:
                arr = canon[ent["key"]]
                if not arr.nbytes:
                    continue
                view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf,
                                  offset=ent["offset"])
                view[...] = arr
            handle = ShmHandle(
                name=shm.name, tag=tag, nbytes=total,
                checksum=_checksum(shm.buf[:total]),
                meta=tuple(sorted((str(k), str(v))
                           for k, v in (meta or {}).items())))
            self._admit_locked(tag, handle, shm)
            return handle

    def _create_locked(self, nbytes: int
                       ) -> Optional[shared_memory.SharedMemory]:
        if self.closed:
            self.publish_failures += 1
            return None
        size = max(int(nbytes), 1)
        if self.budget_bytes is not None \
                and self._bytes + size > self.budget_bytes:
            self.publish_failures += 1
            return None
        try:
            shm = shared_memory.SharedMemory(
                create=True, size=size,
                name=f"repro-{os.getpid()}-{secrets.token_hex(6)}")
        except OSError:
            self.publish_failures += 1
            return None
        return shm

    def _admit_locked(self, tag: str, handle: ShmHandle,
                      shm: shared_memory.SharedMemory) -> None:
        self._blocks[tag] = _Block(handle=handle, shm=shm)
        self._owned[shm.name] = shm
        self._bytes += shm.size
        self.publishes += 1
        self._write_session()

    # -- release / close -------------------------------------------------

    def release(self, tag: str) -> bool:
        """Unlink one block now; returns True if it existed.

        Workers already attached keep valid mappings (POSIX unlink
        removes the name, not the pages); new attaches fail and fall
        back to the store / rebuild / pipe path.
        """
        with self._lock:
            block = self._blocks.pop(tag, None)
            if block is None:
                return False
            self._owned.pop(block.shm.name, None)
            self._bytes -= block.shm.size
            self.releases += 1
            self._write_session()
        try:
            block.shm.unlink()
        except (OSError, FileNotFoundError):
            pass
        try:
            block.shm.close()
        except (OSError, BufferError):
            pass
        return True

    def release_fingerprint(self, fingerprint: str) -> int:
        """Drop a dataset's block and every index payload built from it."""
        return self._release_prefixes((DATASET_PREFIX + fingerprint,
                                       INDEX_PREFIX + fingerprint + "-"))

    def release_indexes(self, fingerprint: Optional[str] = None) -> int:
        """Drop index payload blocks (one dataset's, or all of them)."""
        prefix = (INDEX_PREFIX if fingerprint is None
                  else INDEX_PREFIX + fingerprint + "-")
        return self._release_prefixes((prefix,))

    def _release_prefixes(self, prefixes: Tuple[str, ...]) -> int:
        with self._lock:
            doomed = [t for t in self._blocks
                      if any(t == p or t.startswith(p) for p in prefixes)]
        return sum(self.release(tag) for tag in doomed)

    def close(self) -> None:
        """Unlink every block and retire the session file (idempotent)."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            self._blocks.clear()
            self._bytes = 0
        _cleanup_session(self._owned, self._session_path)
        self._finalizer.detach()

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- attachment accounting -------------------------------------------

    def note_attaches(self, tags: Iterable[str]) -> None:
        """Fold worker-reported attachments into the per-block refcounts."""
        with self._lock:
            for tag in tags:
                self.attach_total += 1
                block = self._blocks.get(tag)
                if block is not None:
                    block.live_attached += 1
                    block.attach_total += 1

    def reset_live_attachments(self) -> None:
        """A pool restart dropped every worker mapping: zero the gauges."""
        with self._lock:
            for block in self._blocks.values():
                block.live_attached = 0

    # -- introspection ---------------------------------------------------

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "enabled": True,
                "blocks": len(self._blocks),
                "bytes": self._bytes,
                "budget_bytes": self.budget_bytes,
                "publishes": self.publishes,
                "publish_failures": self.publish_failures,
                "releases": self.releases,
                "attach_total": self.attach_total,
                "tags": {tag: {"nbytes": b.handle.nbytes,
                               "live_attached": b.live_attached,
                               "attach_total": b.attach_total}
                         for tag, b in self._blocks.items()},
            }

    def block_names(self):
        """OS-level names of the live blocks (tests probe these)."""
        with self._lock:
            return sorted(self._owned)

    def _write_session(self) -> None:
        try:
            tmp = self._session_path + ".tmp"
            with open(tmp, "w") as fh:
                json.dump({"pid": os.getpid(),
                           "names": sorted(self._owned)}, fh)
            os.replace(tmp, self._session_path)
        except OSError:
            pass

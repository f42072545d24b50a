"""Shared-memory data plane for the process backend.

:class:`ShmArena` publishes dataset segments and prebuilt index
payloads into ``multiprocessing.shared_memory`` blocks keyed by
fingerprint -- one layout for both, named arrays behind a JSON header
-- hands out picklable :class:`ShmHandle`\\ s, and guarantees
unlink-on-close (session-registry reconciliation covers even a crashed
parent).  Workers attach with :func:`attach_payload` -- zero-copy
read-only views over the same physical pages, so per-job IPC bytes
stay flat in dataset size.
"""

from .arena import (DATASET_PREFIX, INDEX_PREFIX, Attachment, ShmArena,
                    ShmHandle, ShmIntegrityError, attach_payload,
                    attach_untracked, reconcile_stale_sessions)

__all__ = ["DATASET_PREFIX", "INDEX_PREFIX", "Attachment", "ShmArena",
           "ShmHandle", "ShmIntegrityError", "attach_payload",
           "attach_untracked", "reconcile_stale_sessions"]

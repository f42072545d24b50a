"""Structure serialization: save/load the built indexes as ``.npz``.

Builds are deterministic but not free; a downstream user indexing a
large map wants to build once and reload.  Every structure serialises
to a single compressed NumPy archive with a format tag and version, and
loads back bit-identically (round-trip equality is a test invariant).
Sharded indexes (:class:`~repro.structures.sharded.ShardedIndex`)
flatten into the same archive: each shard's tree arrays are stored
under an ``s{i}_`` key prefix next to the shard's global id range, so
shard boundaries survive the round trip exactly.

Format v3 embeds integrity metadata in the archive itself: a SHA-256
``checksum`` over every payload entry (key, dtype, shape, bytes) and a
``params`` JSON blob carrying the build parameters.  This is the one
integrity format shared by standalone :func:`save_structure` files and
the :mod:`repro.store` disk cache -- a store manifest records the same
checksum that the archive carries, so either side can detect torn or
tampered files.  v2 archives (no checksum) still load.
"""

from __future__ import annotations

import hashlib
import io as _io
import json
import os
from typing import Dict, Optional, Union

import numpy as np

from .quadblock import Quadtree
from .rtree import RTree
from .sharded import Shard, ShardedIndex

__all__ = ["save_structure", "load_structure", "payload_checksum",
           "structure_payload", "payload_to_tree",
           "inspect_structure", "IntegrityError"]

_FORMAT_VERSION = 3

#: archive entries excluded from the checksum (the checksum itself)
_UNCHECKED = frozenset({"checksum"})

PathLike = Union[str, os.PathLike, _io.IOBase]


class IntegrityError(ValueError):
    """A stored archive failed its embedded checksum."""


def payload_checksum(payload: Dict[str, np.ndarray]) -> str:
    """SHA-256 over the archive payload, independent of entry order.

    Hashes each entry's key, dtype, shape, and raw bytes in sorted key
    order, skipping the ``checksum`` entry itself, so the digest can be
    recomputed from a loaded archive and compared to the stored one.
    """
    h = hashlib.sha256()
    for key in sorted(payload):
        if key in _UNCHECKED:
            continue
        arr = np.asarray(payload[key])
        h.update(key.encode())
        h.update(b"\x00")
        h.update(arr.dtype.str.encode())
        h.update(str(arr.shape).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _tree_payload(tree, prefix: str = "") -> Dict[str, np.ndarray]:
    """Flatten one tree into archive entries under ``prefix``."""
    if isinstance(tree, Quadtree):
        return {
            f"{prefix}kind": np.array("quadtree"),
            f"{prefix}lines": tree.lines, f"{prefix}boxes": tree.boxes,
            f"{prefix}level": tree.level, f"{prefix}parent": tree.parent,
            f"{prefix}children": tree.children,
            f"{prefix}node_ptr": tree.node_ptr,
            f"{prefix}node_lines": tree.node_lines,
            f"{prefix}meta": np.array([tree.domain, float(tree.max_depth)]),
        }
    if isinstance(tree, RTree):
        payload = {
            f"{prefix}kind": np.array("rtree"),
            f"{prefix}lines": tree.lines,
            f"{prefix}entry_bbox": tree.entry_bbox,
            f"{prefix}line_leaf": tree.line_leaf,
            f"{prefix}meta": np.array([float(tree.m), float(tree.M),
                                       float(tree.height)]),
        }
        for i, mbr in enumerate(tree.level_mbr):
            payload[f"{prefix}mbr_{i}"] = mbr
        for i, par in enumerate(tree.level_parent):
            payload[f"{prefix}parent_{i}"] = par
        return payload
    raise TypeError(f"cannot serialise {type(tree).__name__}")


def _load_tree(data, prefix: str = ""):
    """Rebuild one tree from archive entries under ``prefix``."""
    kind = str(data[f"{prefix}kind"])
    if kind == "quadtree":
        domain, max_depth = data[f"{prefix}meta"]
        return Quadtree(
            lines=data[f"{prefix}lines"], boxes=data[f"{prefix}boxes"],
            level=data[f"{prefix}level"], parent=data[f"{prefix}parent"],
            children=data[f"{prefix}children"],
            node_ptr=data[f"{prefix}node_ptr"],
            node_lines=data[f"{prefix}node_lines"],
            domain=float(domain), max_depth=int(max_depth),
        )
    if kind == "rtree":
        m, M, height = (int(v) for v in data[f"{prefix}meta"])
        level_mbr = [data[f"{prefix}mbr_{i}"] for i in range(height)]
        level_parent = [data[f"{prefix}parent_{i}"] for i in range(height - 1)]
        return RTree(
            lines=data[f"{prefix}lines"],
            entry_bbox=data[f"{prefix}entry_bbox"],
            line_leaf=data[f"{prefix}line_leaf"], level_mbr=level_mbr,
            level_parent=level_parent, m=m, M=M,
        )
    raise ValueError(f"unknown structure kind {kind!r}")


def _full_payload(tree, params: Optional[dict]) -> Dict[str, np.ndarray]:
    if isinstance(tree, ShardedIndex):
        payload = {
            "kind": np.array("sharded"),
            "lines": tree.lines,
            "structure": np.array(tree.structure),
            "ordering": np.array(tree.ordering),
            "meta": np.array([tree.domain, float(tree.num_shards)]),
            "shard_mbrs": tree.shard_mbrs(),
        }
        for i, shard in enumerate(tree.shards):
            payload[f"s{i}_ids"] = shard.ids
            payload.update(_tree_payload(shard.tree, prefix=f"s{i}_"))
    else:
        payload = _tree_payload(tree)
    payload["version"] = np.array([_FORMAT_VERSION])
    payload["params"] = np.array(
        json.dumps(params or {}, sort_keys=True, default=str))
    return payload


def structure_payload(tree, params: Optional[dict] = None
                      ) -> Dict[str, np.ndarray]:
    """The archive payload of a tree as an in-memory dict of arrays.

    Exactly what :func:`save_structure` would write (format tag,
    params JSON, flattened tree arrays -- no checksum entry), so the
    same entries can be checksummed or reconstructed with
    :func:`payload_to_tree` without a file.
    """
    return _full_payload(tree, params)


def payload_to_tree(data):
    """Rebuild a structure from a payload mapping.

    ``data`` maps archive entry names to arrays -- a loaded ``.npz``
    or a :func:`structure_payload` dict.
    """
    kind = str(data["kind"])
    if kind == "sharded":
        domain, num_shards = data["meta"]
        mbrs = data["shard_mbrs"]
        shards = [
            Shard(ids=data[f"s{i}_ids"], mbr=mbrs[i],
                  tree=_load_tree(data, prefix=f"s{i}_"))
            for i in range(int(num_shards))
        ]
        return ShardedIndex(
            lines=data["lines"], domain=float(domain),
            structure=str(data["structure"]),
            ordering=str(data["ordering"]), shards=shards,
        )
    return _load_tree(data)


def save_structure(tree, path: PathLike,
                   params: Optional[dict] = None) -> str:
    """Serialise a :class:`Quadtree`, :class:`RTree`, or
    :class:`ShardedIndex` to ``path``; returns the payload checksum.

    The file is a compressed ``.npz`` with a ``kind`` tag; scalar
    parameters travel in a small metadata vector.  ``params`` (e.g.
    the build parameters that produced the tree) is embedded as a JSON
    blob, and a SHA-256 ``checksum`` over the whole payload lets
    :func:`load_structure` detect corruption.
    """
    payload = _full_payload(tree, params)
    checksum = payload_checksum(payload)
    payload["checksum"] = np.array(checksum)
    np.savez_compressed(path, **payload)
    return checksum


def load_structure(path: PathLike, verify: bool = True):
    """Load a structure saved by :func:`save_structure`.

    For v3+ archives the embedded checksum is recomputed and compared
    (set ``verify=False`` to skip); a mismatch raises
    :class:`IntegrityError`.  v2 archives carry no checksum and load
    as before.
    """
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"][0])
        if version > _FORMAT_VERSION:
            raise ValueError(f"file format v{version} is newer than this library")
        if version >= 3 and verify:
            if "checksum" not in data.files:
                raise IntegrityError("v3 archive is missing its checksum")
            want = str(data["checksum"])
            got = payload_checksum({k: data[k] for k in data.files})
            if got != want:
                raise IntegrityError(
                    f"archive checksum mismatch: stored {want[:12]}..., "
                    f"recomputed {got[:12]}...")
        return payload_to_tree(data)


def inspect_structure(path: PathLike) -> Dict[str, object]:
    """Cheap metadata peek: version, kind, params, stored checksum.

    Reads only the small entries -- no tree arrays are materialised
    and no checksum is verified (use :func:`load_structure` for that).
    """
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"][0])
        out: Dict[str, object] = {
            "version": version,
            "kind": str(data["kind"]),
            "checksum": (str(data["checksum"])
                         if "checksum" in data.files else None),
            "params": (json.loads(str(data["params"]))
                       if "params" in data.files else {}),
        }
        return out

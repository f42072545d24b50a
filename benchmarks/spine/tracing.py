"""In-memory spans around calls into each layer's public functions.

The program is traced from the outside: :func:`wrap_public` replaces a
public function of ``repro`` with a recording wrapper in every
``repro.*`` module that imported it (callers use ``from ... import``,
so patching the defining module alone would miss them).  Nothing under
``src/`` is edited; an untraced run never imports this module.

A span is ``[name, start, end, parent, op_id]``.  ``parent`` is the
enclosing span *on the same thread*, so work handed to another thread
starts a new root there.  ``op_id`` is the benchmark op in flight
(``-1`` outside the timed region).  Self time of a span is its duration
minus its direct children's.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Optional, Tuple

NAME, START, END, PARENT, OP = range(5)


class Recorder:
    def __init__(self) -> None:
        self.spans: list = []
        self.op_id = -1
        self._local = threading.local()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, fn: Callable, name: str,
             on_result: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as span ``name``; ``on_result`` sees its value."""
        spans, stack_of = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            rec = [name, perf_counter(), 0.0,
                   stack[-1] if stack else None, self.op_id]
            spans.append(rec)
            stack.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """One recorded call from the benchmark's own code."""
        return self.wrap(fn, name)(*args, **kwargs)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """name -> (self seconds, calls) over spans of timed ops."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec[PARENT] is not None:
                child[id(rec[PARENT])] += rec[END] - rec[START]
        out: Dict[str, list] = defaultdict(lambda: [0.0, 0])
        for rec in self.spans:
            if rec[OP] < 0:
                continue
            acc = out[rec[NAME]]
            acc[0] += rec[END] - rec[START] - child[id(rec)]
            acc[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def coverage(self, op_name: str) -> float:
        """Share of op time attributed to a span below the op span."""
        times = self.self_times()
        op_self = times.get(op_name, (0.0, 0))[0]
        total = sum(rec[END] - rec[START] for rec in self.spans
                    if rec[NAME] == op_name and rec[OP] >= 0)
        return (total - op_self) / total if total else 0.0

    def flush(self, path) -> int:
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        with open(path, "w") as fh:
            for rec in self.spans:
                parent = rec[PARENT]
                fh.write(json.dumps({
                    "name": rec[NAME], "start": rec[START], "end": rec[END],
                    "parent": None if parent is None else index[id(parent)],
                    "op_id": rec[OP]}) + "\n")
        return len(self.spans)


def wrap_public(rec: Recorder, fn: Callable, name: str,
                on_result: Optional[Callable] = None) -> int:
    """Rebind every ``repro.*`` module attribute that is ``fn``."""
    traced = rec.wrap(fn, name, on_result)
    rebound = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro"
                               or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, traced)
                rebound += 1
    if not rebound:
        raise LookupError(f"no repro module exposes {name}")
    return rebound


def wrap_method(rec: Recorder, cls: type, attr: str, name: str,
                on_result: Optional[Callable] = None) -> None:
    setattr(cls, attr, rec.wrap(getattr(cls, attr), name, on_result))


# -- which public functions make up which layer metric -----------------------

def wrap_build_layers(rec: Recorder) -> None:
    """machine + primitives: every scan-model call of a build is a span."""
    from repro import machine, primitives

    groups = {
        "machine.scan": (machine.seg_scan, machine.up_scan,
                         machine.down_scan),
        "machine.permute": (machine.permute, machine.gather,
                            machine.scatter),
        "machine.sort": (machine.rank, machine.sort, machine.seg_rank,
                         machine.seg_sort, machine.split_radix_sort),
        "machine.ew": (machine.ew, machine.ew_where),
        "primitives.clone": (primitives.clone,),
        "primitives.unshuffle": (primitives.unshuffle,),
        "primitives.dupdelete": (primitives.mark_duplicates,
                                 primitives.delete_duplicates),
        "primitives.capacity": (primitives.node_counts,
                                primitives.overflowing_nodes,
                                primitives.overflow_per_line),
        "primitives.quad_split": (primitives.split_quad_nodes,),
        "primitives.pm1_split": (primitives.pm1_should_split,),
        "primitives.rtree_split": (primitives.mean_split,
                                   primitives.sweep_split,
                                   primitives.prefix_suffix_boxes),
    }
    for name, fns in groups.items():
        for fn in fns:
            wrap_public(rec, fn, name)

"""Shared iterative driver for the data-parallel quadtree builds.

Both quadtree constructions of Section 5 are the same loop -- decide
which nodes split, split them all simultaneously with the Section 4.6
primitive, repeat -- differing only in the *splitting rule*:

* PM1 (Section 5.1): the vertex-based rule of Section 4.5;
* bucket PMR (Section 5.2): the capacity check of Section 4.4, cut off
  at the maximal resolution.

The driver owns the line-vector / node-table correspondence: every
non-empty node has exactly one segment group; nodes created empty by a
split are recorded as (line-less) leaves.  It also keeps a per-round
trace so the scaling benchmarks can count rounds and primitive steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from ..geometry.generators import check_power_of_two
from ..geometry.segment import validate_segments
from ..machine import Machine, Segments, get_machine
from ..primitives.quad_split import split_quad_nodes
from .quadblock import NodeTable, Quadtree

__all__ = ["BuildTrace", "RoundStats", "build_quadtree", "split_rounds"]

# A splitting rule maps the current build state to one verdict per node
# segment: (segs_xy, segments, node_boxes, node_levels, machine) -> bool[nseg]
SplitRule = Callable[[np.ndarray, Segments, np.ndarray, np.ndarray, Machine], np.ndarray]


@dataclass(frozen=True)
class RoundStats:
    """One subdivision round of a build."""

    round_index: int
    nodes_split: int
    line_processors: int
    steps_before: float
    steps_after: float

    @property
    def steps(self) -> float:
        return self.steps_after - self.steps_before


@dataclass
class BuildTrace:
    """Per-round history of a build (experiments C1-C3 read this)."""

    rounds: List[RoundStats] = field(default_factory=list)

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def total_steps(self) -> float:
        return sum(r.steps for r in self.rounds)

    @property
    def max_line_processors(self) -> int:
        return max((r.line_processors for r in self.rounds), default=0)


def build_quadtree(lines: np.ndarray, domain: int, rule: SplitRule,
                   max_depth: Optional[int] = None,
                   machine: Optional[Machine] = None) -> tuple[Quadtree, BuildTrace]:
    """Run the iterative data-parallel quadtree construction.

    Parameters
    ----------
    lines:
        ``(n, 4)`` input segments, all inside ``[0, domain]^2``.
    domain:
        Side of the space; a power of two.
    rule:
        Splitting rule (see :data:`SplitRule`).
    max_depth:
        Subdivision cap; defaults to ``log2(domain)`` (1x1 blocks), "the
        maximal resolution of the quadtree".
    """
    domain = check_power_of_two(domain)
    lines = validate_segments(lines)
    if lines.size:
        if lines.min() < 0 or lines.max() > domain:
            raise ValueError("line coordinates must lie inside [0, domain]^2")
    depth_cap = int(np.log2(domain)) if max_depth is None else int(max_depth)
    if not 0 <= depth_cap <= int(np.log2(domain)):
        raise ValueError("max_depth must be between 0 and log2(domain)")

    m = machine or get_machine()
    table = NodeTable(domain)
    n = lines.shape[0]
    trace = BuildTrace()
    # a fresh build is the seeded loop started from the lone root
    seg_node, lid, segments = split_rounds(
        table, lines, np.arange(n, dtype=np.int64), Segments.single(n),
        np.zeros(1 if n else 0, dtype=np.int64), rule, depth_cap, m, trace)

    # assemble the CSR line assignment over the full node table
    node_ptr, node_lines = table.assign(seg_node, segments.lengths, lid)
    tree = Quadtree(lines, *table.freeze(), node_ptr, node_lines, float(domain), depth_cap)
    return tree, trace


def split_rounds(table: NodeTable, lines: np.ndarray, lid: np.ndarray,
                 segments: Segments, seg_node: np.ndarray, rule: SplitRule,
                 depth_cap: int, m: Machine,
                 trace: Optional[BuildTrace] = None
                 ) -> tuple[np.ndarray, np.ndarray, Segments]:
    """The round loop -- rule, simultaneous split, node-table descent --
    from any seeded state.

    ``lid`` lists line ids grouped by ``segments``; group ``s`` belongs
    to leaf ``seg_node[s]`` of ``table``.  Rounds run until the rule
    (cut off at ``depth_cap``) splits nothing; returns the final
    ``(seg_node, lid, segments)``.  A fresh build seeds the lone root
    with every line; a warm start (:mod:`repro.structures.dynamic`)
    seeds only the leaves a batch made overflow.
    """
    trace = trace if trace is not None else BuildTrace()
    segs_xy = lines[lid]
    round_index = 0
    while segments.n:   # an empty map keeps the lone root and asks the rule nothing
        node_boxes = table.boxes[seg_node]
        node_levels = table.level[seg_node]

        with m.phase(f"round{round_index}"):
            verdict = np.asarray(
                rule(segs_xy, segments, node_boxes, node_levels, m), dtype=bool)
            if verdict.shape != (segments.nseg,):
                raise ValueError("splitting rule must return one verdict per segment")
            split_flags = verdict & (node_levels < depth_cap)
            if not split_flags.any():
                break

            steps_before = m.steps
            res = split_quad_nodes(segs_xy, node_boxes, segments, split_flags,
                                   payloads={"lid": lid}, machine=m)

        # node-table update: every splitting node gains all four children
        seg_node = table.descend(seg_node, split_flags, res.parent_seg, res.child_code)
        segs_xy = res.segs_xy
        lid = res.payloads["lid"]
        segments = res.segments

        trace.rounds.append(RoundStats(
            round_index, int(split_flags.sum()), segments.n,
            steps_before, m.steps))
        round_index += 1
        if round_index > depth_cap + 1:
            raise RuntimeError("build failed to terminate within the depth cap")
    return seg_node, lid, segments

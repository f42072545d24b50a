"""Model-based check of the registry's version chains.

A hypothesis ``RuleBasedStateMachine`` drives one
:class:`~repro.engine.IndexRegistry` through the write path --
registering a second root, inserts, deletes, *deleting what was just
inserted*, mutating one root into the other's content, pinning and
unpinning past versions -- against a single-threaded model that tracks
**content per version per root as plain arrays**, never fingerprints:
the defect this guards against (a commit that returns the map to
earlier content was acknowledged but never became a version) is
invisible to any oracle that compares fingerprints.

Checked after every rule: the head's version number and rows, every
version inside the retention window (or pinned) still holding exactly
its rows, and the number of held datasets bounded by windows + pins.
The ``replay`` rule re-runs the op list -- what a journal would hold --
into a fresh registry and compares heads.

Registry-level, single-threaded, no sleeps; the engine-level machine
(re-shard, drain, worker crash) is ROADMAP's.  A failing example prints
its ``@reproduce_failure`` blob.
"""

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.engine import IndexRegistry

DOMAIN = 64
RETAINED = 2

coords = st.integers(0, DOMAIN - 1)
rows_st = st.lists(st.tuples(coords, coords, coords, coords),
                   min_size=1, max_size=3)


def as_rows(rows):
    return np.asarray(rows, dtype=np.float64).reshape(-1, 4)


def apply_batch(head, ins, dels):
    keep = np.ones(head.shape[0], dtype=bool)
    keep[dels] = False
    return np.vstack([head[keep], ins])


class VersionChains(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.reg = IndexRegistry(capacity=4, versions_retained=RETAINED)
        self.model = []        # per root: [rows at version 0, 1, ...]
        self.handles = []      # per root: the fingerprint register() gave
        self.ops = []          # ("register", rows) | ("mutate", i, ins, dels)
        self.pins = []         # (fingerprint, rows) held by pin()
        self.last_insert = {}  # root index -> rows its latest commit added
        self._register(as_rows([(1, 1, 9, 9), (2, 8, 30, 8), (5, 5, 5, 40)]))

    # -- helpers -----------------------------------------------------------

    def _register(self, rows):
        self.handles.append(self.reg.register(rows, domain=DOMAIN))
        self.model.append([rows])
        self.ops.append(("register", rows))

    def _mutate(self, i, ins, dels):
        head = self.model[i][-1]
        new = apply_batch(head, ins, dels)
        info = self.reg.mutate(self.handles[i], insert=ins, delete_ids=dels)
        self.ops.append(("mutate", i, ins, dels))
        self.last_insert.pop(i, None)
        if not np.array_equal(new, head):     # unchanged content: no version
            self.model[i].append(new)
            if ins.shape[0]:
                self.last_insert[i] = ins.shape[0]
        assert info.version == len(self.model[i]) - 1
        assert info.num_lines == self.model[i][-1].shape[0]

    def _seen(self, rows):
        return any(np.array_equal(rows, held)
                   for chain in self.model for held in chain)

    # -- rules -------------------------------------------------------------

    @precondition(lambda self: len(self.model) == 1)
    @rule(rows=rows_st)
    def register_second_root(self, rows):
        rows = as_rows(rows)
        if not self._seen(rows):    # else: a handle into the first chain
            self._register(rows)

    @rule(data=st.data(), rows=rows_st)
    def insert(self, data, rows):
        i = data.draw(st.integers(0, len(self.model) - 1))
        self._mutate(i, as_rows(rows), np.zeros(0, dtype=np.int64))

    @rule(data=st.data())
    def delete(self, data):
        i = data.draw(st.integers(0, len(self.model) - 1))
        n = self.model[i][-1].shape[0]
        if n:
            dels = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                      max_size=3))
            self._mutate(i, np.zeros((0, 4)), np.unique(dels))

    @precondition(lambda self: self.last_insert)
    @rule(data=st.data())
    def delete_what_was_just_inserted(self, data):
        i = data.draw(st.sampled_from(sorted(self.last_insert)))
        n = self.model[i][-1].shape[0]
        self._mutate(i, np.zeros((0, 4)),
                     np.arange(n - self.last_insert[i], n))

    @precondition(lambda self: len(self.model) == 2)
    @rule(i=st.integers(0, 1))
    def mutate_into_the_other_roots_content(self, i):
        target = self.model[1 - i][-1]
        self._mutate(i, target, np.arange(self.model[i][-1].shape[0]))

    @rule(data=st.data())
    def pin_a_retained_version(self, data):
        i = data.draw(st.integers(0, len(self.model) - 1))
        chain = self.reg.history(self.handles[i])
        v = data.draw(st.integers(max(len(chain) - RETAINED, 0),
                                  len(chain) - 1))
        self.reg.pin(chain[v])
        self.pins.append((chain[v], self.model[i][v]))

    @precondition(lambda self: self.pins)
    @rule(data=st.data())
    def unpin(self, data):
        fp, _ = self.pins.pop(data.draw(
            st.integers(0, len(self.pins) - 1)))
        self.reg.unpin(fp)

    @rule()
    def replay(self):
        fresh = IndexRegistry(capacity=4, versions_retained=RETAINED)
        handles = []
        for op in self.ops:
            if op[0] == "register":
                handles.append(fresh.register(op[1], domain=DOMAIN))
            else:
                _, i, ins, dels = op
                fresh.mutate(handles[i], insert=ins, delete_ids=dels)
        for mine, theirs in zip(self.handles, handles):
            live, again = self.reg.resolve(mine), fresh.resolve(theirs)
            assert again == live
            assert np.array_equal(fresh.dataset(again.fingerprint),
                                  self.reg.dataset(live.fingerprint))

    # -- invariants --------------------------------------------------------

    @invariant()
    def heads_and_windows_hold_the_models_rows(self):
        for handle, versions in zip(self.handles, self.model):
            head = self.reg.resolve(handle)
            assert head.version == len(versions) - 1
            assert np.array_equal(self.reg.dataset(head.fingerprint),
                                  versions[-1])
            chain = self.reg.history(handle)
            assert len(chain) == len(versions)
            for v in range(max(len(chain) - RETAINED, 0), len(chain)):
                assert np.array_equal(self.reg.dataset(chain[v]),
                                      versions[v]), (handle, v)

    @invariant()
    def pinned_versions_keep_their_rows(self):
        for fp, rows in self.pins:
            assert np.array_equal(self.reg.dataset(fp), rows)

    @invariant()
    def held_datasets_are_bounded(self):
        windows = sum(min(len(v), RETAINED) for v in self.model)
        held = self.reg.snapshot()["datasets"]
        assert held <= windows + len(self.pins), (held, windows, self.pins)


TestVersionChains = VersionChains.TestCase
TestVersionChains.settings = settings(max_examples=30,
                                      stateful_step_count=30,
                                      deadline=None, print_blob=True)

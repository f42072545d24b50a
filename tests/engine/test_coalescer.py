"""The coalescer's two triggers, its groups and its shutdown.

Every cell waits on a :class:`threading.Event` set by the flush
callback, never on a sleep: the count trigger and ``max_wait=0`` flush
on the submitting thread before ``submit`` returns, and the deadline
trigger is the only path that needs the watcher thread.
"""

import threading

import pytest

from repro.engine import Coalescer, Probe, RejectedError


class Recorder:
    """A flush callback that logs every batch and who flushed it."""

    def __init__(self):
        self.batches = []
        self.flushed = threading.Event()

    def __call__(self, key, probes):
        self.batches.append((key, [p.payload for p in probes],
                             threading.get_ident()))
        self.flushed.set()


@pytest.fixture
def make():
    made = []

    def _make(**kw):
        rec = Recorder()
        co = Coalescer(rec, **kw)
        made.append(co)
        return co, rec

    yield _make
    for co in made:
        co.close()


def test_count_trigger_flushes_synchronously_on_the_submitter(make):
    co, rec = make(max_batch=3, max_wait=60.0)
    co.submit("k", Probe(1))
    co.submit("k", Probe(2))
    assert rec.batches == [] and co.pending == 2
    co.submit("k", Probe(3))
    # no wait: the third submit dispatched the group before returning
    assert rec.batches == [("k", [1, 2, 3], threading.get_ident())]
    assert co.pending == 0


def test_deadline_trigger_releases_a_lone_probe(make):
    co, rec = make(max_batch=64, max_wait=0.005)
    co.submit("k", Probe("lone"))
    assert rec.flushed.wait(10)
    ((key, payloads, ident),) = rec.batches
    assert (key, payloads) == ("k", ["lone"])
    assert ident != threading.get_ident()   # the deadline watcher flushed it
    assert co.pending == 0


def test_zero_wait_flushes_every_submit(make):
    co, rec = make(max_batch=64, max_wait=0.0)
    for i in range(3):
        co.submit("k", Probe(i))
        assert co.pending == 0
    assert [(k, p) for k, p, _ in rec.batches] == [("k", [0]), ("k", [1]),
                                                   ("k", [2])]


def test_groups_are_per_key(make):
    co, rec = make(max_batch=2, max_wait=60.0)
    co.submit("a", Probe("a1"))
    co.submit("b", Probe("b1"))
    assert rec.batches == [] and co.pending == 2
    co.submit("a", Probe("a2"))
    assert [(k, p) for k, p, _ in rec.batches] == [("a", ["a1", "a2"])]
    assert co.pending == 1   # b's group waits for its own trigger
    co.submit("b", Probe("b2"))
    assert [(k, p) for k, p, _ in rec.batches][1:] == [("b", ["b1", "b2"])]


def test_close_flushes_pending_then_rejects(make):
    co, rec = make(max_batch=64, max_wait=60.0)
    co.submit("a", Probe(1))
    co.submit("b", Probe(2))
    co.close()
    assert sorted((k, p) for k, p, _ in rec.batches) == [("a", [1]),
                                                         ("b", [2])]
    assert co.pending == 0
    with pytest.raises(RejectedError) as err:
        co.submit("a", Probe(3))
    assert err.value.reason == "closed"

"""The coalescer's three triggers, the cut, its groups and its shutdown.

Every cell waits on a :class:`threading.Event` set by the flush
callback, never on a sleep: ``max_wait=0``, a kick and a drain flush on
the calling thread before the call returns, and the deadline trigger is
the only path that needs the watcher thread.  ``max_batch`` starts no
flush; it cuts a flushed group into jobs.  The kick and drain cells
inject the engine's ``idle`` predicate as a plain flag, so they need no
clock either.
"""

import threading

import pytest

from repro.engine import Coalescer, Probe, RejectedError


class Recorder:
    """A flush callback that logs every batch and who flushed it, and
    the trigger each group was flushed by."""

    def __init__(self):
        self.batches = []
        self.whys = []
        self.flushed = threading.Event()

    def __call__(self, key, probes, why):
        self.batches.append((key, [p.payload for p in probes],
                             threading.get_ident()))
        self.whys.append(why)
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


def test_max_batch_cuts_a_kicked_group_and_starts_none(make):
    co, rec = make(max_batch=3, max_wait=60.0)
    for i in range(7):
        co.submit("k", Probe(i))
    # a full group waits for its trigger like any other
    assert rec.batches == [] and co.pending == 7
    co.kick()
    me = threading.get_ident()
    assert rec.batches == [("k", [0, 1, 2], me), ("k", [3, 4, 5], me),
                           ("k", [6], me)]
    assert rec.whys == ["kick"] * 3 and co.pending == 0


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
    for key, payload in (("a", "a1"), ("b", "b1"), ("a", "a2"),
                         ("a", "a3"), ("b", "b2")):
        co.submit(key, Probe(payload))
    assert rec.batches == [] and co.pending == 5
    co.flush()
    # groups in first-arrival order, each cut on its own
    assert [(k, p) for k, p, _ in rec.batches] == [
        ("a", ["a1", "a2"]), ("a", ["a3"]), ("b", ["b1", "b2"])]
    assert co.pending == 0


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


class Engine:
    """The engine's side of the kick protocol: a settable ``idle``
    predicate and the flush reasons ``on_flush`` reports."""

    def __init__(self):
        self.busy = False
        self.reasons = []

    def idle(self):
        return not self.busy

    def on_flush(self, why, groups):
        self.reasons.append((why, groups))


@pytest.fixture
def make_kicked(make):
    def _make(**kw):
        eng = Engine()
        co, rec = make(idle=eng.idle, on_flush=eng.on_flush, **kw)
        return co, rec, eng

    return _make


def test_kick_on_an_idle_engine_flushes_every_group_at_once(make_kicked):
    co, rec, eng = make_kicked(max_batch=64, max_wait=60.0)
    co.submit("a", Probe(1))
    co.submit("b", Probe(2))
    co.submit("a", Probe(3))
    co.kick()
    me = threading.get_ident()
    assert rec.batches == [("a", [1, 3], me), ("b", [2], me)]
    assert co.pending == 0 and eng.reasons == [("kick", 2)]


def test_kick_while_busy_holds_until_the_drain(make_kicked):
    co, rec, eng = make_kicked(max_batch=64, max_wait=60.0)
    eng.busy = True
    co.submit("a", Probe(1))
    co.submit("b", Probe(2))
    co.kick()
    assert rec.batches == [] and co.pending == 2
    co.submit("a", Probe(3))     # joins its marked group
    co.settled()                 # a group settled, another still runs
    assert rec.batches == [] and co.pending == 3
    eng.busy = False
    co.settled()                 # the last group out drains them all
    me = threading.get_ident()
    assert rec.batches == [("a", [1, 3], me), ("b", [2], me)]
    assert co.pending == 0 and eng.reasons == [("drain", 2)]
    co.settled()                 # nothing marked: nothing to drain
    assert len(rec.batches) == 2


def test_drain_leaves_unkicked_groups_to_count_and_deadline(make_kicked):
    # an unkicked group waits for its deadline, a later kick or flush()
    co, rec, eng = make_kicked(max_batch=64, max_wait=60.0)
    eng.busy = True
    co.submit("a", Probe(1))
    co.kick()
    co.submit("b", Probe(2))     # arrived after the kick: not marked
    eng.busy = False
    co.settled()
    assert [(k, p) for k, p, _ in rec.batches] == [("a", [1])]
    assert co.pending == 1


def test_a_busy_kick_marks_and_the_drain_cuts(make_kicked):
    co, rec, eng = make_kicked(max_batch=2, max_wait=60.0)
    eng.busy = True
    for i in range(5):
        co.submit("k", Probe(i))
    co.kick()
    assert rec.batches == [] and co.pending == 5
    eng.busy = False
    co.settled()
    me = threading.get_ident()
    assert rec.batches == [("k", [0, 1], me), ("k", [2, 3], me),
                           ("k", [4], me)]
    assert eng.reasons == [("drain", 3)] and co.pending == 0


def test_kick_with_nothing_pending_or_after_close_is_a_no_op(make_kicked):
    co, rec, eng = make_kicked(max_batch=64, max_wait=60.0)
    co.kick()
    eng.busy = True
    co.kick()
    co.settled()
    assert rec.batches == [] and eng.reasons == []
    co.submit("k", Probe(1))
    co.close()
    assert eng.reasons == [("flush", 1)]
    eng.busy = False
    co.kick()
    co.settled()
    assert len(rec.batches) == 1 and eng.reasons == [("flush", 1)]


def test_flush_fn_hears_the_trigger(make_kicked):
    co, rec, eng = make_kicked(max_batch=2, max_wait=60.0)
    co.submit("a", Probe(1))
    co.submit("a", Probe(2))     # a full group: no flush
    co.submit("b", Probe(3))
    co.kick()                    # kick, idle: two jobs
    eng.busy = True
    co.submit("c", Probe(4))
    co.kick()                    # marked ...
    eng.busy = False
    co.settled()                 # ... drained
    co.submit("d", Probe(5))
    co.flush()
    assert rec.whys == ["kick", "kick", "drain", "flush"]
    assert eng.reasons == [("kick", 2), ("drain", 1), ("flush", 1)]

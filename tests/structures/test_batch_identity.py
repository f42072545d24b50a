"""The O(frontier) batch kernels give the very answers the old ones gave.

Every kernel of the structure table (by name through
:func:`repro.engine.worker.batch_kernel`) is compared with
``reference_batch`` -- the per-call-``argsort`` / ``np.unique``-loop
kernels it replaced -- array-equal: values, order, dtype ``int64``,
nearest ties by lowest id, and for window and point probes the same
per-batch ``machine`` steps and primitive counts, because the engine's
answers, its ``steps`` / ``primitives`` accounting and the differential
suites stand on them.  Mixed waves (windows, points and nearest probes
in one wave core call) answer every row like the reference kernel of
its kind.  Nearest probes are shrinking squares in the window frontier,
not the reference's branch and bound, so their accounting is pinned by
a frozen golden of its own.  The plain trees' scalar queries are
one-probe waves; they answer like the scalar searches they retired
(kept in ``reference_batch``), visit counts included.
"""

from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.worker import batch_kernel
from repro.extras import build_rtree_str
from repro.geometry import clustered_map, random_segments
from repro.machine import Machine
from repro.structures import batch, build_bucket_pmr, build_pm1, build_rtree

from . import reference_batch

DOMAIN = 512
BATCH_SIZES = (0, 1, 7, 64, 300)


def crossing(seed):
    """Long lines through many blocks: duplicate q-edges across leaves,
    and a shared endpoint fan so nearest probes tie on distance."""
    rng = np.random.default_rng(seed)
    long = np.column_stack([rng.integers(0, 64, 40), rng.integers(0, DOMAIN, 40),
                            rng.integers(448, DOMAIN, 40), rng.integers(0, DOMAIN, 40)])
    fan = np.column_stack([np.full(12, 256), np.full(12, 256),
                           rng.integers(0, DOMAIN, 12), rng.integers(0, DOMAIN, 12)])
    return np.unique(np.concatenate([long, fan]).astype(float), axis=0)


MAPS = {
    "uniform": lambda seed: random_segments(300, DOMAIN, 48, seed=seed),
    "clustered": lambda seed: clustered_map(300, clusters=5, spread=40,
                                            domain=DOMAIN, seed=seed),
    "crossing": crossing,
    "single": lambda seed: np.array([[10.0, 20.0, 200.0, 90.0]]),
}

BUILDS = {
    "pmr": lambda segs: build_bucket_pmr(segs, DOMAIN, 4)[0],
    "pm1": lambda segs: build_pm1(np.unique(segs, axis=0), DOMAIN, max_depth=7)[0],
    "rtree": lambda segs: build_rtree(segs, 2, 6)[0],
    "str": lambda segs: build_rtree_str(segs, 2, 6),
}


@lru_cache(maxsize=None)
def tree_of(map_kind, structure, map_seed):
    return BUILDS[structure](MAPS[map_kind](map_seed))


def family_of(structure):
    return "rtree" if structure in ("rtree", "str") else "quadtree"


def kernel(family, kind, exact):
    """The structure table's kernel for a family, looked up by name."""
    return batch_kernel("pmr" if family == "quadtree" else "rtree", kind, exact)


def probes(tree, nq, seed):
    """Windows (some degenerate, some missing the map) and points (on
    segment ends, anywhere, and a few outside the domain)."""
    rng = np.random.default_rng(seed)
    lo = rng.integers(-40, DOMAIN, (nq, 2)).astype(float)
    side = rng.integers(0, 160, (nq, 2)) * (rng.random((nq, 1)) < 0.9)
    rects = np.column_stack([lo, lo + side])
    ends = tree.lines[rng.integers(0, tree.lines.shape[0], nq), :2]
    anywhere = rng.uniform(-30, DOMAIN + 30, (nq, 2))
    pts = np.where(rng.random((nq, 1)) < 0.4, ends, anywhere)
    return rects, pts


def both(run, reference, tree, payload):
    """A kernel and its reference on one payload, each on a fresh
    machine: the per-batch accounting must agree before the answers are
    compared."""
    gm, wm = Machine(), Machine()
    got, want = run(tree, payload, gm), reference(tree, payload, machine=wm)
    assert (gm.steps, gm.total_primitives, gm.counts) == \
        (wm.steps, wm.total_primitives, wm.counts)
    assert len(got) == len(want) == len(payload)
    return got, want


def assert_same_nearest(got, want):
    assert got == want          # (id, distance) pairs, ties to the lowest id
    assert all(type(i) is int and type(d) is float for i, d in got)


def assert_same_ids(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.int64
        assert np.array_equal(g, w)


@settings(max_examples=120, deadline=None)
@given(map_kind=st.sampled_from(sorted(MAPS)), structure=st.sampled_from(sorted(BUILDS)),
       map_seed=st.integers(0, 2), nq=st.sampled_from(BATCH_SIZES),
       exact=st.booleans(), seed=st.integers(0, 10**6))
def test_kernels_match_the_reference(map_kind, structure, map_seed, nq, exact, seed):
    tree = tree_of(map_kind, structure, map_seed)
    family = family_of(structure)
    rects, pts = probes(tree, nq, seed)
    window = getattr(reference_batch, f"batch_window_query_{family}")

    assert_same_ids(*both(kernel(family, "window", exact),
                          partial(window, exact=exact), tree, rects))
    if family == "quadtree":    # the filter point: points outside answer empty
        assert_same_ids(*both(kernel(family, "point", False),
                              partial(reference_batch.batch_point_query_quadtree,
                                      strict=False), tree, pts))
    else:                       # the reference's point is its degenerate window
        assert_same_ids(*both(kernel(family, "point", exact),
                              partial(window, exact=exact), tree,
                              np.hstack([pts, pts])))
    assert_same_nearest(kernel(family, "nearest", True)(tree, pts, Machine()),
                        getattr(reference_batch, f"batch_nearest_{family}")(tree, pts))


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("structure", sorted(BUILDS))
@pytest.mark.parametrize("map_kind", ["crossing", "uniform"])
def test_empty_whole_and_zero_area_windows(map_kind, structure, exact):
    """Inverted (min > max) windows leave the frontier at the seed:
    mixed into one batch with whole-domain and zero-area windows, and
    as a batch of their own, they keep the reference's ids and its
    per-batch accounting."""
    tree = tree_of(map_kind, structure, 0)
    family = family_of(structure)
    end = tree.lines[0]
    inverted = [[300, 10, 200, 90], [10, 300, 90, 200],
                [DOMAIN, DOMAIN, 0, 0], [end[0] + 1, end[1], end[0], end[1]]]
    whole = [[0, 0, DOMAIN, DOMAIN],
             [-DOMAIN, -DOMAIN, 2 * DOMAIN, 2 * DOMAIN]]
    zero_area = [[end[0], end[1], end[0], end[1]], [256, 256, 256, 256],
                 [100, 0, 100, DOMAIN], [0, 64, DOMAIN, 64]]
    mixed = np.array(inverted[:2] + whole + zero_area + inverted[2:], float)
    window = getattr(reference_batch, f"batch_window_query_{family}")
    for rects in (mixed, np.array(inverted, float)):
        assert_same_ids(*both(kernel(family, "window", exact),
                              partial(window, exact=exact), tree, rects))


def test_strict_point_probe_still_rejects_the_outside():
    """The scalar quadtree point refuses a point outside the domain, as
    the reference does."""
    tree = tree_of("uniform", "pmr", 0)
    with pytest.raises(ValueError, match="outside the domain"):
        tree.point_query(-1.0, 5.0)
    with pytest.raises(ValueError):
        reference_batch.batch_point_query_quadtree(tree, [[-1.0, 5.0]], strict=True)
    with pytest.raises(ValueError):
        reference_batch.quadtree_point_query(tree, -1.0, 5.0)


# -- mixed waves ---------------------------------------------------------------


def mixed_wave(tree, nq, seed, with_points=True):
    """A random interleaving of windows (inverted, zero-area and
    whole-domain ones among them), points (segment endpoints, anywhere,
    outside the domain) and nearest probes (the same, so the crossing
    map's shared endpoint fan ties), as ``(rows, kinds)``."""
    rng = np.random.default_rng(seed)
    rects, pts = probes(tree, nq, seed)
    special = np.array([[300, 10, 200, 90], [0, 0, DOMAIN, DOMAIN],
                        [-DOMAIN, -DOMAIN, 2 * DOMAIN, 2 * DOMAIN],
                        [256, 256, 256, 256], [100, 0, 100, DOMAIN]], float)
    pick = rng.random(nq) < 0.2
    rects[pick] = special[rng.integers(0, len(special), int(pick.sum()))]
    pts[rng.random(nq) < 0.1] = [256.0, 256.0]     # the fan's endpoint
    kinds = rng.integers(0, 3, nq).astype(np.int8)
    if not with_points:
        kinds[kinds == batch.POINT] = batch.WINDOW
    rows = np.where((kinds == batch.WINDOW)[:, None], rects,
                    np.hstack([pts, pts]))
    return rows, kinds


def reference_answers(tree, family, rows, kinds, exact):
    """Each row answered by the reference kernel of its kind."""
    out = [None] * len(rows)
    window = getattr(reference_batch, f"batch_window_query_{family}")
    nearest = getattr(reference_batch, f"batch_nearest_{family}")
    for code in (batch.WINDOW, batch.POINT, batch.NEAREST):
        at = np.flatnonzero(kinds == code)
        if not at.size:
            continue
        got = (nearest(tree, rows[at, :2]) if code == batch.NEAREST
               else window(tree, rows[at], exact=exact))
        for i, answer in zip(at, got):
            out[i] = answer
    return out


@settings(max_examples=120, deadline=None)
@given(map_kind=st.sampled_from(sorted(MAPS)), structure=st.sampled_from(sorted(BUILDS)),
       map_seed=st.integers(0, 2), nq=st.sampled_from(BATCH_SIZES),
       exact=st.booleans(), seed=st.integers(0, 10**6))
def test_mixed_waves_answer_each_row_like_the_reference(map_kind, structure,
                                                        map_seed, nq, exact, seed):
    """One wave core call answers every row like the reference kernel of
    its kind; a wave without nearest rows also keeps the reference
    window kernel's per-batch accounting (a point row is its degenerate
    window).  A quadtree filter wave holds points alone, so filter waves
    here carry windows and nearest probes."""
    tree = tree_of(map_kind, structure, map_seed)
    family = family_of(structure)
    rows, kinds = mixed_wave(tree, nq, seed, with_points=exact)
    m = Machine()
    got = batch.wave_answers(*batch.wave_core(family, exact)(tree, rows, kinds, m),
                             kinds)
    want = reference_answers(tree, family, rows, kinds, exact)
    assert len(got) == len(want) == nq
    for code, g, w in zip(kinds, got, want):
        if code == batch.NEAREST:
            assert_same_nearest([g], [w])
        else:
            assert_same_ids([g], [w])
    if not (kinds == batch.NEAREST).any():
        ref = Machine()
        getattr(reference_batch, f"batch_window_query_{family}")(
            tree, rows, exact=exact, machine=ref)
        assert (m.steps, m.total_primitives, m.counts) == \
            (ref.steps, ref.total_primitives, ref.counts)


def test_a_quadtree_filter_wave_holds_points_alone():
    tree = tree_of("uniform", "pmr", 0)
    rows = np.array([[0, 0, 64, 64], [5, 5, 5, 5]], float)
    with pytest.raises(ValueError, match="points alone"):
        batch.wave_core("quadtree", False)(tree, rows, [batch.WINDOW, batch.POINT],
                                           Machine())


#: nearest accounting (steps, primitives, per-kind counts) of seven
#: probes (``probes(tree, 7, 0)``'s points) per map and structure, map
#: seed 0, recorded when nearest probes became shrinking squares (the
#: branch-and-bound counts they replaced are in EXPERIMENTS C11)
NEAREST_GOLDEN = {
    "clustered/pm1": [25.0, 25, {"elementwise": 13, "permute": 8, "scan": 4}],
    "clustered/pmr": [27.0, 27, {"elementwise": 14, "permute": 8, "scan": 5}],
    "clustered/rtree": [10.0, 10, {"elementwise": 7, "permute": 3}],
    "clustered/str": [10.0, 10, {"elementwise": 7, "permute": 3}],
    "crossing/pm1": [27.0, 27, {"elementwise": 14, "permute": 8, "scan": 5}],
    "crossing/pmr": [19.0, 19, {"elementwise": 10, "permute": 6, "scan": 3}],
    "crossing/rtree": [8.0, 8, {"elementwise": 6, "permute": 2}],
    "crossing/str": [8.0, 8, {"elementwise": 6, "permute": 2}],
    "single/pm1": [9.0, 9, {"elementwise": 5, "permute": 3, "scan": 1}],
    "single/pmr": [5.0, 5, {"elementwise": 3, "scan": 1, "permute": 1}],
    "single/rtree": [4.0, 4, {"elementwise": 4}],
    "single/str": [4.0, 4, {"elementwise": 4}],
    "uniform/pm1": [25.0, 25, {"elementwise": 13, "permute": 8, "scan": 4}],
    "uniform/pmr": [19.0, 19, {"elementwise": 10, "permute": 6, "scan": 3}],
    "uniform/rtree": [10.0, 10, {"elementwise": 7, "permute": 3}],
    "uniform/str": [10.0, 10, {"elementwise": 7, "permute": 3}],
}


@pytest.mark.parametrize("structure", sorted(BUILDS))
@pytest.mark.parametrize("map_kind", sorted(MAPS))
def test_nearest_accounting_is_pinned(map_kind, structure):
    tree = tree_of(map_kind, structure, 0)
    m = Machine()
    kernel(family_of(structure), "nearest", True)(tree, probes(tree, 7, 0)[1], m)
    assert [m.steps, m.total_primitives, dict(m.counts)] \
        == NEAREST_GOLDEN[f"{map_kind}/{structure}"]


# -- scalar queries: one-probe waves -------------------------------------------


#: windows every scalar cell probes besides the random ones: inverted,
#: zero-area, whole-domain, beyond-domain and NaN
SPECIAL_WINDOWS = np.array([
    [300, 10, 200, 90], [DOMAIN, DOMAIN, 0, 0],
    [256, 256, 256, 256], [100, 0, 100, DOMAIN], [0, 64, DOMAIN, 64],
    [0, 0, DOMAIN, DOMAIN], [-DOMAIN, -DOMAIN, 2 * DOMAIN, 2 * DOMAIN],
    [DOMAIN + 10, 0, DOMAIN + 90, 80], [-90, -90, -10, -10],
    [np.nan, 0, 64, 64], [np.nan] * 4], float)


def assert_same_answer(got, want):
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("structure", sorted(BUILDS))
@pytest.mark.parametrize("map_kind", sorted(MAPS))
@settings(max_examples=6, deadline=None)
@given(map_seed=st.integers(0, 2), exact=st.booleans(), seed=st.integers(0, 10**6))
def test_scalar_queries_answer_like_the_retired_searches(map_kind, structure,
                                                         map_seed, exact, seed):
    """``window_query(count_visits=True)``, ``point_query`` and
    ``nearest`` on a plain tree equal the scalar searches they retired:
    ids (values, order, dtype), visit counts, ``(id, distance)`` pairs."""
    tree = tree_of(map_kind, structure, map_seed)
    quad = family_of(structure) == "quadtree"
    rects, pts = probes(tree, 8, seed)
    window = (reference_batch.quadtree_window_query if quad
              else reference_batch.rtree_window_query)
    for rect in np.concatenate([rects, SPECIAL_WINDOWS]):
        (got, visits), (want, want_visits) = (
            tree.window_query(rect, exact=exact, count_visits=True),
            window(tree, rect, exact=exact, count_visits=True))
        assert_same_answer(got, want)
        assert visits == want_visits
        assert_same_answer(tree.window_query(rect, exact=exact), want)
    nearest = reference_batch.quadtree_nearest if quad else reference_batch.rtree_nearest
    for px, py in pts:
        assert_same_nearest([tree.nearest(px, py)], [nearest(tree, px, py)])
        if not quad:
            (got, visits), (want, want_visits) = (
                tree.point_query(px, py, exact=exact, count_visits=True),
                reference_batch.rtree_point_query(tree, px, py, exact=exact,
                                                  count_visits=True))
            assert_same_answer(got, want)
            assert visits == want_visits
            continue
        try:
            want = reference_batch.quadtree_point_query(tree, px, py)
        except ValueError:      # outside the domain: both refuse
            with pytest.raises(ValueError, match="outside the domain"):
                tree.point_query(px, py)
        else:
            assert_same_answer(tree.point_query(px, py), want)


@pytest.mark.parametrize("structure", ["pmr", "rtree"])
def test_scalar_answers_are_read_only_views(structure):
    tree = tree_of("uniform", structure, 0)
    for ids in (tree.window_query([0, 0, 256, 256]),
                tree.point_query(*tree.lines[0, :2])):
        assert ids.size and not ids.flags.writeable


@pytest.mark.parametrize("family", ["quadtree", "rtree"])
def test_a_foreign_kind_code_is_refused(family):
    """A kind code outside ``KINDS`` fails the wave, naming the code,
    instead of being served as a window."""
    tree = tree_of("uniform", "pmr" if family == "quadtree" else "rtree", 0)
    rows = np.array([[0, 0, 64, 64], [5, 5, 5, 5]], float)
    for exact in (True, False):
        with pytest.raises(ValueError, match="kind code 7"):
            batch.wave_core(family, exact)(tree, rows, [batch.WINDOW, 7], Machine())
    with pytest.raises(ValueError, match="kind code -1"):
        batch.wave_kinds(-1, 3)

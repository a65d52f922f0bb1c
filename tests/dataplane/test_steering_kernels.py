"""Property tests for the loop-free steering kernels.

Each kernel is checked against the grouped implementation it replaced,
kept here only as the oracle:

* :func:`repro.dns.policy.segmented_pick` against a per-segment
  ``np.searchsorted(side="right")`` loop;
* :meth:`VectorizedDnsTable.resolve_batch` against the ``np.unique``
  first-occurrence dedup with per-app ``searchsorted`` draws, in answers,
  cache cells and hit/miss counters;
* :meth:`ColumnarConnTable.try_open_batch` against ``_group_positions``
  admission, at and around the capacity boundary.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane import conntable
from repro.dataplane.conntable import ColumnarConnTable, _group_positions
from repro.dataplane.dnstable import VectorizedDnsTable
from repro.dns.policy import segmented_pick, weighted_cdf

# -- segmented pick ----------------------------------------------------


def loop_pick(cdf, lo, hi, u):
    """Oracle: one ``searchsorted`` per request over its own segment."""
    return np.asarray(
        [
            a + np.searchsorted(cdf[a:b], x, side="right")
            for a, b, x in zip(lo.tolist(), hi.tolist(), u.tolist())
        ],
        dtype=np.int64,
    )


def segments_from(weights):
    cdf = np.concatenate([weighted_cdf(np.asarray(w, float)) for w in weights])
    indptr = np.zeros(len(weights) + 1, dtype=np.int64)
    np.cumsum([len(w) for w in weights], out=indptr[1:])
    return cdf, indptr


# Integer weights with zeros: zero weights repeat a CDF value, and a
# one-entry list is a single-entry segment.
weight_lists = st.lists(st.integers(0, 3), min_size=1, max_size=9).filter(
    lambda w: sum(w) > 0
)


@settings(max_examples=80, deadline=None)
@given(
    weights=st.lists(weight_lists, min_size=1, max_size=8),
    picks=st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.sampled_from(["random", "cdf", "zero", "last", "above"]),
            st.floats(0.0, 1.0, exclude_max=True),
        ),
        min_size=0,
        max_size=60,
    ),
)
def test_segmented_pick_matches_per_segment_searchsorted(weights, picks):
    cdf, indptr = segments_from(weights)
    n_seg = len(weights)
    seg = np.asarray([p[0] % n_seg for p in picks], dtype=np.int64)
    lo, hi = indptr[seg], indptr[seg + 1]
    u = np.empty(len(picks))
    for i, (k, kind, x) in enumerate(picks):
        if kind == "random":
            u[i] = x
        elif kind == "cdf":  # u exactly on an entry (ties included)
            u[i] = cdf[lo[i] + k % (hi[i] - lo[i])]
        elif kind == "zero":
            u[i] = 0.0
        elif kind == "last":
            u[i] = cdf[hi[i] - 1]
        else:
            u[i] = cdf[hi[i] - 1] + x + 1e-9
    got = segmented_pick(cdf, lo, hi, u)
    assert got.dtype == np.int64
    assert np.array_equal(got, loop_pick(cdf, lo, hi, u))


def test_segmented_pick_edge_cases():
    # [a: 0, 0, 1 weights] [b: single] [c: zero weight in the middle]
    cdf, indptr = segments_from([[0, 0, 1], [2], [1, 0, 1]])
    seg = np.asarray([0, 0, 0, 1, 1, 2, 2, 2, 2], dtype=np.int64)
    u = np.asarray([0.0, 0.999, 1.0, 0.0, 1.0, 0.0, 0.5, 0.75, 1.5])
    lo, hi = indptr[seg], indptr[seg + 1]
    got = segmented_pick(cdf, lo, hi, u)
    assert np.array_equal(got, loop_pick(cdf, lo, hi, u))
    # u at a CDF value lands past it (side="right"), past the end at 1.0.
    assert got.tolist() == [2, 2, 3, 3, 4, 4, 6, 6, 7]
    empty = segmented_pick(cdf, lo[:0], hi[:0], u[:0])
    assert empty.size == 0 and empty.dtype == np.int64


# -- DNS resolve_batch ---------------------------------------------------


def unique_resolve(table, resolver, app, u_dns, now):
    """Oracle: the grouped implementation (``np.unique`` first-occurrence
    dedup, per-app ``searchsorted`` draws, 2-D cache indexing)."""
    out = np.empty(resolver.shape[0], dtype=np.int64)
    fresh = now < table.expires[resolver, app]
    hits = np.flatnonzero(fresh)
    out[hits] = table.cached[resolver[hits], app[hits]]
    miss = np.flatnonzero(~fresh)
    if miss.size == 0:
        table.cache_hits += hits.size
        return out
    if table.ttl_s > 0:
        key = resolver[miss] * np.int64(table.n_apps) + app[miss]
        _, first = np.unique(key, return_index=True)
        draw = miss[np.sort(first)]
    else:
        draw = miss
    chosen = np.empty(draw.size, dtype=np.int64)
    for a in np.unique(app[draw]):
        sel = np.flatnonzero(app[draw] == a)
        lo, hi = table.vip_indptr[a], table.vip_indptr[a + 1]
        chosen[sel] = lo + np.searchsorted(
            table.cdf[lo:hi], u_dns[draw[sel]], side="right"
        )
    out[draw] = chosen
    table.cached[resolver[draw], app[draw]] = chosen
    table.expires[resolver[draw], app[draw]] = now + table.ttl_eff[resolver[draw]]
    if table.ttl_s > 0 and draw.size < miss.size:
        out[miss] = table.cached[resolver[miss], app[miss]]
    table.cache_misses += draw.size
    table.cache_hits += hits.size + (miss.size - draw.size)
    return out


APPS = ["a0", "a1", "a2", "a3"]
ZONES = {
    "a0": {"v00": 1.0, "v01": 0.0, "v02": 3.0},
    "a1": {"v10": 1.0},
    "a2": {"v20": 2.0, "v21": 2.0},
    "a3": {"v30": 0.0, "v31": 1.0, "v32": 1.0, "v33": 0.0, "v34": 5.0},
}


def twin_tables(ttl_s, violators):
    return [
        VectorizedDnsTable(
            APPS, ZONES, len(violators), ttl_s=ttl_s, violators=violators
        )
        for _ in range(2)
    ]


@settings(max_examples=60, deadline=None)
@given(
    ttl_s=st.sampled_from([0.0, 1.0, 30.0]),
    violators=st.lists(st.booleans(), min_size=1, max_size=4),
    batches=st.lists(
        st.tuples(
            st.floats(0.0, 5.0),  # time step
            st.lists(
                st.tuples(
                    st.integers(0, 3), st.integers(0, 3), st.floats(0.0, 1.0)
                ),
                min_size=0,
                max_size=50,
            ),
            st.booleans(),  # K1 re-weight before the batch
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_resolve_batch_matches_unique_oracle(ttl_s, violators, batches):
    """Heavy duplicates (<= 4 resolvers x 4 apps), zero TTL, violators
    and K1 weight changes between batches."""
    n_res = len(violators)
    table, oracle = twin_tables(ttl_s, np.asarray(violators))
    now = 0.0
    for step, reqs, reweight in batches:
        now += step
        if reweight:
            for t in (table, oracle):
                t.set_weights("a2", {"v20": 1.0 + step, "v21": 0.5})
        resolver = np.asarray([r % n_res for r, _, _ in reqs], dtype=np.int64)
        app = np.asarray([a for _, a, _ in reqs], dtype=np.int64)
        u = np.asarray([x for _, _, x in reqs], dtype=float)
        got = table.resolve_batch(resolver, app, u, now=now)
        want = unique_resolve(oracle, resolver, app, u, now)
        assert np.array_equal(got, want)
        assert np.array_equal(table.cached, oracle.cached)
        assert np.array_equal(table.expires, oracle.expires)
        assert table.cache_hits == oracle.cache_hits
        assert table.cache_misses == oracle.cache_misses


@pytest.mark.parametrize("ttl_s", [0.0, 120.0])
def test_resolve_batch_all_one_cell(ttl_s):
    """Every request on one (resolver, app) cell: one draw with a TTL,
    one draw per request without."""
    table, oracle = twin_tables(ttl_s, np.asarray([True, False]))
    n = 200
    resolver = np.ones(n, dtype=np.int64)  # not a violator: TTL 120 s
    app = np.full(n, 3, dtype=np.int64)
    u = np.random.default_rng(5).random(n)
    for now in (0.0, 0.0, 200.0):
        got = table.resolve_batch(resolver, app, u, now=now)
        assert np.array_equal(got, unique_resolve(oracle, resolver, app, u, now))
        assert np.array_equal(table.cached, oracle.cached)
        assert np.array_equal(table.expires, oracle.expires)
    assert (table.cache_hits, table.cache_misses) == (
        oracle.cache_hits, oracle.cache_misses
    )
    assert table.cache_misses == (3 * n if ttl_s == 0 else 2)


# -- admission -----------------------------------------------------------


def group_admission(count, cap, switch):
    """Oracle: the ``_group_positions`` sequential-fill check."""
    return count[switch] + _group_positions(switch) < cap[switch]


def admit(caps, pre, switch):
    """Preload each switch to *pre* sessions, then offer *switch*; returns
    the table and the oracle's accepted mask."""
    caps = np.asarray(caps, dtype=np.int64)
    table = ColumnarConnTable(len(caps), caps, n_vips=4)
    for s, k in enumerate(pre):
        if k:
            table.try_open_batch(
                np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64),
                np.full(k, s, dtype=np.int64), np.full(k, 9, dtype=np.int64),
            )
    want = group_admission(table.switch_count.copy(), caps, switch)
    return table, want


def check_admission(table, switch, want):
    n_sw = table.switch_cap.shape[0]
    count0 = table.switch_count.copy()
    rej0 = table.rejected_by_switch.copy()
    size0 = table._size
    vip = np.arange(switch.size, dtype=np.int64) % 4
    rip = np.arange(switch.size, dtype=np.int64) + 100
    close = np.arange(switch.size, dtype=np.int64) + 7
    got = table.try_open_batch(vip, rip, switch, close)
    assert np.array_equal(got, want)
    acc = np.flatnonzero(want)
    assert np.array_equal(
        table.switch_count, count0 + np.bincount(switch[acc], minlength=n_sw)
    )
    assert np.array_equal(
        table.rejected_by_switch,
        rej0 + np.bincount(switch[~want], minlength=n_sw),
    )
    new = slice(size0, table._size)
    assert np.array_equal(table.conn_vip[new], vip[acc])
    assert np.array_equal(table.conn_rip[new], rip[acc])
    assert np.array_equal(table.conn_switch[new], switch[acc])
    assert np.array_equal(table.close_epoch[new], close[acc])
    assert table.alive[new].all()
    assert table.alive_count == int(table.switch_count.sum())


@pytest.mark.parametrize(
    "caps,pre,switch",
    [
        # count + batch == cap on every switch: all admitted.
        ([5, 3], [2, 1], [0, 1, 0, 0, 1]),
        # count + batch == cap + 1 on switch 0: its last request fails.
        ([5, 3], [2, 1], [0, 0, 1, 0, 0]),
        # One full switch among empty ones.
        ([4, 4, 4, 4], [0, 4, 0, 0], [1, 0, 2, 1, 3, 0, 1]),
        # A switch filled exactly by this batch, then over by one more.
        ([3, 9], [0, 0], [0, 1, 0, 0, 1, 0]),
    ],
)
def test_try_open_batch_at_the_capacity_boundary(caps, pre, switch):
    switch = np.asarray(switch, dtype=np.int64)
    table, want = admit(caps, pre, switch)
    check_admission(table, switch, want)


def test_no_fill_batch_skips_grouping(monkeypatch):
    """``count + batch == cap`` is admitted without per-switch positions."""
    table, want = admit([5, 3], [2, 1], np.asarray([0, 1, 0, 0, 1]))
    assert want.all()

    def boom(ids):
        raise AssertionError("grouping ran on a batch that cannot fill")

    monkeypatch.setattr(conntable, "_group_positions", boom)
    check_admission(table, np.asarray([0, 1, 0, 0, 1]), want)


@settings(max_examples=60, deadline=None)
@given(
    caps=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    data=st.data(),
)
def test_try_open_batch_matches_group_positions(caps, data):
    n_sw = len(caps)
    pre = [data.draw(st.integers(0, c)) for c in caps]
    switch = np.asarray(
        data.draw(st.lists(st.integers(0, n_sw - 1), max_size=3 * sum(caps))),
        dtype=np.int64,
    )
    table, want = admit(caps, pre, switch)
    check_admission(table, switch, want)

"""StoredCubeView vs in-memory CubeView: bit-identity by construction.

The acceptance bar for the serving layer: every query type answered
from disk must equal the in-memory answer exactly — across all four
engines and for iceberg-pruned cubes.  ``TestResultCache``
checks what repeated queries share: the server's reply LRU, and in
process nothing.
"""

import json
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ClusterConfig,
    CubeView,
    QueryError,
    SPCube,
    StoredCubeView,
)
from repro.aggregates import Sum, get_aggregate
from repro.cubing import CubeResult, sequential_cube
from repro.datagen import gen_binomial
from repro.engines import ENGINE_NAMES, load_engines
from repro.relation import Relation, Schema, all_cuboids, mask_dimensions
from repro.serving import CubeServer, CubeStore, execute_query

ENGINES = list(load_engines(ENGINE_NAMES).values())


@pytest.fixture(scope="module")
def relation():
    return gen_binomial(400, 0.4, seed=7)


def assert_identical(stored, memory, relation):
    """Every query type, disk vs memory, compared with ``==``."""
    dims = relation.schema.dimensions
    assert stored.total() == memory.total()
    assert stored.cuboid_sizes() == memory.cuboid_sizes()
    assert stored.rollup(dims[0]) == memory.rollup(dims[0])
    assert stored.rollup(dims[1], dims[3]) == memory.rollup(
        dims[1], dims[3]
    )
    # Out-of-schema-order rollup exercises the column permutation.
    assert stored.rollup(dims[2], dims[0]) == memory.rollup(
        dims[2], dims[0]
    )
    anchor = max(memory.rollup(dims[0]))[0]  # a real dimension value
    assert stored.slice(**{dims[0]: anchor}) == memory.slice(
        **{dims[0]: anchor}
    )
    assert stored.dice(**{dims[1]: lambda v: v % 2 == 0}) == memory.dice(
        **{dims[1]: lambda v: v % 2 == 0}
    )
    assert stored.drilldown(
        {dims[0]: anchor}, into=dims[2]
    ) == memory.drilldown({dims[0]: anchor}, into=dims[2])
    assert stored.top([dims[0], dims[1]], k=3) == memory.top(
        [dims[0], dims[1]], k=3
    )
    assert stored.pivot(dims[0], dims[3]) == memory.pivot(dims[0], dims[3])


class TestEveryEngineIdentity:
    @pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.__name__)
    def test_count_cube(self, engine, relation, tmp_path):
        run = engine(ClusterConfig(num_machines=4)).compute(relation)
        path = str(tmp_path / "cube.store")
        from repro.serving import CubeStore

        CubeStore.write(run.cube, path, aggregate="count")
        memory = CubeView(run.cube)
        with StoredCubeView.open(path) as stored:
            assert_identical(stored, memory, relation)

    def test_sum_cube(self, relation, tmp_path):
        run = SPCube(ClusterConfig(num_machines=4), Sum()).compute(relation)
        path = str(tmp_path / "sum.store")
        from repro.serving import CubeStore

        CubeStore.write(run.cube, path, aggregate=Sum())
        memory = CubeView(run.cube)
        with StoredCubeView.open(path) as stored:
            assert_identical(stored, memory, relation)


class TestIcebergIdentity:
    def test_iceberg_cube_served_exactly(self, relation, tmp_path):
        run = SPCube(
            ClusterConfig(num_machines=4), min_group_size=3
        ).compute(relation)
        path = str(tmp_path / "iceberg.store")
        from repro.serving import CubeStore

        CubeStore.write(
            run.cube, path, aggregate="count", min_group_size=3
        )
        memory = CubeView(run.cube)
        with StoredCubeView.open(path) as stored:
            assert stored.store.min_group_size == 3
            assert_identical(stored, memory, relation)

    def test_iceberg_store_materializes_every_cuboid(
        self, relation, tmp_path
    ):
        # Every store carries the whole lattice, an iceberg store's
        # pruned cuboids included (possibly empty).
        run = SPCube(
            ClusterConfig(num_machines=4), min_group_size=5
        ).compute(relation)
        path = str(tmp_path / "iceberg.store")
        from repro.serving import CubeStore

        CubeStore.write(
            run.cube, path, aggregate="count", min_group_size=5
        )
        with StoredCubeView.open(path) as stored:
            assert len(stored.store.masks) == 16  # full 4-dim lattice
            assert stored.rollup("a1", "a2", "a3") == CubeView(
                run.cube
            ).rollup("a1", "a2", "a3")


# -- generated-input identity -------------------------------------------------

#: One family of values per dimension: plain, ``None`` next to ints,
#: look-alikes that are ``==`` but stored under separate codes, and values
#: that do not compare (a ``repr``-ordered dictionary).
FAMILIES = [
    st.integers(0, 3),
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from([None, 1, 2]),
    st.sampled_from([0, 0.0, False, 1, 1.0, True, 2]),
    st.sampled_from([None, "a", 1, (1,), 2.5]),
]
ABSENT = "~absent~"


@st.composite
def scenarios(draw):
    """``(cube, write options, queries)``: a relation's cube under one of
    three aggregates (some cuboids emptied, the apex too), plus queries
    whose fixed values are present, absent or look-alikes."""
    d = draw(st.integers(1, 5))
    names = [f"d{i}" for i in range(d)]
    schema = Schema(names, "m")
    columns = [draw(st.sampled_from(FAMILIES)) for _ in range(d)]
    rows = draw(st.lists(st.tuples(*columns, st.integers(1, 3)), max_size=8))
    aggregate = draw(st.sampled_from(["count", "avg", "top_k"]))
    cube = sequential_cube(Relation(schema, rows), get_aggregate(aggregate))
    options = {"aggregate": aggregate}
    if draw(st.booleans()):
        emptied = draw(st.sets(st.sampled_from(all_cuboids(d))))
        kept = {k: v for k, v in cube.items() if k[0] not in emptied}
        cube = CubeResult(schema, kept)

    def value_of(dim):
        present = [row[dim] for row in rows]
        alike = [v for v in (0, 0.0, False, 1, 1.0, True) if v in present]
        return draw(st.sampled_from(present + alike + [ABSENT]))

    def fixed(dims):
        return {names[dim]: value_of(dim) for dim in dims}

    def query():
        op = draw(st.sampled_from(["total", "rollup", "slice", "drilldown", "value"]))
        dims = draw(st.permutations(range(d)))[: draw(st.integers(0, d))]
        if op == "total":
            return (op,)
        if op == "rollup":
            return (op, *(names[dim] for dim in dims))
        if op == "slice":
            return (op, fixed(dims))
        if op == "drilldown":
            return (op, fixed(dims[1:]), names[dims[0] if dims else 0])
        mask = sum(1 << dim for dim in dims)
        return (op, mask, tuple(value_of(dim) for dim in mask_dimensions(mask, d)))

    return cube, options, [query() for _ in range(draw(st.integers(1, 6)))]


def answer(view, query):
    """The answer to ``query``, or the typed error it raises."""
    op, *args = query
    try:
        if op == "value":
            return view.cube.value(*args)
        if op == "slice":
            return view.slice(**args[0])
        return getattr(view, op)(*args)
    except (QueryError, KeyError) as error:
        return type(error).__name__, str(error)


class TestGeneratedIdentity:
    @settings(max_examples=50, deadline=None)
    @given(scenarios())
    def test_stored_answers_equal_memory_answers(self, scenario):
        # ``==`` against the in-memory view is the contract.  Key order
        # and exact types (``repr``) are compared with a scan over the
        # *decoded* store: a memory cube iterates in engine order, a
        # store in code order, so only that pins the pushdown's order.
        cube, options, queries = scenario
        with tempfile.TemporaryDirectory() as directory:
            path = str(Path(directory) / "cube.store")
            CubeStore.write(cube, path, **options)
            with StoredCubeView.open(path) as stored:
                decoded = {
                    (mask, values): value
                    for mask in all_cuboids(cube.schema.num_dimensions)
                    for values, value in stored.cube.cuboid(mask).items()
                }
                scan = CubeView(CubeResult(cube.schema, decoded))
                memory = CubeView(cube)
                for query in queries:
                    got = answer(stored, query)
                    assert got == answer(memory, query), query
                    assert repr(got) == repr(answer(scan, query)), query
                    assert answer(stored, query) == got  # segments warm


    def test_empty_selection_gets_the_apex_check(self, tmp_path):
        # A cube with neither apex nor finest cuboid: the full read says
        # "no apex", and so must a selection that merely comes back empty.
        schema = Schema(["a", "b"], "m")
        cube = CubeResult(schema, {(0b01, ("x",)): 2})
        path = str(tmp_path / "cube.store")
        CubeStore.write(cube, path, aggregate="count")
        with StoredCubeView.open(path) as stored:
            for view in (CubeView(cube), stored):
                with pytest.raises(QueryError, match="no apex"):
                    view.slice(a="x")
                with pytest.raises(QueryError, match="no apex"):
                    view.drilldown({"a": "x"}, into="b")
                assert view.drilldown({}, into="a") == {"x": 2}

    def test_absent_value_decodes_no_row_of_a_store(
        self, relation, tmp_path, monkeypatch
    ):
        # The apex check of an empty selection reads group counts, so an
        # absent-value drilldown decodes only the rows it selected: none.
        from repro.serving.store import _Segment

        path = str(tmp_path / "cube.store")
        CubeStore.write(sequential_cube(relation), path, aggregate="count")
        decoded = []
        pairs = _Segment.pairs

        def counting(segment, rows=None):
            decoded.append(len(segment.aggregates if rows is None else rows))
            return pairs(segment, rows)

        monkeypatch.setattr(_Segment, "pairs", counting)
        with StoredCubeView.open(path) as stored:
            assert stored.drilldown({"a1": "~absent~"}, into="a2") == {}
            assert stored.slice(a1="~absent~") == {}
        assert decoded and not any(decoded)

    def test_absent_value_keeps_a_block_held_cuboid(self, relation):
        run = SPCube(ClusterConfig(num_machines=4)).compute(relation)
        view = CubeView(run.cube)
        assert view.drilldown({"a1": "~absent~"}, into="a2") == {}
        assert view.slice(a1="~absent~") == {}
        assert all(type(held) is tuple for held in run.cube._cuboids.values())

    @pytest.mark.parametrize("value", [[1], {"k": 1}], ids=["list", "object"])
    def test_unhashable_fixed_value_names_the_dimension(
        self, value, relation, tmp_path
    ):
        cube = sequential_cube(relation)
        path = str(tmp_path / "cube.store")
        CubeStore.write(cube, path, aggregate="count")
        with StoredCubeView.open(path) as stored:
            for view in (CubeView(cube), stored):
                with pytest.raises(QueryError, match="'a2'.*unhashable"):
                    view.slice(a1=1, a2=value)
                with pytest.raises(QueryError, match="'a2'.*unhashable"):
                    view.drilldown({"a2": value}, into="a1")


def _ask(server, spec):
    """One query through the server's cache and admission, no socket:
    (status, body), a 200's body the encoded reply."""
    return server._handle_query(spec, object())


def _reply(view, spec):
    """The bytes a 200 carries for ``spec`` answered by ``view``."""
    return json.dumps(
        {"ok": True, "result": execute_query(view, spec)}, sort_keys=True
    ).encode()


class TestResultCache:
    """What repeats of a query share.  Over the wire: the server's LRU of
    encoded replies, driven here without a socket.  In process: nothing,
    so an answer is its caller's own and cannot reach the segment cache."""

    ROLLUP_A1 = {"op": "rollup", "dimensions": ["a1"]}
    ROLLUP_A2 = {"op": "rollup", "dimensions": ["a2"]}

    @pytest.fixture
    def stored(self, relation, tmp_path):
        run = SPCube(ClusterConfig(num_machines=4)).compute(relation)
        path = str(tmp_path / "cache.store")
        CubeStore.write(run.cube, path, aggregate="count")
        with StoredCubeView.open(path) as view:
            yield view

    @pytest.fixture
    def server(self, stored):
        with CubeServer(stored) as srv:
            yield srv

    def test_repeat_query_hits(self, server):
        first = _ask(server, self.ROLLUP_A1)
        assert first[0] == 200
        assert server.counters.value("serving.cache_hit") == 0
        assert _ask(server, self.ROLLUP_A1) == first
        assert server.counters.value("serving.cache_hit") == 1

    def test_distinct_keys_do_not_collide(self, server):
        a1_a2 = _ask(server, {"op": "rollup", "dimensions": ["a1", "a2"]})
        a2_a1 = _ask(server, {"op": "rollup", "dimensions": ["a2", "a1"]})
        assert a1_a2 != a2_a1
        assert server.counters.value("serving.cache_hit") == 0

    def test_caller_mutation_cannot_poison(self, stored):
        first = stored.rollup("a1")
        first.clear()
        assert stored.rollup("a1") != {}

    def test_hit_does_not_wait_for_a_slow_miss(self, server, stored):
        expected = _ask(server, self.ROLLUP_A1)
        entered, release = threading.Event(), threading.Event()
        read = stored.cube.cuboid

        def slow_read(mask):
            entered.set()
            assert release.wait(10)
            return read(mask)

        stored.cube.cuboid = slow_read
        miss = threading.Thread(target=_ask, args=(server, self.ROLLUP_A2))
        miss.start()
        try:
            assert entered.wait(10)  # the miss is inside its segment read
            hits = []
            hit = threading.Thread(
                target=lambda: hits.append(_ask(server, self.ROLLUP_A1))
            )
            hit.start()
            hit.join(5)
            assert hits == [expected], "a hit queued behind another's miss"
        finally:
            release.set()
            miss.join(10)
        assert not miss.is_alive()
        assert server.counters.value("serving.cache_hit") == 1
        assert server.counters.value("serving.cache_miss") == 2

    def test_racing_misses_both_compute_equal_answers(self, server, stored):
        both_inside = threading.Barrier(2)
        read = stored.cube.cuboid

        def rendezvous(mask):
            both_inside.wait(10)  # broken unless both compute at once
            return read(mask)

        stored.cube.cuboid = rendezvous
        answers = []
        threads = [
            threading.Thread(
                target=lambda: answers.append(_ask(server, self.ROLLUP_A2))
            )
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(15)
        stored.cube.cuboid = read
        assert len(answers) == 2 and answers[0] == answers[1]
        assert answers[0] == (200, _reply(stored, self.ROLLUP_A2))
        assert _ask(server, self.ROLLUP_A2) == answers[0]
        assert server.counters.value("serving.cache_miss") == 2
        assert server.counters.value("serving.cache_hit") == 1

    def test_stress_keeps_counters_and_cache_bound(self, relation, tmp_path):
        # More threads than cores, a short switch interval, a cache far
        # smaller than the key space: a lost counter update or an
        # unguarded insert would break one of the three invariants.
        run = SPCube(ClusterConfig(num_machines=4)).compute(relation)
        path = str(tmp_path / "stress.store")
        CubeStore.write(run.cube, path, aggregate="count")
        memory = CubeView(run.cube)
        anchors = sorted(memory.rollup("a1"))[:6]
        specs = {
            (anchor, into): {
                "op": "drilldown", "group": {"a1": anchor[0]}, "into": into,
            }
            for anchor in anchors
            for into in ("a2", "a3")
        }
        expected = {
            case: (200, _reply(memory, spec)) for case, spec in specs.items()
        }
        wrong, overfull, rounds, workers = [], [], 150, 8

        def client(offset):
            for step in range(rounds):
                anchor = anchors[(offset + step) % len(anchors)]
                into = ("a2", "a3")[step % 2]  # two segments, room for one
                got = _ask(server, specs[anchor, into])
                if got != expected[anchor, into]:
                    wrong.append((anchor, into, got))
                if len(server._results) > 3:
                    overfull.append(len(server._results))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with StoredCubeView.open(path, segment_cache_size=1) as view:
                with CubeServer(view, workers=workers, result_cache=3) as server:
                    threads = [
                        threading.Thread(target=client, args=(i,))
                        for i in range(workers)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(60)
                    assert not any(thread.is_alive() for thread in threads)
                    stats = server.stats()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == [] and overfull == []
        assert stats["result_cache"]["entries"] <= 3
        counters = stats["counters"]
        assert counters["serving.cache_hit"] + counters["serving.cache_miss"] == (
            rounds * workers
        )
        assert counters["serving.shed"] == 0

    def test_pivot_rows_are_copies(self, stored):
        stored.pivot("a1", "a2")
        poisoned = stored.pivot("a1", "a2")
        for row in poisoned.values():
            row.clear()
        assert any(stored.pivot("a1", "a2").values())

    def test_lru_eviction(self, stored):
        with CubeServer(stored, result_cache=2) as server:
            for dims in (["a1"], ["a2"], ["a3"], ["a1"]):  # a3 evicts a1
                assert _ask(server, {"op": "rollup", "dimensions": dims})[0] == 200
            assert server.counters.value("serving.cache_hit") == 0
            assert server.counters.value("serving.cache_miss") == 4

    def test_top_and_pivot_are_one_lookup_and_one_slot(self, server):
        # Neither probes for, nor caches, the rollup it is computed from.
        _ask(server, {"op": "top", "dimensions": ["a1"], "k": 2})
        _ask(server, {"op": "pivot", "row": "a1", "column": "a2"})
        assert server.counters.value("serving.cache_miss") == 2
        assert len(server._results) == 2
        _ask(server, self.ROLLUP_A1)
        assert server.counters.value("serving.cache_miss") == 3
        assert server.counters.value("serving.cache_hit") == 0

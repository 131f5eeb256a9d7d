"""Property-based tests of the merge protocol.

The correctness of every distributed algorithm in this repository rests on
``merge`` being associative and commutative with ``create()`` as identity,
and on "fold then merge" equaling "fold everything" — exactly what these
hypothesis properties pin down, for every registered aggregate, and for
the sums on float measures too.  The bulk ``fold`` every kernel
aggregates through equals ``add`` value by value; ``fold_groups`` is
exactly one ``finalize(fold(create(), group))`` per group.
"""

import math
import random
from collections import Counter
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.aggregates import (
    Average,
    Sum,
    TopKFrequent,
    Variance,
    registered_aggregates,
)

from ..test_differential import FLOAT_MEASURES

AGGREGATES = sorted(registered_aggregates().values(), key=lambda f: f.name)
measures = st.lists(st.integers(min_value=-100, max_value=100), max_size=30)


def fold_state(fn, values):
    state = fn.create()
    for value in values:
        state = fn.add(state, value)
    return state


@pytest.mark.parametrize("fn", AGGREGATES, ids=lambda f: f.name)
class TestMergeProtocol:
    @given(values=measures)
    @settings(max_examples=40)
    def test_identity(self, fn, values):
        state = fold_state(fn, values)
        assert fn.finalize(fn.merge(state, fn.create())) == fn.finalize(state)
        assert fn.finalize(fn.merge(fn.create(), state)) == fn.finalize(state)

    @given(left=measures, right=measures)
    @settings(max_examples=40)
    def test_commutative(self, fn, left, right):
        a = fold_state(fn, left)
        b = fold_state(fn, right)
        assert fn.finalize(fn.merge(a, b)) == fn.finalize(fn.merge(b, a))

    @given(a=measures, b=measures, c=measures)
    @settings(max_examples=40)
    def test_associative(self, fn, a, b, c):
        sa, sb, sc = (fold_state(fn, v) for v in (a, b, c))
        lhs = fn.merge(fn.merge(sa, sb), sc)
        rhs = fn.merge(sa, fn.merge(sb, sc))
        assert fn.finalize(lhs) == fn.finalize(rhs)

    @given(values=measures, split=st.integers(min_value=0, max_value=30))
    @settings(max_examples=40)
    def test_partition_invariance(self, fn, values, split):
        """Splitting the fold anywhere and merging matches a single fold —
        the exact property map-side partial aggregation relies on."""
        split = min(split, len(values))
        merged = fn.merge(
            fold_state(fn, values[:split]), fold_state(fn, values[split:])
        )
        expected = fn.finalize(fold_state(fn, values))
        got = fn.finalize(merged)
        if isinstance(expected, float) and isinstance(got, float):
            assert got == pytest.approx(expected)
        else:
            assert got == expected

    @given(values=measures)
    @settings(max_examples=40)
    def test_add_equals_merge_of_singleton(self, fn, values):
        """fn.add(s, v) == fn.merge(s, singleton(v)) for all states."""
        state = fold_state(fn, values)
        singleton = fn.add(fn.create(), 7)
        via_add = fn.finalize(fn.add(state, 7))
        via_merge = fn.finalize(fn.merge(state, singleton))
        if isinstance(via_add, float) and isinstance(via_merge, float):
            assert via_merge == pytest.approx(via_add)
        else:
            assert via_merge == via_add


_ints = st.integers(min_value=-100, max_value=100)
_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
#: Ints, floats and bools each on their own (the empty list included),
#: and mixed: ``1``, ``True`` and ``1.0`` are equal and hash-equal.
fold_values = st.one_of(
    st.lists(_ints, max_size=30),
    st.lists(_floats, max_size=30),
    st.lists(st.booleans(), max_size=30),
    st.lists(st.one_of(_ints, _floats, st.booleans()), max_size=30),
)


@pytest.mark.parametrize("fn", AGGREGATES, ids=lambda f: f.name)
class TestFoldIsTheLeftFoldOfAdd:
    @given(before=fold_values, values=fold_values)
    @example(before=[], values=[0.1] * 10)
    @settings(max_examples=60)
    def test_equal_by_value_and_repr(self, fn, before, values):
        state = fold_state(fn, before)
        kept = repr(state)
        want = reduce(fn.add, values, state)
        got = fn.fold(state, values)
        assert got == want
        assert repr(got) == repr(want)
        assert repr(fn.finalize(got)) == repr(fn.finalize(want))
        assert repr(state) == kept  # fold, like add, leaves its input alone

    def test_empty_list_from_the_identity(self, fn):
        assert repr(fn.fold(fn.create(), [])) == repr(fn.create())


#: Groups as a reducer hands a cuboid over: ints, floats whose sum depends
#: on the order of the additions, look-alikes, one-element and empty groups.
_group_values = st.one_of(
    _ints, st.sampled_from([0.1, 1e16, -1e16, 1, True, 1.0, 0.3])
)
fold_groups_input = st.lists(
    st.one_of(
        st.lists(_group_values, max_size=12),
        st.tuples(_group_values),
        st.just([]),
    ),
    max_size=10,
)


def comprehension(fn, groups):
    """``fold_groups``' contract, spelled out."""
    return [fn.finalize(fn.fold(fn.create(), values)) for values in groups]


@pytest.mark.parametrize("fn", AGGREGATES, ids=lambda f: f.name)
class TestFoldGroupsIsTheComprehension:
    @given(groups=fold_groups_input)
    @example(groups=[[0.1] * 10, [1e16, 1, -1e16], [True], [1.0], []])
    @example(groups=[(0.1,), (True,), (1,), (1.0,)])
    @settings(max_examples=60)
    def test_equal_by_repr(self, fn, groups):
        want = repr(comprehension(fn, groups))
        assert repr(fn.fold_groups(groups)) == want
        assert repr(fn.fold_groups(dict(enumerate(groups)).values())) == want
        assert repr(fn.fold_groups(group for group in groups)) == want

    def test_no_groups(self, fn):
        assert fn.fold_groups([]) == []
        assert fn.fold_groups(iter(())) == []


@pytest.mark.parametrize(
    "fn", [Sum(), Average(), Variance()], ids=lambda f: f.name
)
class TestExactSums:
    @given(
        values=st.one_of(
            st.lists(FLOAT_MEASURES, max_size=30),
            st.lists(st.integers(-10**6, 10**6), max_size=30),
        ),
        cuts=st.lists(st.integers(0, 30), max_size=5),
        order=st.randoms(use_true_random=False),
    )
    @example(values=[0.1] * 10, cuts=[3, 7], order=random.Random(0))
    @example(values=[1e16, 1, -1e16], cuts=[1, 2], order=random.Random(1))
    @settings(max_examples=80)
    def test_chunk_states_merge_to_the_one_fold_in_any_order(
        self, fn, values, cuts, order
    ):
        """Chunks folded apart, then merged in any order and grouping,
        give what folding every value at once gives: for ``sum`` the
        correctly rounded sum, ``math.fsum``, and an int while every
        value is one."""
        cuts = sorted(min(cut, len(values)) for cut in cuts)
        states = [
            fn.fold(fn.create(), values[a:b])
            for a, b in zip([0] + cuts, cuts + [len(values)])
        ]
        order.shuffle(states)
        while len(states) > 1:
            i = order.randrange(len(states) - 1)
            states[i:i + 2] = [fn.merge(states[i], states[i + 1])]
        want = fn.finalize(fn.fold(fn.create(), values))
        assert repr(fn.finalize(states[0])) == repr(want)
        if fn.name == "sum":
            assert want == math.fsum(values)
            assert (type(want) is int) == all(type(v) is int for v in values)


class TestFoldRegressions:
    def test_top_k_fold_keeps_counter_insertion_order(self):
        fn = TopKFrequent(k=2)
        before, values = [3, 1, 3], [2, True, 1.0, 2, 7, 1, 0, False]
        state = fold_state(fn, before)
        got = fn.fold(state, values)
        want = reduce(fn.add, values, state)
        assert list(got.items()) == list(want.items())
        assert repr(list(got)) == "[3, 1, 2, 7, 0]"  # first-seen look-alikes
        assert fn.finalize(got) == fn.finalize(want)
        assert state == Counter({3: 2, 1: 1})

    def test_top_k_fold_copies_the_counter_once(self, monkeypatch):
        """``add`` copies the histogram per value (quadratic over a
        group); ``fold`` must copy it once."""
        copies = []

        class CountedCounter(Counter):
            def __init__(self, *args):
                copies.append(1)
                super().__init__(*args)

        monkeypatch.setattr(
            "repro.aggregates.functions.Counter", CountedCounter
        )
        fn = TopKFrequent()
        state = fn.create()
        del copies[:]
        assert len(fn.fold(state, list(range(200)))) == 200
        assert len(copies) == 1
        assert len(reduce(fn.add, range(200), state)) == 200
        assert len(copies) == 201

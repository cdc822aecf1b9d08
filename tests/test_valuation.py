"""Tests for valuations and their algebra (repro.valuation)."""

import pytest
from hypothesis import given, strategies as st

from repro.valuation import Valuation, is_simple_product, product_of


def small_valuations() -> st.SearchStrategy[Valuation]:
    return st.builds(
        Valuation,
        st.dictionaries(
            st.sampled_from(["a", "b", "c"]),
            st.sets(st.integers(min_value=0, max_value=6), max_size=3),
            max_size=3,
        ),
    )


class TestValuationBasics:
    def test_singleton(self):
        valuation = Valuation.singleton({"a", "b"}, 4)
        assert valuation["a"] == frozenset({4})
        assert valuation["b"] == frozenset({4})
        assert valuation["c"] == frozenset()

    def test_empty_sets_are_normalised_away(self):
        valuation = Valuation({"a": set(), "b": {1}})
        assert valuation.labels() == {"b"}
        assert valuation == Valuation({"b": {1}})

    def test_empty_valuation(self):
        empty = Valuation.empty()
        assert empty.is_empty()
        assert not empty
        assert empty.positions() == frozenset()
        with pytest.raises(ValueError):
            empty.min_position()
        with pytest.raises(ValueError):
            empty.max_position()

    def test_min_max_and_positions(self):
        valuation = Valuation({"a": {1, 5}, "b": {3}})
        assert valuation.min_position() == 1
        assert valuation.max_position() == 5
        assert valuation.positions() == {1, 3, 5}

    def test_size(self):
        assert Valuation({"a": {1, 2}, "b": {2}}).size() == 3
        assert Valuation.empty().size() == 0

    def test_within_window(self):
        valuation = Valuation({"a": {10}})
        assert valuation.within_window(position=15, window=5)
        assert not valuation.within_window(position=16, window=5)
        assert Valuation.empty().within_window(100, 0)

    def test_equality_and_hash(self):
        assert Valuation({"a": {1}}) == Valuation({"a": {1}})
        assert hash(Valuation({"a": {1}})) == hash(Valuation({"a": {1}}))
        assert Valuation({"a": {1}}) != Valuation({"a": {2}})

    def test_restrict_and_rename(self):
        valuation = Valuation({"a": {1}, "b": {2}})
        assert valuation.restrict_labels({"a"}) == Valuation({"a": {1}})
        assert valuation.rename_labels({"a": "z"}) == Valuation({"z": {1}, "b": {2}})

    def test_as_dict_is_a_copy(self):
        valuation = Valuation({"a": {1}})
        mapping = valuation.as_dict()
        mapping["a"] = frozenset({9})
        assert valuation["a"] == frozenset({1})


class TestValuationAlgebra:
    def test_product_unions_positions(self):
        left = Valuation({"a": {1}})
        right = Valuation({"a": {2}, "b": {3}})
        assert left.product(right) == Valuation({"a": {1, 2}, "b": {3}})

    def test_product_operator_alias(self):
        assert (Valuation({"a": {1}}) | Valuation({"b": {2}})) == Valuation({"a": {1}, "b": {2}})

    def test_simple_with(self):
        assert Valuation({"a": {1}}).simple_with(Valuation({"a": {2}}))
        assert not Valuation({"a": {1}}).simple_with(Valuation({"a": {1}}))
        assert Valuation({"a": {1}}).simple_with(Valuation({"b": {1}}))

    def test_product_of_empty_sequence(self):
        assert product_of([]) == Valuation.empty()

    def test_is_simple_product(self):
        assert is_simple_product([Valuation({"a": {1}}), Valuation({"a": {2}})])
        assert not is_simple_product([Valuation({"a": {1}}), Valuation({"a": {1}})])

    @given(small_valuations(), small_valuations())
    def test_product_is_commutative(self, left, right):
        assert left.product(right) == right.product(left)

    @given(small_valuations(), small_valuations(), small_valuations())
    def test_product_is_associative(self, a, b, c):
        assert a.product(b).product(c) == a.product(b.product(c))

    @given(small_valuations())
    def test_empty_is_identity(self, valuation):
        assert valuation.product(Valuation.empty()) == valuation

    @given(small_valuations(), small_valuations())
    def test_product_positions_are_union(self, left, right):
        assert left.product(right).positions() == left.positions() | right.positions()

    @given(small_valuations(), small_valuations())
    def test_simple_product_size_adds(self, left, right):
        if left.simple_with(right):
            assert left.product(right).size() == left.size() + right.size()
        else:
            assert left.product(right).size() < left.size() + right.size()


class TestCachedExtremesAndFastPaths:
    """The cached min/max and the fast singleton/product constructors agree
    with the normalising ``__init__`` (they feed the hot enumeration path)."""

    @given(small_valuations(), small_valuations())
    def test_product_caches_match_recomputation(self, left, right):
        result = left.product(right)
        rebuilt = Valuation(result.as_dict())
        assert result == rebuilt
        assert hash(result) == hash(rebuilt)
        if not result.is_empty():
            assert result.min_position() == min(rebuilt.positions())
            assert result.max_position() == max(rebuilt.positions())

    def test_singleton_caches(self):
        valuation = Valuation.singleton(["a", "b"], 7)
        assert valuation.min_position() == 7
        assert valuation.max_position() == 7
        assert valuation == Valuation({"a": {7}, "b": {7}})
        assert hash(valuation) == hash(Valuation({"a": {7}, "b": {7}}))

    def test_singleton_without_labels_is_empty(self):
        valuation = Valuation.singleton([], 4)
        assert valuation.is_empty()
        with pytest.raises(ValueError):
            valuation.min_position()
        assert valuation.within_window(100, 0)

    @given(small_valuations(), st.integers(0, 12), st.integers(0, 6))
    def test_within_window_uses_cached_min(self, valuation, position, window):
        expected = (
            True
            if valuation.is_empty()
            else position - min(valuation.positions()) <= window
        )
        assert valuation.within_window(position, window) == expected

    def test_product_shares_identical_operand_when_other_empty(self):
        valuation = Valuation({"a": {1, 2}})
        assert valuation.product(Valuation.empty()) is valuation
        assert Valuation.empty().product(valuation) is valuation

    def test_product_with_overlapping_labels_unions(self):
        left = Valuation({"a": {1}})
        right = Valuation({"a": {3}, "b": {2}})
        result = left.product(right)
        assert result["a"] == {1, 3}
        assert result.min_position() == 1
        assert result.max_position() == 3


class TestPackedForm:
    """``Valuation._from_packed``: unread until the first accessor call."""

    TABLE = [frozenset({"a"}), frozenset({"a", "b"}), frozenset(), frozenset({"c"})]

    packed_records = st.lists(
        st.tuples(st.integers(0, len(TABLE) - 1), st.integers(0, 9)), min_size=1, max_size=5
    ).map(lambda entries: tuple(value for entry in entries for value in entry))

    def oracle(self, packed):
        return product_of(
            Valuation.singleton(self.TABLE[label_id], position)
            for label_id, position in zip(packed[0::2], packed[1::2])
        )

    @given(packed_records)
    def test_reads_as_the_product_of_its_singletons(self, packed):
        valuation = Valuation._from_packed((self.TABLE, {}), packed)
        expected = self.oracle(packed)
        assert valuation._mapping is None
        assert valuation.is_empty() == expected.is_empty()
        assert valuation._packed is None and valuation._tables is None
        assert valuation == expected and hash(valuation) == hash(expected)
        assert list(valuation.as_dict()) == list(expected.as_dict())
        assert valuation.within_window(12, 4) == expected.within_window(12, 4)
        if expected:
            assert valuation.min_position() == expected.min_position()
            assert valuation.max_position() == expected.max_position()

    def test_positions_share_one_singleton_set_through_the_cache(self):
        singles = {}
        first = Valuation._from_packed((self.TABLE, singles), (0, 4, 3, 2))
        second = Valuation._from_packed((self.TABLE, singles), (3, 4))
        assert first["a"] is second["c"] and sorted(singles) == [2, 4]

    def test_concurrent_first_reads_agree(self):
        """Reading mutates an unread valuation once; a thread that loses the race
        to be first must still see the finished mapping (stress, short switch
        interval: a reader does get suspended between the check and the build)."""
        import sys
        import threading

        rounds, readers = 3, 6
        failures = []

        def read(barrier, valuations, expected):
            barrier.wait(timeout=30)
            try:
                for valuation, wanted in zip(valuations, expected):
                    if valuation.min_position() != wanted or valuation["c"] != {9}:
                        failures.append(valuation)
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(rounds):
                valuations = [
                    Valuation._from_packed((self.TABLE, {}), (0, i % 7, 1, i % 5, 3, 9))
                    for i in range(20_000)
                ]
                expected = [min(i % 7, i % 5) for i in range(20_000)]
                barrier = threading.Barrier(readers)
                threads = [
                    threading.Thread(target=read, args=(barrier, valuations, expected))
                    for _ in range(readers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not failures

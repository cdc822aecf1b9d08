"""Tests for the enumeration data structure DS_w (repro.core.datastructure) — Section 5."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.arena import ArenaDataStructure
from repro.core.datastructure import BOTTOM, DataStructure, Node
from repro.valuation import Valuation


def collect(ds: DataStructure, node: Node, position: int) -> set:
    return set(ds.enumerate(node, position))


def collect_all(ds: DataStructure, node: Node) -> set:
    return set(ds.enumerate_all(node))


class TestExtend:
    def test_leaf_node_represents_single_valuation(self):
        ds = DataStructure(window=10)
        node = ds.extend({"a"}, 3, [])
        assert collect_all(ds, node) == {Valuation({"a": {3}})}
        assert node.max_start == 3

    def test_extend_products_children(self):
        ds = DataStructure(window=10)
        left = ds.extend({"a"}, 0, [])
        right = ds.extend({"b"}, 1, [])
        product = ds.extend({"c"}, 2, [left, right])
        assert collect_all(ds, product) == {Valuation({"a": {0}, "b": {1}, "c": {2}})}
        assert product.max_start == 0

    def test_extend_with_union_child_multiplies(self):
        ds = DataStructure(window=10)
        first = ds.extend({"a"}, 0, [])
        second = ds.extend({"a"}, 1, [])
        both = ds.union(first, second)
        product = ds.extend({"b"}, 2, [both])
        assert collect_all(ds, product) == {
            Valuation({"a": {0}, "b": {2}}),
            Valuation({"a": {1}, "b": {2}}),
        }

    def test_extend_validates_children(self):
        ds = DataStructure(window=10)
        child = ds.extend({"a"}, 5, [])
        with pytest.raises(ValueError):
            ds.extend({"b"}, 5, [child])  # equal position not allowed
        with pytest.raises(ValueError):
            ds.extend({"b"}, 6, [BOTTOM])

    def test_window_validation(self):
        with pytest.raises(ValueError):
            DataStructure(window=-1)


class TestUnion:
    def test_union_is_set_union(self):
        ds = DataStructure(window=10)
        first = ds.extend({"a"}, 0, [])
        second = ds.extend({"a"}, 1, [])
        union = ds.union(first, second)
        assert collect_all(ds, union) == {Valuation({"a": {0}}), Valuation({"a": {1}})}

    def test_union_is_persistent(self):
        ds = DataStructure(window=10)
        first = ds.extend({"a"}, 0, [])
        second = ds.extend({"a"}, 1, [])
        union = ds.union(first, second)
        # The original nodes keep their own semantics.
        assert collect_all(ds, first) == {Valuation({"a": {0}})}
        assert collect_all(ds, second) == {Valuation({"a": {1}})}
        third = ds.extend({"a"}, 2, [])
        bigger = ds.union(union, third)
        assert collect_all(ds, union) == {Valuation({"a": {0}}), Valuation({"a": {1}})}
        assert len(collect_all(ds, bigger)) == 3

    def test_union_requires_fresh_second_argument(self):
        ds = DataStructure(window=10)
        first = ds.extend({"a"}, 0, [])
        second = ds.extend({"a"}, 1, [])
        union = ds.union(first, second)
        third = ds.extend({"a"}, 2, [])
        with pytest.raises(ValueError):
            ds.union(third, union)

    def test_union_with_bottom(self):
        ds = DataStructure(window=10)
        node = ds.extend({"a"}, 0, [])
        assert ds.union(BOTTOM, node) is node

    def test_union_prunes_expired_left_tree(self):
        ds = DataStructure(window=2)
        old = ds.extend({"a"}, 0, [])
        fresh = ds.extend({"a"}, 10, [])
        union = ds.union(old, fresh)
        # Everything from `old` is outside any window ending at position 10.
        assert collect(ds, union, 10) == {Valuation({"a": {10}})}

    def test_heap_condition_maintained(self):
        ds = DataStructure(window=100)
        accumulator = ds.extend({"a"}, 0, [])
        for position in range(1, 30):
            fresh = ds.extend({"a"}, position, [])
            accumulator = ds.union(accumulator, fresh)
        assert ds.check_heap_condition(accumulator)
        assert ds.check_simple(accumulator)
        assert len(collect_all(ds, accumulator)) == 30

    def test_union_depth_stays_logarithmic_under_descending_inserts(self):
        """When every union has to descend (strictly decreasing max_start), the
        direction-bit balancing keeps the union tree depth logarithmic."""
        ds = DataStructure(window=100_000)
        count = 256
        base = 10_000
        anchors = [ds.extend({"z"}, 1_000 - k, []) for k in range(count)]
        accumulator = ds.extend({"a"}, base, [anchors[0]])
        for k in range(1, count):
            fresh = ds.extend({"a"}, base + k, [anchors[k]])
            accumulator = ds.union(accumulator, fresh)
        depth = ds.union_depth(accumulator)
        assert depth <= 4 * (count.bit_length() + 1), f"union tree too deep: {depth}"
        assert ds.check_heap_condition(accumulator)

    def test_union_with_monotone_max_start_is_constant_work(self):
        """When the fresh node dominates (the common streaming case) the union
        places it on top without copying the old tree."""
        ds = DataStructure(window=10_000)
        accumulator = ds.extend({"a"}, 0, [])
        copies_before = ds.union_copies
        for position in range(1, 200):
            accumulator = ds.union(accumulator, ds.extend({"a"}, position, []))
        # One copied node per union call, independent of the accumulated size.
        assert ds.union_copies - copies_before == 199

    def test_linked_list_union_is_still_correct(self):
        # (The id predates the removal of the linked-list union ablation; the
        # union chain is now checked in both node representations.)
        for ds in (DataStructure(window=50), ArenaDataStructure(window=50, kernel="python")):
            accumulator = ds.extend({"a"}, 0, [])
            for position in range(1, 20):
                accumulator = ds.union(accumulator, ds.extend({"a"}, position, []))
            assert set(ds.enumerate(accumulator, 19)) == {
                Valuation({"a": {p}}) for p in range(20)
            }


class TestWindowedEnumeration:
    def test_window_filters_old_valuations(self):
        ds = DataStructure(window=3)
        nodes = [ds.extend({"a"}, position, []) for position in range(6)]
        accumulator = nodes[0]
        for node in nodes[1:]:
            accumulator = ds.union(accumulator, node)
        assert collect(ds, accumulator, 6) == {Valuation({"a": {p}}) for p in (3, 4, 5)}

    def test_window_filters_products_by_min_position(self):
        ds = DataStructure(window=3)
        old = ds.extend({"a"}, 0, [])
        recent = ds.extend({"a"}, 4, [])
        both = ds.union(old, recent)
        product = ds.extend({"b"}, 5, [both])
        # Only the combination whose min position is within the window survives.
        assert collect(ds, product, 5) == {Valuation({"a": {4}, "b": {5}})}

    def test_expired_node_enumerates_nothing(self):
        ds = DataStructure(window=2)
        node = ds.extend({"a"}, 0, [])
        assert collect(ds, node, 10) == set()
        assert ds.expired(node, 10)
        assert not ds.expired(node, 2)

    def test_bottom_enumerates_nothing(self):
        ds = DataStructure(window=5)
        assert collect(ds, BOTTOM, 3) == set()
        assert collect_all(ds, BOTTOM) == set()

    def test_simplicity_check(self):
        ds = DataStructure(window=10)
        first = ds.extend({"a"}, 0, [])
        product = ds.extend({"b"}, 2, [first])
        assert ds.check_simple(product)
        # Overlapping product: both children mark label "a" at position 0.
        overlapping = ds.extend({"b"}, 3, [first, ds.extend({"a"}, 1, [first])])
        assert not ds.check_simple(overlapping)


class TestDeepChains:
    """The validation helpers must be iterative: long single-relation streams
    build union chains thousands of unions deep, which the recursive
    formulations overflowed at ~1k tuples."""

    COUNT = 1_500  # > CPython's default recursion limit of 1000

    def test_balanced_descending_chain_validations_do_not_overflow(self):
        """Strictly decreasing max_start forces every union to descend, so the
        union tree is as deep as balancing allows; the helpers must still cope
        with thousands of unions."""
        ds = DataStructure(window=10 * self.COUNT)
        anchors = [ds.extend({"z"}, 10_000 - k, []) for k in range(self.COUNT)]
        accumulator = ds.extend({"a"}, 20_000, [anchors[0]])
        for k in range(1, self.COUNT):
            fresh = ds.extend({"a"}, 20_000 + k, [anchors[k]])
            accumulator = ds.union(accumulator, fresh)
        assert ds.check_heap_condition(accumulator)
        assert ds.check_simple(accumulator)


class TestAgainstBruteForce:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=12), st.integers(min_value=0, max_value=8))
    def test_union_chain_equals_reference_set(self, pattern, window):
        """Randomly interleave extend/union operations and compare against a model set."""
        ds = DataStructure(window=window)
        accumulator = None
        expected: set[Valuation] = set()
        position = 0
        for bit in pattern:
            position += 1 + bit
            fresh = ds.extend({"a"}, position, [])
            expected.add(Valuation({"a": {position}}))
            accumulator = fresh if accumulator is None else ds.union(accumulator, fresh)
        final_position = position
        in_window = {v for v in expected if final_position - v.min_position() <= window}
        assert collect(ds, accumulator, final_position) == in_window
        assert ds.check_heap_condition(accumulator)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.sets(st.integers(min_value=0, max_value=3), min_size=1, max_size=2), min_size=1, max_size=5),
    )
    def test_product_of_unions_equals_cartesian_product(self, groups):
        """extend over union children enumerates the full cross product exactly once."""
        ds = DataStructure(window=1000)
        children = []
        expected_factors = []
        position = 0
        for index, group in enumerate(groups):
            union_node = None
            factor = set()
            for offset in sorted(group):
                position += 1
                leaf = ds.extend({f"g{index}"}, position, [])
                factor.add(Valuation({f"g{index}": {position}}))
                union_node = leaf if union_node is None else ds.union(union_node, leaf)
            children.append(union_node)
            expected_factors.append(factor)
        position += 1
        root = ds.extend({"root"}, position, children)
        expected = {Valuation({"root": {position}})}
        for factor in expected_factors:
            expected = {base.product(extra) for base in expected for extra in factor}
        assert collect_all(ds, root) == expected

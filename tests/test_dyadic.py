import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodcoef.dyadic import (
    CoefficientTree,
    DyadicTree,
    coefficients_from_measure,
    haar_value,
    measure_from_coefficients,
    naive_measure_value,
    product_coefficient,
)
from prodcoef.errors import ConsistencyError, ValidationError


class TestProductCoefficient:
    def test_quarter_three_quarter_split(self):
        assert product_coefficient(1.0, 0.25) == -0.5

    def test_balanced_split(self):
        assert product_coefficient(10.0, 5.0) == 0.0

    def test_zero_mass_rule(self):
        assert product_coefficient(0.0, 0.0) == 0.0

    def test_all_mass_left(self):
        assert product_coefficient(7.0, 7.0) == 1.0

    def test_left_exceeding_parent_rejected(self):
        with pytest.raises(ValidationError):
            product_coefficient(1.0, 1.5)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValidationError):
            product_coefficient(-1.0, 0.0)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0, 1e12, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
    )
    def test_always_bounded(self, parent, fraction):
        left = parent * fraction
        a = product_coefficient(parent, left)
        assert -1.0 <= a <= 1.0
        if parent == 0:
            assert a == 0.0


class TestCoefficientsFromMeasure:
    def test_depth1_worked_example(self):
        tree = DyadicTree.from_node_measures([1.0, 0.25, 0.75])
        coeffs = coefficients_from_measure(tree)
        assert coeffs.root_mass == 1.0
        assert coeffs.level_order.tolist() == [-0.5]

    def test_uniform_counting_measure_gives_zeros(self):
        tree = DyadicTree.from_node_measures([8, 4, 4, 2, 2, 2, 2])
        coeffs = coefficients_from_measure(tree)
        assert coeffs.level_order.tolist() == [0.0, 0.0, 0.0]

    def test_random_trees_match_per_node_recomputation(self):
        # Oracle: direct scalar evaluation of the defining ratio per node.
        rng = np.random.default_rng(42)
        for _ in range(200):
            leaves = rng.uniform(0, 10, size=8)
            leaves[rng.uniform(size=8) < 0.2] = 0.0
            tree = DyadicTree.from_leaf_masses(leaves)
            coeffs = coefficients_from_measure(tree)
            m = tree.node_measure
            for node in range(1, 8):
                parent, left, right = m[node], m[2 * node], m[2 * node + 1]
                expected = 0.0 if parent == 0 else (left - right) / parent
                assert coeffs.a[node] == pytest.approx(expected, abs=0.0)

    def test_additivity_violation_rejected(self):
        tree = DyadicTree.from_node_measures([1.0, 0.6, 0.6])
        with pytest.raises(ConsistencyError, match="additive"):
            coefficients_from_measure(tree)

    def test_integer_masses_must_be_exactly_additive(self):
        tree = DyadicTree.from_node_measures([10, 5, 4])
        with pytest.raises(ConsistencyError):
            coefficients_from_measure(tree)

    def test_zero_mass_node_yields_zero_subtree(self):
        tree = DyadicTree.from_leaf_masses([0, 0, 3, 1])
        coeffs = coefficients_from_measure(tree)
        assert coeffs.a[2] == 0.0  # empty left child of the root
        assert coeffs.a[1] == -1.0


class TestMeasureFromCoefficients:
    def test_inverts_depth1_example(self):
        coeffs = CoefficientTree.from_level_order(1.0, [-0.5])
        tree = measure_from_coefficients(coeffs)
        assert tree.node_measure.tolist() == [0.0, 1.0, 0.25, 0.75]

    def test_zero_coefficients_reduce_to_naive_measure(self):
        coeffs = CoefficientTree.from_level_order(1.0, [0.0, 0.0, 0.0])
        tree = measure_from_coefficients(coeffs)
        assert tree.leaf_masses.tolist() == [0.25, 0.25, 0.25, 0.25]

    def test_round_trip_measure_to_coefficients_to_measure(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            depth = int(rng.integers(1, 5))
            leaves = rng.uniform(0, 5, size=2**depth)
            tree = DyadicTree.from_leaf_masses(leaves)
            back = measure_from_coefficients(coefficients_from_measure(tree))
            assert np.abs(back.node_measure - tree.node_measure).max() <= 1e-12

    def test_round_trip_coefficients_to_measure_to_coefficients(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            depth = int(rng.integers(1, 5))
            a = rng.uniform(-0.999, 0.999, size=2**depth - 1)
            coeffs = CoefficientTree.from_level_order(rng.uniform(0.1, 9.0), a)
            back = coefficients_from_measure(measure_from_coefficients(coeffs))
            assert np.abs(back.level_order - coeffs.level_order).max() <= 1e-12
            assert back.root_mass == pytest.approx(coeffs.root_mass, abs=1e-12)

    def test_extreme_coefficient_with_clean_subtree(self):
        coeffs = CoefficientTree.from_level_order(4.0, [1.0, 0.5, 0.0])
        tree = measure_from_coefficients(coeffs)
        assert tree.node_measure[2] == 4.0  # all mass flows left
        assert tree.node_measure[3] == 0.0

    def test_constraint_violation_plus_one(self):
        coeffs = CoefficientTree.from_level_order(1.0, [1.0, 0.0, 0.25])
        with pytest.raises(ConsistencyError):
            measure_from_coefficients(coeffs)

    def test_constraint_violation_minus_one(self):
        coeffs = CoefficientTree.from_level_order(1.0, [-1.0, 0.25, 0.0])
        with pytest.raises(ConsistencyError):
            measure_from_coefficients(coeffs)

    def test_out_of_range_coefficient_rejected(self):
        with pytest.raises(ValidationError):
            CoefficientTree.from_level_order(1.0, [1.5])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=7, max_size=7))
    def test_reconstruction_is_always_non_negative_and_additive(self, a):
        coeffs = CoefficientTree.from_level_order(1.0, a)
        try:
            tree = measure_from_coefficients(coeffs)
        except ConsistencyError:
            return  # +-1 constraint violations are legal rejections
        assert (tree.node_measure >= 0).all()
        tree.validate_additivity()


class TestHaar:
    def test_root_left_leaf(self):
        assert haar_value(1, 8, 3) == 1

    def test_node_outside_support(self):
        # Root's left child does not contain the rightmost leaf.
        assert haar_value(2, 15, 3) == 0

    def test_exhaustive_against_ancestor_walk(self):
        # Oracle: enumerate the full ancestor path of each leaf.
        depth = 3
        for node in range(1, 2**depth):
            for leaf in range(2**depth, 2 ** (depth + 1)):
                path = []
                cur = leaf
                while cur >= 1:
                    path.append(cur)
                    cur //= 2
                if 2 * node in path:
                    expected = 1
                elif 2 * node + 1 in path:
                    expected = -1
                else:
                    expected = 0
                assert haar_value(node, leaf, depth) == expected

    def test_invalid_indices(self):
        with pytest.raises(ValidationError):
            haar_value(8, 8, 3)  # node must be non-leaf
        with pytest.raises(ValidationError):
            haar_value(1, 3, 3)  # leaf must be at depth 3

    def test_same_level_orthogonality(self):
        depth = 3
        for s in range(2, 4):
            for t in range(2, 4):
                if s == t:
                    continue
                total = sum(
                    haar_value(s, leaf, depth)
                    * haar_value(t, leaf, depth)
                    * naive_measure_value(leaf)
                    for leaf in range(8, 16)
                )
                assert total == 0


class TestTreeConstruction:
    def test_from_leaf_masses_is_exactly_additive(self):
        tree = DyadicTree.from_leaf_masses([1, 2, 3, 4])
        tree.validate_additivity()
        assert tree.root_mass == 10.0

    def test_integer_additivity_is_exact_not_toleranced(self):
        tree = DyadicTree.from_leaf_masses(np.arange(16))
        m = tree.node_measure
        for node in range(1, 16):
            assert m[node] == m[2 * node] + m[2 * node + 1]

    def test_negative_mass_rejected(self):
        with pytest.raises(ValidationError):
            DyadicTree.from_node_measures([1.0, -0.5, 1.5])

    def test_wrong_table_size_rejected(self):
        with pytest.raises(ValidationError):
            DyadicTree.from_node_measures([1.0, 0.5])

    def test_node_table_is_read_only(self):
        tree = DyadicTree.from_leaf_masses([1, 1])
        with pytest.raises(ValueError):
            tree.node_measure[1] = 5.0

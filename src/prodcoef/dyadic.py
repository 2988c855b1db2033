"""Dyadic measures, product coefficients, and the product formula.

A dyadic set is a recursive left/right binary partition of a root set.
We store a depth-d partition as a complete binary tree in a flat,
level-order table: the root is index 1 and node i has children 2i and
2i+1, so the table holds 2^(d+1) - 1 nodes (slot 0 is unused). Leaves
occupy indices 2^d .. 2^(d+1) - 1.

A non-negative measure assigns a mass to every node, additive across
each split. Its product coefficient at a non-leaf node S with children
L, R is

    a_S = (mu(L) - mu(R)) / mu(S)     (0 when mu(S) = 0),

always in [-1, 1]. Conversely a coefficient assignment plus a root
mass rebuilds the measure through the product formula

    mu(leaf) = mu(root) * 2^(-d) * prod_path (1 + a_S * h_S(leaf)),

where h_S is the Haar-like function that is +1 on the left child of S,
-1 on the right child, and 0 off S. The two directions are mutually
inverse wherever parent masses are positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ValidationError

ADDITIVITY_TOL = 1e-12


def level_of(node: int) -> int:
    return node.bit_length() - 1


def naive_measure_value(node: int) -> float:
    """dy(node): the reference measure halving at each level, dy(root) = 1."""
    return 2.0 ** (-level_of(node))


def _check_depth(depth) -> int:
    if not isinstance(depth, (int, np.integer)) or depth < 0:
        raise ValidationError(f"depth must be a non-negative integer, got {depth!r}")
    return int(depth)


@dataclass(frozen=True)
class DyadicTree:
    """Per-node masses of a measure on a depth-`depth` dyadic set.

    `node_measure` has length 2^(depth+1); index 0 is unused and zero.
    Additivity is validated by `validate_additivity` (consumers call it),
    not at construction, so malformed tables can be represented and
    rejected with a proper error by the operation that meets them.
    """

    depth: int
    node_measure: np.ndarray

    def __post_init__(self):
        depth = _check_depth(self.depth)
        object.__setattr__(self, "depth", depth)
        values = np.array(self.node_measure, dtype=np.float64, copy=True)
        if values.shape != (2 ** (depth + 1),):
            raise ValidationError(
                f"node table must have length {2 ** (depth + 1)} "
                f"(slot 0 unused), got {values.shape}"
            )
        values[0] = 0.0
        if not np.isfinite(values).all():
            raise ValidationError("node masses must be finite")
        if (values < 0).any():
            raise ValidationError("node masses must be non-negative")
        values.flags.writeable = False
        object.__setattr__(self, "node_measure", values)

    @classmethod
    def from_node_measures(cls, level_order) -> "DyadicTree":
        """Build from the level-order list [mu(X), mu(L(X)), mu(R(X)), ...]."""
        level_order = np.asarray(level_order, dtype=np.float64)
        size = len(level_order) + 1
        depth = size.bit_length() - 2
        if size != 2 ** (depth + 1):
            raise ValidationError(
                f"level-order table of length {len(level_order)} does not "
                "fill a complete binary tree"
            )
        table = np.concatenate([[0.0], level_order])
        return cls(depth=depth, node_measure=table)

    @classmethod
    def from_leaf_masses(cls, leaves) -> "DyadicTree":
        """Build from leaf masses; internal nodes are exact child sums."""
        leaves = np.asarray(leaves, dtype=np.float64)
        n = len(leaves)
        depth = n.bit_length() - 1
        if n != 2**depth or n == 0:
            raise ValidationError(f"need a power-of-two leaf count, got {n}")
        table = np.zeros(2 * n, dtype=np.float64)
        table[n:] = leaves
        for node in range(n - 1, 0, -1):
            table[node] = table[2 * node] + table[2 * node + 1]
        return cls(depth=depth, node_measure=table)

    @property
    def root_mass(self) -> float:
        return float(self.node_measure[1])

    @property
    def leaf_masses(self) -> np.ndarray:
        return self.node_measure[2**self.depth :]

    def validate_additivity(self) -> None:
        """Require mu(S) = mu(L(S)) + mu(R(S)) at every non-leaf node.

        Exact when parent and children are all integers (counting
        measures), within ADDITIVITY_TOL absolute otherwise.
        """
        m = self.node_measure
        for node in range(1, 2**self.depth):
            parent, left, right = m[node], m[2 * node], m[2 * node + 1]
            gap = abs(parent - (left + right))
            if gap == 0.0:
                continue
            integral = parent == int(parent) and left == int(left) and right == int(right)
            if integral or gap > ADDITIVITY_TOL:
                raise ConsistencyError(
                    f"measure not additive at node {node}: "
                    f"{parent} != {left} + {right}"
                )


@dataclass(frozen=True)
class CoefficientTree:
    """Product coefficients a_S for every non-leaf node, plus mu(X).

    `a` has length 2^depth; index 0 is unused and the coefficients sit
    at indices 1 .. 2^depth - 1 in level order. Range is validated at
    construction; the +-1 subtree constraints are validated by
    `validate_extreme_constraints` (a check, never a silent fix).
    """

    depth: int
    root_mass: float
    a: np.ndarray

    def __post_init__(self):
        depth = _check_depth(self.depth)
        object.__setattr__(self, "depth", depth)
        if not np.isfinite(self.root_mass) or self.root_mass < 0:
            raise ValidationError(f"root mass must be finite and >= 0, got {self.root_mass}")
        object.__setattr__(self, "root_mass", float(self.root_mass))
        coeffs = np.array(self.a, dtype=np.float64, copy=True)
        if coeffs.shape != (2**depth,):
            raise ValidationError(
                f"coefficient table must have length {2 ** depth} "
                f"(slot 0 unused), got {coeffs.shape}"
            )
        coeffs[0] = 0.0
        if not np.isfinite(coeffs).all() or (np.abs(coeffs) > 1.0).any():
            raise ValidationError("product coefficients must lie in [-1, 1]")
        coeffs.flags.writeable = False
        object.__setattr__(self, "a", coeffs)

    @classmethod
    def from_level_order(cls, root_mass: float, coefficients) -> "CoefficientTree":
        coefficients = np.asarray(coefficients, dtype=np.float64)
        size = len(coefficients) + 1
        depth = size.bit_length() - 1
        if size != 2**depth:
            raise ValidationError(
                f"{len(coefficients)} coefficients do not fill the non-leaf "
                "nodes of a complete binary tree"
            )
        return cls(depth=depth, root_mass=root_mass, a=np.concatenate([[0.0], coefficients]))

    @property
    def level_order(self) -> np.ndarray:
        """The 2^depth - 1 coefficients without the unused slot 0."""
        return self.a[1:]

    def validate_extreme_constraints(self) -> None:
        """Check the +-1 constraints of the product formula.

        a_S = +1 forces every coefficient under R(S) to be 0 (no mass
        flows right, so the right subtree is degenerate); a_S = -1
        forces the subtree under L(S) to be 0.
        """
        n_nonleaf = 2**self.depth
        for node in range(1, n_nonleaf):
            if self.a[node] == 1.0:
                self._require_zero_subtree(2 * node + 1, node, "+1")
            elif self.a[node] == -1.0:
                self._require_zero_subtree(2 * node, node, "-1")

    def _require_zero_subtree(self, sub_root: int, origin: int, sign: str) -> None:
        n_nonleaf = 2**self.depth
        stack = [sub_root]
        while stack:
            node = stack.pop()
            if node >= n_nonleaf:
                continue
            if self.a[node] != 0.0:
                raise ConsistencyError(
                    f"a={sign} at node {origin} requires a zero coefficient "
                    f"subtree, but node {node} has a={self.a[node]}"
                )
            stack.extend((2 * node, 2 * node + 1))


def product_coefficient(mu_parent: float, mu_left: float) -> float:
    """Signed left/right imbalance (mu(L) - mu(R)) / mu(S) of one split.

    mu(R) is implied as mu_parent - mu_left. Zero-mass nodes get
    coefficient 0 by convention.
    """
    mu_parent = float(mu_parent)
    mu_left = float(mu_left)
    if not (np.isfinite(mu_parent) and np.isfinite(mu_left)):
        raise ValidationError("masses must be finite")
    if mu_left < 0.0 or mu_parent < 0.0:
        raise ValidationError(f"masses must be non-negative, got ({mu_parent}, {mu_left})")
    if mu_left > mu_parent:
        raise ValidationError(
            f"left mass {mu_left} exceeds parent mass {mu_parent}"
        )
    if mu_parent == 0.0:
        return 0.0
    return (2.0 * mu_left - mu_parent) / mu_parent


def coefficients_from_measure(tree: DyadicTree) -> CoefficientTree:
    """Solve every split for its product coefficient (zero-mass rule applies).

    Evaluates (mu(L) - mu(R)) / mu(S) on the stored child masses, which
    is bit-identical to the implied-right-mass form of
    `product_coefficient` for counting measures and within one ulp for
    real ones.
    """
    tree.validate_additivity()
    n_nonleaf = 2**tree.depth
    m = tree.node_measure
    parents = m[1:n_nonleaf]
    lefts = m[2 : 2 * n_nonleaf : 2]
    rights = m[3 : 2 * n_nonleaf : 2]
    coeffs = np.zeros(n_nonleaf, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = (lefts - rights) / parents
    coeffs[1:] = np.where(parents > 0.0, raw, 0.0)
    return CoefficientTree(depth=tree.depth, root_mass=m[1], a=coeffs)


def measure_from_coefficients(coeffs: CoefficientTree) -> DyadicTree:
    """Rebuild the measure determined by a coefficient assignment.

    Leaf masses come from the product formula; internal nodes are then
    summed bottom-up, so additivity holds exactly by construction.
    Raises ConsistencyError if the +-1 subtree constraints are violated.
    """
    coeffs.validate_extreme_constraints()
    d = coeffs.depth
    n_leaves = 2**d
    leaves_idx = np.arange(n_leaves, 2 * n_leaves)
    prod = np.full(n_leaves, coeffs.root_mass * 2.0 ** (-d), dtype=np.float64)
    cur = leaves_idx
    while cur[0] > 1:
        sign = 1.0 - 2.0 * (cur & 1)  # left child (even) -> +1, right -> -1
        parent = cur >> 1
        prod *= 1.0 + coeffs.a[parent] * sign
        cur = parent
    return DyadicTree.from_leaf_masses(prod)


def haar_value(node: int, leaf: int, depth: int) -> int:
    """Evaluate the Haar-like function h_node at a depth-`depth` leaf.

    Returns +1 if the leaf sits under the left child of `node`, -1 if
    under the right child, 0 if the leaf is outside `node` entirely.
    """
    depth = _check_depth(depth)
    if not 1 <= node < 2**depth:
        raise ValidationError(f"node {node} is not a non-leaf index at depth {depth}")
    if not 2**depth <= leaf < 2 ** (depth + 1):
        raise ValidationError(f"leaf {leaf} is not a leaf index at depth {depth}")
    cur = leaf
    while cur > node:
        prev = cur
        cur >>= 1
        if cur == node:
            return 1 if prev == 2 * node else -1
    return 0

"""Two-level colouring: correctness of the race-avoidance plans."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import op2
from repro.op2.color import colour_blocks, colour_elements, verify_colouring
from repro.op2.plan import BLOCK_SIZE, build_plan


class TestElementColouring:
    def test_chain_needs_two_colours(self):
        # elements i and i+1 share node i+1
        targets = np.asarray([[0, 1], [1, 2], [2, 3], [3, 4]])
        colours, n = colour_elements(targets, 4)
        assert n == 2
        assert verify_colouring(colours, targets, 4)

    def test_independent_elements_one_colour(self):
        targets = np.asarray([[0], [1], [2]])
        colours, n = colour_elements(targets, 3)
        assert n == 1

    def test_star_needs_n_colours(self):
        # every element touches node 0: total conflict
        targets = np.zeros((5, 1), dtype=np.int64)
        colours, n = colour_elements(targets, 5)
        assert n == 5

    def test_empty(self):
        colours, n = colour_elements(np.zeros((0, 2), dtype=np.int64), 0)
        assert n == 0 and colours.size == 0

    def test_no_targets_single_colour(self):
        colours, n = colour_elements(np.zeros((4, 0), dtype=np.int64), 4)
        assert n == 1

    @given(
        n_elems=st.integers(1, 40),
        arity=st.integers(1, 3),
        n_targets=st.integers(1, 12),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_valid_colouring(self, n_elems, arity, n_targets, seed):
        """No two same-coloured elements ever share a target."""
        rng = np.random.default_rng(seed)
        # draw each column from a disjoint target range so rows never
        # contain duplicate targets (which the verifier would flag)
        targets = np.stack(
            [rng.integers(k * n_targets, (k + 1) * n_targets, n_elems) for k in range(arity)],
            axis=1,
        )
        colours, n = colour_elements(targets, n_elems)
        assert (colours >= 0).all()
        assert colours.max() + 1 == n
        assert verify_colouring(colours, targets, n_elems)


class TestBlockColouring:
    def test_blocks_sharing_targets_differ(self):
        # 4 elements, 2 blocks; element 1 (block 0) and 2 (block 1) share node 2
        block_of = np.asarray([0, 0, 1, 1])
        targets = np.asarray([[0, 1], [1, 2], [2, 3], [3, 4]])
        colours, n = colour_blocks(block_of, targets, 2)
        assert colours[0] != colours[1]
        assert n == 2

    def test_disjoint_blocks_share_colour(self):
        block_of = np.asarray([0, 0, 1, 1])
        targets = np.asarray([[0], [1], [2], [3]])
        colours, n = colour_blocks(block_of, targets, 2)
        assert n == 1


class TestPlan:
    def _race_mesh(self, n=64, block_size=8):
        nodes = op2.Set(n + 1)
        edges = op2.Set(n)
        m = op2.Map(edges, nodes, 2, [[i, i + 1] for i in range(n)])
        acc = op2.Dat(nodes, 1)
        args = [acc(op2.INC, m, 0), acc(op2.INC, m, 1)]
        return edges, args, block_size

    def test_plan_structure(self):
        edges, args, bs = self._race_mesh()
        plan = build_plan(edges, args, block_size=bs)
        assert plan.n_blocks == 8
        assert plan.n_block_colours >= 2
        # all elements covered exactly once across colours
        all_elems = np.concatenate(
            [plan.elements_of_colour(c) for c in range(plan.n_block_colours)]
        )
        assert sorted(all_elems.tolist()) == list(range(64))

    def test_blocks_of_same_colour_are_race_free(self):
        edges, args, bs = self._race_mesh()
        plan = build_plan(edges, args, block_size=bs)
        m = args[0].map
        for c in range(plan.n_block_colours):
            elems = plan.elements_of_colour(c)
            # group per block and check cross-block target disjointness
            blocks = {}
            for e in elems:
                blocks.setdefault(plan.block_of[e], set()).update(m.values[e])
            seen = set()
            for tgt in blocks.values():
                assert not (seen & tgt)
                seen |= tgt

    def test_different_block_size_different_plan(self):
        edges, args, _ = self._race_mesh()
        p1 = build_plan(edges, args, block_size=8)
        p2 = build_plan(edges, args, block_size=16)
        assert p1 is not p2
        assert p2.n_blocks == 4

    def test_no_race_args_single_colour(self):
        s = op2.Set(10)
        d = op2.Dat(s, 1)
        plan = build_plan(s, [d(op2.RW)], block_size=4)
        assert plan.n_block_colours == 1

    def test_default_block_size(self):
        edges, args, _ = self._race_mesh()
        plan = build_plan(edges, args)
        assert plan.block_size == BLOCK_SIZE
        assert plan.n_blocks == 1


def _conflict_degrees(targets: np.ndarray) -> np.ndarray:
    """Per element, how many other elements share at least one target."""
    n = targets.shape[0]
    by_target: dict[int, set[int]] = {}
    for e in range(n):
        for t in targets[e]:
            by_target.setdefault(int(t), set()).add(e)
    deg = np.zeros(n, dtype=np.int64)
    for e in range(n):
        neighbours = set()
        for t in targets[e]:
            neighbours |= by_target[int(t)]
        deg[e] = len(neighbours - {e})
    return deg


@st.composite
def _target_matrices(draw):
    n_elems = draw(st.integers(1, 30))
    arity = draw(st.integers(1, 3))
    n_targets = draw(st.integers(1, 10))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    # disjoint per-column ranges: no duplicate targets within a row
    return np.stack(
        [rng.integers(k * n_targets, (k + 1) * n_targets, n_elems) for k in range(arity)],
        axis=1,
    )


class TestColouringProperties:
    @given(targets=_target_matrices())
    @settings(max_examples=60, deadline=None)
    def test_no_same_colour_conflicts(self, targets):
        n = targets.shape[0]
        colours, n_colours = colour_elements(targets, n)
        assert verify_colouring(colours, targets, n)

    @given(targets=_target_matrices())
    @settings(max_examples=60, deadline=None)
    def test_colour_count_bounded_by_max_degree(self, targets):
        """Greedy first-fit never needs more than max conflict degree + 1."""
        n = targets.shape[0]
        _, n_colours = colour_elements(targets, n)
        assert n_colours <= int(_conflict_degrees(targets).max()) + 1

    @given(targets=_target_matrices(), seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_block_colouring_separates_conflicting_blocks(self, targets, seed):
        n = targets.shape[0]
        rng = np.random.default_rng(seed)
        n_blocks = int(rng.integers(1, n + 1))
        block_of = np.sort(rng.integers(0, n_blocks, n))
        colours, n_colours = colour_blocks(block_of, targets, n_blocks)
        assert n_colours >= 1
        # same-coloured blocks must have disjoint target sets
        for c in range(n_colours):
            seen: set[int] = set()
            for b in np.nonzero(colours == c)[0]:
                tgts = set(targets[block_of == b].ravel().tolist())
                assert not (seen & tgts)
                seen |= tgts


class TestSparseTargetIds:
    """Regression: colouring must not allocate O(max target id) memory.

    Targets are densified first, so astronomically large ids (global node
    numbers from a petascale mesh, say) cost O(unique ids), not O(max id).
    """

    def test_huge_target_ids(self):
        targets = np.asarray([[10**15], [10**15], [999], [10**15 + 7]])
        colours, n = colour_elements(targets, 4)
        assert n == 2
        assert colours[0] != colours[1]
        assert verify_colouring(colours, targets, 4)

    def test_huge_ids_block_colouring(self):
        block_of = np.asarray([0, 0, 1, 1])
        targets = np.asarray([[10**12, 1], [1, 10**15], [10**15, 3], [3, 10**18]])
        colours, n = colour_blocks(block_of, targets, 2)
        assert colours[0] != colours[1]

    def test_sparse_ids_match_dense_equivalent(self):
        rng = np.random.default_rng(11)
        dense = rng.integers(0, 9, size=(40, 2))
        # strictly monotone relabelling preserves the conflict structure
        relabel = np.sort(rng.choice(10**14, size=9, replace=False))
        sparse = relabel[dense]
        c_dense, n_dense = colour_elements(dense, 40)
        c_sparse, n_sparse = colour_elements(sparse, 40)
        np.testing.assert_array_equal(c_dense, c_sparse)
        assert n_dense == n_sparse

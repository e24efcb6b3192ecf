"""Parity suite for the array-native graph kernels.

Pins the ``konig-array`` / ``euler-array`` colouring backends to the
reference backends on generated regular multigraphs (proper colourings, same
colour count), the numpy Hopcroft–Karp to the list implementation (same
cardinality), the array padding to the object padding (same edge multiset),
and the array fair-distribution pipeline to the object solver
(bit-identical assignments per array backend).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import EdgeColoringError, GraphError
from repro.graph.array_coloring import (
    ARRAY_COLORING_KERNELS,
    _alternate_mask,
    _alternate_mask_stack,
    _orbit_minima,
    coloring_from_instances,
    euler_array_colors,
    euler_array_colors_stack,
    euler_split_instances,
    konig_array_colors,
    verify_instance_coloring,
)
from repro.graph.array_multigraph import ArrayMultigraph
from repro.graph.edge_coloring import (
    COLORING_BACKENDS,
    edge_color,
    verify_edge_coloring,
)
from repro.graph.matching import hopcroft_karp, hopcroft_karp_csr
from repro.graph.multigraph import BipartiteMultigraph
from repro.graph.regularize import pad_to_regular, pad_to_regular_arrays
from repro.routing.fair_distribution import (
    FairDistributionSolver,
    verify_fair_distribution,
    verify_fair_distribution_arrays,
)
from repro.routing.list_system import ListSystem
from repro.utils.permutations import random_permutation

ALL_BACKENDS = sorted(COLORING_BACKENDS)
ARRAY_BACKENDS = sorted(ARRAY_COLORING_KERNELS)


def regular_multigraph(n_vertices: int, permutations: list[list[int]]) -> BipartiteMultigraph:
    """Union of permutation matchings: a len(permutations)-regular multigraph."""
    graph = BipartiteMultigraph(n_vertices, n_vertices)
    for permutation in permutations:
        for left, right in enumerate(permutation):
            graph.add_edge(left, right)
    return graph


@st.composite
def regular_multigraphs(draw, max_vertices: int = 6, max_degree: int = 32):
    """A regular bipartite multigraph built from stacked random matchings."""
    n_vertices = draw(st.integers(min_value=1, max_value=max_vertices))
    degree = draw(st.integers(min_value=1, max_value=max_degree))
    permutations = draw(
        st.lists(
            st.permutations(range(n_vertices)),
            min_size=degree,
            max_size=degree,
        )
    )
    return regular_multigraph(n_vertices, [list(p) for p in permutations])


class TestArrayMultigraph:
    def test_round_trip_and_canonical_form(self, rng):
        for _ in range(10):
            n = rng.randint(1, 6)
            degree = rng.randint(1, 8)
            graph = regular_multigraph(
                n, [random_permutation(n, rng) for _ in range(degree)]
            )
            array_graph = ArrayMultigraph.from_bipartite(graph)
            assert array_graph.to_bipartite() == graph
            assert array_graph.n_edges == graph.n_edges
            assert array_graph.regular_degree() == degree
            # Canonical ordering: distinct edges ascending, multiplicities positive.
            keys = array_graph.left * n + array_graph.right
            assert (np.diff(keys) > 0).all()
            assert (array_graph.mult >= 1).all()

    def test_from_instances_accumulates_multiplicity(self):
        graph = ArrayMultigraph.from_instances(
            2, 2, np.array([0, 0, 1, 0]), np.array([1, 1, 0, 0])
        )
        assert graph.n_edges == 4
        assert graph.to_bipartite().multiplicity(0, 1) == 2

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(GraphError):
            ArrayMultigraph.from_instances(2, 2, np.array([2]), np.array([0]))

    def test_instance_expansion_matches_multiset(self, rng):
        graph = regular_multigraph(4, [random_permutation(4, rng) for _ in range(5)])
        array_graph = ArrayMultigraph.from_bipartite(graph)
        left, right = array_graph.instances()
        expanded = sorted(zip(left.tolist(), right.tolist()))
        assert expanded == sorted(graph.edge_instances())


class TestHopcroftKarpCsr:
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=7), max_size=8),
            min_size=0,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_list_implementation_cardinality(self, rows):
        adjacency = [sorted(set(row)) for row in rows]
        n_right = 8
        indptr = np.concatenate(
            ([0], np.cumsum([len(row) for row in adjacency]))
        ).astype(np.int64)
        indices = np.array(
            [right for row in adjacency for right in row], dtype=np.int64
        )
        match_left = hopcroft_karp_csr(indptr, indices, n_right)
        reference = hopcroft_karp(adjacency, n_right)
        assert int((match_left >= 0).sum()) == len(reference)
        # Every reported pair is a real edge and rights are distinct.
        matched = [
            (left, int(right))
            for left, right in enumerate(match_left.tolist())
            if right >= 0
        ]
        assert all(right in adjacency[left] for left, right in matched)
        rights = [right for _, right in matched]
        assert len(set(rights)) == len(rights)

    def test_large_graph_takes_vectorized_path(self, rng):
        # Above the small-graph threshold: a 64-regular support on 64 vertices.
        n = 64
        graph = regular_multigraph(n, [random_permutation(n, rng) for _ in range(64)])
        array_graph = ArrayMultigraph.from_bipartite(graph)
        indptr, indices = array_graph.support_csr()
        match_left = hopcroft_karp_csr(indptr, indices, n)
        assert (match_left >= 0).all()

    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=7), max_size=8),
            min_size=0,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_vectorized_path_parity(self, rows):
        # Force the greedy-seed + layered-BFS + iterative-DFS path on the
        # same generated graphs the small-path test uses, by dropping the
        # delegation threshold to zero.
        import repro.graph.matching as matching

        adjacency = [sorted(set(row)) for row in rows]
        n_right = 8
        indptr = np.concatenate(
            ([0], np.cumsum([len(row) for row in adjacency]))
        ).astype(np.int64)
        indices = np.array(
            [right for row in adjacency for right in row], dtype=np.int64
        )
        original = matching._SMALL_GRAPH_EDGES
        matching._SMALL_GRAPH_EDGES = -1
        try:
            match_left = hopcroft_karp_csr(indptr, indices, n_right)
        finally:
            matching._SMALL_GRAPH_EDGES = original
        reference = hopcroft_karp(adjacency, n_right)
        assert int((match_left >= 0).sum()) == len(reference)
        matched = [
            (left, int(right))
            for left, right in enumerate(match_left.tolist())
            if right >= 0
        ]
        assert all(right in adjacency[left] for left, right in matched)
        rights = [right for _, right in matched]
        assert len(set(rights)) == len(rights)

    def test_vectorized_path_long_augmenting_chain(self):
        # A chain graph whose single augmenting path visits ~4000 vertices:
        # the greedy seed mismatches the chain end, and the iterative DFS
        # must walk the whole path without hitting the recursion limit.
        n = 4000
        rows = [[0]] + [[i - 1, i] for i in range(1, n)]
        indptr = np.concatenate(
            ([0], np.cumsum([len(row) for row in rows]))
        ).astype(np.int64)
        indices = np.array([r for row in rows for r in row], dtype=np.int64)
        match_left = hopcroft_karp_csr(indptr, indices, n)
        assert (match_left >= 0).all()


class TestEulerSplitInstances:
    def test_halves_every_degree(self, rng):
        for _ in range(10):
            n = rng.randint(1, 6)
            degree = 2 * rng.randint(1, 8)
            graph = regular_multigraph(
                n, [random_permutation(n, rng) for _ in range(degree)]
            )
            left, right = ArrayMultigraph.from_bipartite(graph).instances()
            mask = euler_split_instances(left, right)
            for half in (mask, ~mask):
                assert (
                    np.bincount(left[half], minlength=n) == degree // 2
                ).all()
                assert (
                    np.bincount(right[half], minlength=n) == degree // 2
                ).all()

    def test_rejects_odd_degree(self):
        with pytest.raises(GraphError):
            euler_split_instances(np.array([0]), np.array([0]))


def cycle_walk_minima(step: np.ndarray) -> np.ndarray:
    """Orbit minima of the permutation ``step`` by walking every cycle."""
    images = step.tolist()
    minima = [-1] * len(images)
    for start in range(len(images)):
        if minima[start] >= 0:
            continue
        cycle = [start]
        node = images[start]
        while node != start:
            cycle.append(node)
            node = images[node]
        low = min(cycle)
        for node in cycle:
            minima[node] = low
    return np.array(minima, dtype=np.int64)


#: Segment lengths spanning the pointer-doubling tiers (plain below 2**13,
#: packed uint32 up to 2**16, packed int64 above); several do not divide
#: 2**16, so the last block of a blocked union is short.
SEGMENT_LENGTHS = [2, 30, 64, 1022, 2046, 3000, 7168, 16384, 65536, 70000]


@st.composite
def segment_unions(draw, max_size: int = 1 << 18):
    """``(rows, seg_len)`` stacks of per-segment random orderings."""
    seg_len = draw(st.sampled_from(SEGMENT_LENGTHS))
    rows = draw(st.integers(min_value=1, max_value=max(1, max_size // seg_len)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    gen = np.random.default_rng(seed)
    return np.stack([gen.permutation(seg_len) for _ in range(rows)])


class TestOrbitMinima:
    """The pointer-doubling kernels against a plain cycle walk.

    The Euler split colours each cycle by its orbit minima, so every tier of
    :func:`_orbit_minima` — and the cache-blocked union of
    :func:`_alternate_mask_stack` — must reproduce the exact minima.
    """

    @given(order=segment_unions())
    @settings(max_examples=30, deadline=None)
    def test_every_tier_matches_cycle_walk(self, order):
        rows, seg_len = order.shape
        # A disjoint union of per-segment permutations: orbits stay inside
        # their segment, as the Euler split's do.
        step = (order + np.arange(rows)[:, None] * seg_len).ravel()
        minima = _orbit_minima(step, seg_len)
        np.testing.assert_array_equal(minima, cycle_walk_minima(step))

    @given(order=segment_unions())
    @settings(max_examples=30, deadline=None)
    def test_blocked_mask_matches_unblocked_and_cycle_walk(self, order):
        rows, seg_len = order.shape
        size = rows * seg_len
        flat = (order + np.arange(rows)[:, None] * seg_len).ravel()
        partner_right = np.empty(size, dtype=np.int64)
        partner_right[flat[0::2]] = flat[1::2]
        partner_right[flat[1::2]] = flat[0::2]
        partner_left = np.arange(size, dtype=np.int64) ^ 1
        minima = cycle_walk_minima(partner_right[partner_left])
        walked = minima > minima[partner_left]
        unblocked = _alternate_mask(partner_left, partner_right)
        blocked = _alternate_mask_stack(order, seg_len)
        np.testing.assert_array_equal(unblocked, walked)
        np.testing.assert_array_equal(blocked, walked)

    @pytest.mark.parametrize(
        "n_vertices,degree,batch",
        [(64, 64, 20), (56, 64, 24), (16, 48, 90), (128, 128, 5)],
    )
    def test_stack_above_packed_union_is_row_wise_identical(
        self, n_vertices, degree, batch
    ):
        """Stacks over 2**16 instances take the blocked path; rows match B = 1."""
        gen = np.random.default_rng(n_vertices * degree + batch)
        lefts, rights, graphs = [], [], []
        for _ in range(batch):
            right = np.concatenate(
                [gen.permutation(n_vertices) for _ in range(degree)]
            )
            graph = ArrayMultigraph.from_instances(
                n_vertices, n_vertices, np.tile(np.arange(n_vertices), degree), right
            )
            left_row, right_row = graph.instances()
            lefts.append(left_row)
            rights.append(right_row)
            graphs.append(graph)
        left, right = np.stack(lefts), np.stack(rights)
        assert left.size > 1 << 16
        colors = euler_array_colors_stack(
            left, right, n_vertices, n_vertices, degree
        )
        for b, graph in enumerate(graphs):
            np.testing.assert_array_equal(colors[b], euler_array_colors(graph))
            verify_instance_coloring(graph, colors[b])


class TestColoringBackendParity:
    @given(graph=regular_multigraphs(), backend=st.sampled_from(ALL_BACKENDS))
    @settings(max_examples=80, deadline=None)
    def test_all_backends_produce_proper_colorings(self, graph, backend):
        coloring = edge_color(graph, backend=backend)
        verify_edge_coloring(graph, coloring)
        assert coloring.n_colors == graph.regular_degree()
        assert coloring.n_edges == graph.n_edges

    @given(graph=regular_multigraphs(max_vertices=5, max_degree=16))
    @settings(max_examples=40, deadline=None)
    def test_kernels_agree_with_wrappers(self, graph):
        array_graph = ArrayMultigraph.from_bipartite(graph)
        for kernel, backend in (
            (konig_array_colors, "konig-array"),
            (euler_array_colors, "euler-array"),
        ):
            colors = kernel(array_graph)
            verify_instance_coloring(array_graph, colors)
            rebuilt = coloring_from_instances(array_graph, colors)
            verify_edge_coloring(graph, rebuilt)
            via_backend = edge_color(graph, backend=backend)
            assert rebuilt.classes == via_backend.classes

    def test_power_of_two_degrees_up_to_32(self, rng):
        for degree in (1, 2, 4, 8, 16, 32):
            graph = regular_multigraph(
                4, [random_permutation(4, rng) for _ in range(degree)]
            )
            for backend in ARRAY_BACKENDS:
                coloring = edge_color(graph, backend=backend)
                verify_edge_coloring(graph, coloring)
                assert coloring.n_colors == degree

    def test_verify_instance_coloring_catches_clash(self):
        graph = ArrayMultigraph.from_instances(
            2, 2, np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
        )
        bad = np.zeros(4, dtype=np.int64)  # one colour reuses every vertex
        with pytest.raises(EdgeColoringError):
            verify_instance_coloring(graph, bad)


class TestPaddingParity:
    @pytest.mark.parametrize("d,g", [(2, 4), (3, 7), (2, 8), (4, 6), (5, 7)])
    def test_array_padding_matches_object_padding(self, d, g, rng):
        pi = random_permutation(d * g, rng)
        system = ListSystem.from_permutation(pi, d, g)
        n_targets = g if d <= g else d
        padded = pad_to_regular(system.to_multigraph(), n_targets)
        padded_arrays = pad_to_regular_arrays(system.to_array_multigraph(), n_targets)
        assert padded_arrays.graph == ArrayMultigraph.from_bipartite(padded.graph)
        assert padded_arrays.n_core_left == padded.n_core_left
        assert padded_arrays.target_degree == padded.target_degree


class TestArrayFairDistribution:
    @pytest.mark.parametrize("backend", ARRAY_BACKENDS)
    @pytest.mark.parametrize(
        "d,g", [(2, 4), (4, 4), (3, 3), (8, 4), (9, 3), (7, 5), (5, 7), (6, 1), (32, 2)]
    )
    def test_solve_array_identical_to_object_solver(self, d, g, backend, rng):
        for _ in range(3):
            pi = random_permutation(d * g, rng)
            system = ListSystem.from_permutation(pi, d, g)
            solver = FairDistributionSolver(backend=backend)
            object_assignment = solver.solve(system).assignment
            array_assignment = solver.solve_array(
                system.lists_array(), system.n_targets
            )
            assert array_assignment.tolist() == [
                list(row) for row in object_assignment
            ]
            # The array assignment passes both verifiers.
            verify_fair_distribution(system, array_assignment.tolist())
            verify_fair_distribution_arrays(
                system.lists_array(), array_assignment, system.n_targets
            )

    def test_solve_array_rejects_non_array_backend(self):
        solver = FairDistributionSolver(backend="konig")
        with pytest.raises(EdgeColoringError):
            solver.solve_array(np.array([[0, 1], [0, 1]]), 2)

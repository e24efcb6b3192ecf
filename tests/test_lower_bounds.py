"""Unit tests for repro.routing.lower_bounds (Propositions 1-3)."""

from __future__ import annotations

import random
from math import ceil

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.patterns.families import cyclic_shift, group_cyclic_shift, vector_reversal
from repro.patterns.generators import (
    random_group_blocked_permutation,
    random_group_moving_blocked_permutation,
    random_within_group_permutation,
)
from repro.pops.topology import POPSNetwork
from repro.routing.lower_bounds import (
    best_known_lower_bound,
    best_known_lower_bound_stack,
    is_group_blocked,
    is_group_moving,
    proposition1_lower_bound,
    proposition2_lower_bound,
    proposition3_lower_bound,
)
from repro.utils.permutations import (
    identity_permutation,
    random_derangement,
    random_permutation,
)


class TestPredicates:
    def test_group_moving_true_for_group_shift(self):
        network = POPSNetwork(3, 4)
        assert is_group_moving(network, group_cyclic_shift(12, 3))

    def test_group_moving_false_for_identity(self, small_network):
        assert not is_group_moving(small_network, list(range(small_network.n)))

    def test_group_blocked_true_for_group_shift(self):
        network = POPSNetwork(3, 4)
        assert is_group_blocked(network, group_cyclic_shift(12, 3))

    def test_group_blocked_true_for_vector_reversal(self):
        network = POPSNetwork(4, 3)
        assert is_group_blocked(network, vector_reversal(12))

    def test_group_blocked_random_generator_consistency(self, rng):
        network = POPSNetwork(4, 3)
        assert is_group_blocked(network, random_group_blocked_permutation(network, rng))
        assert is_group_blocked(
            network, random_group_moving_blocked_permutation(network, rng)
        )
        assert is_group_blocked(network, random_within_group_permutation(network, rng))

    def test_group_blocked_false_for_generic_permutation(self, rng):
        network = POPSNetwork(4, 4)
        # A random permutation on 16 processors is essentially never blocked;
        # use a fixed counterexample to stay deterministic.
        pi = list(range(16))
        pi[0], pi[4] = pi[4], pi[0]
        assert not is_group_blocked(network, pi)


class TestProposition1:
    def test_applies_to_derangements(self, rng):
        network = POPSNetwork(8, 4)
        pi = random_derangement(network.n, rng)
        assert proposition1_lower_bound(network, pi) == ceil(8 / 4)

    def test_none_when_fixed_point_exists(self):
        network = POPSNetwork(2, 2)
        assert proposition1_lower_bound(network, [0, 1, 3, 2]) is None

    def test_bound_value_partial_round(self):
        network = POPSNetwork(7, 3)
        pi = cyclic_shift(21, 1)
        assert proposition1_lower_bound(network, pi) == 3

    def test_vector_reversal_odd_n_has_fixed_point(self):
        # With n odd the middle processor is fixed, so Proposition 1 does not apply.
        network = POPSNetwork(7, 3)
        assert proposition1_lower_bound(network, vector_reversal(21)) is None


class TestProposition2:
    def test_applies_to_group_moving_blocked(self, rng):
        network = POPSNetwork(8, 4)
        pi = random_group_moving_blocked_permutation(network, rng)
        assert proposition2_lower_bound(network, pi) == 2 * ceil(8 / 4)

    def test_none_when_not_blocked(self, rng):
        network = POPSNetwork(4, 4)
        pi = list(range(16))
        pi[0], pi[4] = pi[4], pi[0]
        assert proposition2_lower_bound(network, pi) is None

    def test_none_when_some_group_static(self, rng):
        network = POPSNetwork(4, 3)
        pi = random_within_group_permutation(network, rng)
        assert proposition2_lower_bound(network, pi) is None

    def test_vector_reversal_even_g(self):
        # The paper: vector reversal with even g meets the 2*ceil(d/g) bound.
        network = POPSNetwork(8, 4)
        assert proposition2_lower_bound(network, vector_reversal(32)) == 4

    def test_theorem2_matches_bound_exactly(self, rng):
        """On Proposition 2's class the universal router is exactly optimal."""
        for d, g in [(4, 4), (8, 4), (9, 3)]:
            network = POPSNetwork(d, g)
            pi = random_group_moving_blocked_permutation(network, rng)
            metrics = Session().route(pi, network=network)
            assert metrics.slots == proposition2_lower_bound(network, pi)


class TestProposition3:
    def test_applies_to_blocked_derangement(self, rng):
        network = POPSNetwork(8, 4)
        pi = random_group_moving_blocked_permutation(network, rng)
        assert proposition3_lower_bound(network, pi) == 2 * ceil(8 / 5)

    def test_applies_to_within_group_derangement(self):
        network = POPSNetwork(4, 2)
        # Swap neighbouring processors inside each group: fixed-point-free,
        # group map is the identity.
        pi = [1, 0, 3, 2, 5, 4, 7, 6]
        assert proposition3_lower_bound(network, pi) == 2 * ceil(4 / 3)

    def test_none_with_fixed_points(self):
        network = POPSNetwork(4, 2)
        assert proposition3_lower_bound(network, list(range(8))) is None

    def test_never_exceeds_proposition2(self, rng):
        for d, g in [(4, 4), (8, 4), (16, 4)]:
            network = POPSNetwork(d, g)
            pi = random_group_moving_blocked_permutation(network, rng)
            assert proposition3_lower_bound(network, pi) <= proposition2_lower_bound(
                network, pi
            )


class TestBestKnownLowerBound:
    def test_identity_gives_zero(self, small_network):
        assert best_known_lower_bound(small_network, list(range(small_network.n))) == 0

    def test_non_identity_gives_at_least_one(self):
        network = POPSNetwork(2, 2)
        assert best_known_lower_bound(network, [0, 1, 3, 2]) >= 1

    def test_picks_tightest_applicable(self, rng):
        network = POPSNetwork(8, 4)
        pi = random_group_moving_blocked_permutation(network, rng)
        assert best_known_lower_bound(network, pi) == 4

    def test_router_never_beats_lower_bound(self, network, rng):
        """Soundness of the bounds: measured slots are never below them."""
        pi = random_permutation(network.n, rng)
        metrics = Session().route(pi, network=network)
        assert metrics.slots >= best_known_lower_bound(network, pi)


#: Row generators of the stacked-bound parity suite: every class on which a
#: different proposition is the tightest (or none applies).
_ROW_KINDS = {
    "random": lambda network, rng: random_permutation(network.n, rng),
    "identity": lambda network, rng: identity_permutation(network.n),
    "derangement": lambda network, rng: (
        random_derangement(network.n, rng) if network.n > 1 else [0]
    ),
    "group_blocked": random_group_blocked_permutation,
    "group_moving_blocked": lambda network, rng: (
        random_group_moving_blocked_permutation(network, rng)
        if network.g > 1
        else random_group_blocked_permutation(network, rng)
    ),
    "within_group": random_within_group_permutation,
    "vector_reversal": lambda network, rng: vector_reversal(network.n),
    "group_shift": lambda network, rng: group_cyclic_shift(network.n, network.d),
}


class TestBestKnownLowerBoundStack:
    """``best_known_lower_bound_stack(net, S)[b] == best_known_lower_bound(net, S[b])``.

    Megabatches report the stacked bound and single routes the scalar one,
    so this is the contract that keeps their ``lower_bound`` fields equal.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(min_value=1, max_value=9),
        g=st.integers(min_value=1, max_value=9),
        kinds=st.lists(st.sampled_from(sorted(_ROW_KINDS)), min_size=1, max_size=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_each_row_equals_scalar_bound(self, d, g, kinds, seed):
        network = POPSNetwork(d, g)
        rng = random.Random(seed)
        stack = np.array(
            [_ROW_KINDS[kind](network, rng) for kind in kinds], dtype=np.int64
        )
        bounds = best_known_lower_bound_stack(network, stack)
        assert bounds.shape == (len(kinds),)
        assert bounds.tolist() == [
            best_known_lower_bound(network, row.tolist()) for row in stack
        ]

    def test_every_proposition_is_exercised(self, rng):
        """The row kinds reach each bound value, not only the trivial ones."""
        network = POPSNetwork(8, 4)
        stack = np.array(
            [_ROW_KINDS[kind](network, rng) for kind in sorted(_ROW_KINDS)],
            dtype=np.int64,
        )
        assert set(best_known_lower_bound_stack(network, stack).tolist()) >= {
            0, 1, ceil(8 / 4), 2 * ceil(8 / 5), 2 * ceil(8 / 4)
        }

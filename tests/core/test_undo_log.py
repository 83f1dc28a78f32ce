"""Undo-log RegionState and the checkpoint/rollback peel search.

Three layers of assurance, matching the PR's equivalence contract:

* randomized add/remove/checkpoint/rollback sequences where every rollback
  is compared field-for-field against a clone taken at checkpoint time —
  the clone path is the oracle the undo log must reproduce exactly
  (members, frontier counts, *exact* total length, bbox, removability,
  length ordering, population);
* golden-vector pinning: engine de-anonymization (hint and search modes,
  RGE and RPLE) must be byte-identical with the undo-log path on and off,
  and `peel_level` itself must return identical outcome lists;
* hinted peels run on maintained state at every region size, so small
  regions must peel exactly as the from-scratch `incremental=False` oracle
  does — both the full-chain forward replay and partial top-down grants.
"""

import random

import pytest

from repro import (
    KeyChain,
    PopulationSnapshot,
    PrivacyProfile,
    RegionState,
    ReverseCloakEngine,
    ReversiblePreassignmentExpansion,
    ToleranceSpec,
    grid_network,
    random_delaunay_network,
)
from repro.core import enumerate_bootstraps, peel_level
from repro.errors import CloakingError
from repro.keys import AccessKey

GRID = grid_network(8, 8)
DELAUNAY = random_delaunay_network(n_junctions=50, target_segments=100, seed=11)


def assert_states_equal(state, oracle):
    """Every observable of ``state`` equals the clone oracle's, exactly."""
    assert state.members == oracle.members
    assert len(state) == len(oracle)
    assert state.frontier() == oracle.frontier()
    assert state.frontier_counts() == oracle.frontier_counts()
    # Exact equality on purpose: rollback must restore the fixed-point
    # accumulator bit for bit, not approximately.
    assert state.exact_total_length == oracle.exact_total_length
    assert state.total_length == oracle.total_length
    assert state.population == oracle.population
    assert state.segments_by_length() == oracle.segments_by_length()
    if len(state):
        assert state.bounding_box() == oracle.bounding_box()
    assert state.removable_members() == oracle.removable_members()


class TestRandomizedRollback:
    @pytest.mark.parametrize("network", [GRID, DELAUNAY], ids=["grid", "delaunay"])
    def test_random_ops_with_nested_checkpoints(self, network):
        rng = random.Random(411)
        snapshot = PopulationSnapshot.from_counts(
            {sid: rng.randrange(4) for sid in network.segment_ids()}
        )
        all_segments = list(network.segment_ids())
        state = RegionState(network, snapshot=snapshot)
        # Stack of (token, clone-at-checkpoint) pairs — the oracle.
        checkpoints = []
        for _ in range(400):
            action = rng.random()
            if action < 0.25:
                checkpoints.append((state.checkpoint(), state.clone()))
            elif action < 0.40 and checkpoints:
                # Roll back to a random live checkpoint (dropping inner ones,
                # exactly like the peel search unwinding several levels).
                index = rng.randrange(len(checkpoints))
                token, oracle = checkpoints[index]
                del checkpoints[index:]
                state.rollback(token)
                assert_states_equal(state, oracle)
            elif action < 0.65 and state.members:
                state.remove(rng.choice(sorted(state.members)))
            else:
                sid = rng.choice(all_segments)
                if sid not in state.members:
                    state.add(sid)
        # Unwind everything that is left.
        while checkpoints:
            token, oracle = checkpoints.pop()
            state.rollback(token)
            assert_states_equal(state, oracle)

    def test_rollback_restores_cached_answers(self):
        state = RegionState.from_region(GRID, {0, 1, 2, 16})
        token = state.checkpoint()
        removable_before = state.removable_members()
        frontier_before = state.frontier()
        state.remove(2)
        state.add(17)
        state.rollback(token)
        # The restored cached objects are the very ones captured by the
        # trail, not recomputes — and they are still correct.
        assert state.removable_members() == removable_before
        assert state.frontier() == frontier_before

    def test_rollback_without_checkpoint_raises(self):
        state = RegionState.from_region(GRID, {0, 1})
        with pytest.raises(CloakingError):
            state.rollback(0)

    def test_rollback_past_trail_raises(self):
        state = RegionState.from_region(GRID, {0, 1})
        token = state.checkpoint()
        state.remove(1)
        with pytest.raises(CloakingError):
            state.rollback(token + 5)

    def test_rolled_past_token_is_dead(self):
        state = RegionState.from_region(GRID, {0, 1, 2})
        outer = state.checkpoint()
        state.remove(2)
        inner = state.checkpoint()
        state.remove(1)
        state.rollback(outer)
        with pytest.raises(CloakingError):
            state.rollback(inner)

    def test_clone_does_not_inherit_trail(self):
        state = RegionState.from_region(GRID, {0, 1, 2})
        state.checkpoint()
        state.remove(2)
        clone = state.clone()
        assert clone.trail_length == 0
        with pytest.raises(CloakingError):
            clone.rollback(0)
        # ... and mutating the clone never disturbs the original's trail.
        clone.add(2)
        state.rollback(0)
        assert state.members == {0, 1, 2}


def _engines(network, algorithm, **kwargs):
    return (
        ReverseCloakEngine(network, algorithm, undo_log=True, **kwargs),
        ReverseCloakEngine(network, algorithm, undo_log=False, **kwargs),
    )


class TestGoldenEquivalence:
    """Peel outcomes and envelopes byte-identical with the undo log on/off."""

    @pytest.fixture(scope="class")
    def network(self):
        return grid_network(10, 10)

    @pytest.fixture(scope="class")
    def snapshot(self, network):
        return PopulationSnapshot.from_counts(
            {sid: 1 for sid in network.segment_ids()}
        )

    @pytest.mark.parametrize("algo_name", ["rge", "rple"])
    def test_deanonymize_modes_identical(self, network, snapshot, algo_name):
        algorithm = (
            None
            if algo_name == "rge"
            else ReversiblePreassignmentExpansion.for_network(network)
        )
        undo, clone = _engines(network, algorithm)
        chain = KeyChain.from_passphrases(["undo-golden-1", "undo-golden-2"])
        profile = PrivacyProfile.uniform(
            levels=2, base_k=18, k_step=12, base_l=3, l_step=1, max_segments=80
        )
        user = network.segment_ids()[25]
        envelope = undo.anonymize(user, snapshot, profile, chain)
        # The undo log is a reversal-search feature; anonymization is
        # untouched, so both engines publish identical bytes.
        assert envelope == clone.anonymize(user, snapshot, profile, chain)
        for mode in ("hint", "auto"):
            assert undo.deanonymize(envelope, chain, 0, mode=mode) == (
                clone.deanonymize(envelope, chain, 0, mode=mode)
            )
        blind = undo.anonymize(user, snapshot, profile, chain, include_hints=False)
        result_undo = undo.deanonymize(blind, chain, 1, mode="search")
        result_clone = clone.deanonymize(blind, chain, 1, mode="search")
        assert result_undo == result_clone

    def test_peel_level_outcome_lists_identical(self, network):
        key = AccessKey.from_passphrase(1, "undo-peel")
        algorithm = ReversiblePreassignmentExpansion.for_network(network)
        tolerance = ToleranceSpec(max_segments=60)
        region = {44}
        anchor = 44
        for step in range(1, 13):
            segment = algorithm.forward_step(
                network, region, anchor, key, step, tolerance
            )
            region.add(segment)
            anchor = segment
        bootstraps = enumerate_bootstraps(network, region)
        outcomes_undo = peel_level(
            network, algorithm, key, region, 12, tolerance, bootstraps,
            undo_log=True,
        )
        outcomes_clone = peel_level(
            network, algorithm, key, region, 12, tolerance, bootstraps,
            undo_log=False,
        )
        assert outcomes_undo == outcomes_clone
        assert any(o.inner_region == frozenset({44}) for o in outcomes_undo)


class TestMaintainedStateAtEverySize:
    @pytest.mark.parametrize("network", [GRID, DELAUNAY], ids=["grid", "delaunay"])
    def test_hinted_peel_matches_from_scratch_oracle(self, network):
        """Hinted peels to L0 (chain replay) and to a partial target
        (top-down search) agree with the from-scratch oracle from 4- to
        40-segment regions: small regions run on maintained state too."""
        snapshot = PopulationSnapshot.from_counts(
            {sid: 1 for sid in network.segment_ids()}
        )
        chain = KeyChain.from_passphrases(["size-key-1", "size-key-2"])
        user = sorted(network.segment_ids())[len(network.segment_ids()) // 2]
        fast = ReverseCloakEngine(network)
        slow = ReverseCloakEngine(network, incremental=False)
        sizes = []
        for target in range(4, 41, 4):
            profile = PrivacyProfile.uniform(
                levels=2, base_k=target // 2, k_step=target - target // 2,
                base_l=2, l_step=1, max_segments=2 * target + 4,
            )
            envelope = fast.anonymize(user, snapshot, profile, chain)
            assert envelope == slow.anonymize(user, snapshot, profile, chain)
            sizes.append(len(envelope.region))
            for target_level in (0, 1):
                keys = chain.suffix(target_level + 1)
                assert fast.deanonymize(
                    envelope, keys, target_level, mode="hint"
                ) == slow.deanonymize(envelope, keys, target_level, mode="hint")
        assert min(sizes) <= 5 and max(sizes) >= 40

"""Tests for the trusted anonymizer's cloaking behaviour on
:class:`~repro.lbs.service.AnonymizerService`."""

import pytest

from repro import KeyChain, PrivacyProfile
from repro.errors import MobilityError, ToleranceExceededError
from repro.lbs import AnonymizerService, CloakRequest


@pytest.fixture()
def anonymizer(grid10, traffic_snapshot):
    server = AnonymizerService(grid10)
    server.update_snapshot(traffic_snapshot)
    return server


@pytest.fixture(scope="module")
def profile():
    return PrivacyProfile.uniform(
        levels=2, base_k=3, k_step=3, base_l=2, l_step=1, max_segments=60
    )


class TestCloak:
    def test_serves_request(self, anonymizer, traffic_snapshot, profile):
        user_id = traffic_snapshot.users()[0]
        chain = KeyChain.from_passphrases(["s1", "s2"])
        envelope = anonymizer.cloak(
            CloakRequest(user_id=user_id, profile=profile, chain=chain)
        )
        assert traffic_snapshot.segment_of(user_id) in envelope.region
        assert anonymizer.requests_served == 1

    def test_no_snapshot_rejected(self, grid10, profile):
        server = AnonymizerService(grid10)
        chain = KeyChain.from_passphrases(["s1", "s2"])
        with pytest.raises(MobilityError):
            server.cloak(CloakRequest(user_id=0, profile=profile, chain=chain))

    def test_unknown_user_rejected(self, anonymizer, profile):
        chain = KeyChain.from_passphrases(["s1", "s2"])
        with pytest.raises(MobilityError):
            anonymizer.cloak(
                CloakRequest(user_id=10_000, profile=profile, chain=chain)
            )

    def test_cloak_segment_direct(self, anonymizer, profile):
        chain = KeyChain.from_passphrases(["s1", "s2"])
        envelope = anonymizer.cloak_segment(50, profile, chain)
        assert 50 in envelope.region

    def test_failures_counted(self, anonymizer, traffic_snapshot):
        from repro.core import LevelRequirement, PrivacyProfile, ToleranceSpec

        impossible = PrivacyProfile(
            [LevelRequirement(k=10_000, l=2, tolerance=ToleranceSpec(max_segments=5))]
        )
        chain = KeyChain.from_passphrases(["s1"])
        user_id = traffic_snapshot.users()[0]
        with pytest.raises(ToleranceExceededError):
            anonymizer.cloak(
                CloakRequest(user_id=user_id, profile=impossible, chain=chain)
            )
        assert anonymizer.failures == 1

    def test_snapshot_updates_change_results(self, grid10, profile):
        from repro.mobility import PopulationSnapshot

        server = AnonymizerService(grid10)
        chain = KeyChain.from_passphrases(["s1", "s2"])
        dense = PopulationSnapshot.from_counts(
            {segment_id: 5 for segment_id in grid10.segment_ids()}
        )
        sparse = PopulationSnapshot.from_counts(
            {segment_id: 1 for segment_id in grid10.segment_ids()}
        )
        server.update_snapshot(dense)
        envelope_dense = server.cloak_segment(50, profile, chain)
        server.update_snapshot(sparse)
        envelope_sparse = server.cloak_segment(50, profile, chain)
        # fewer users per segment -> the same k needs a larger region
        assert len(envelope_sparse.region) > len(envelope_dense.region)

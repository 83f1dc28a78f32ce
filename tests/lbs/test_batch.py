"""Concurrency tests for ``AnonymizerService.cloak_batch`` on a thread-pool
backend, against an inline reference, and for the guarded bookkeeping
counters."""

import threading

import pytest

from repro import KeyChain, PopulationSnapshot, PrivacyProfile, grid_network
from repro.core import LevelRequirement, PrivacyProfile as CoreProfile, ToleranceSpec
from repro.errors import MobilityError, ToleranceExceededError
from repro.lbs import AnonymizerService, CloakRequest, ThreadPoolBackend


@pytest.fixture(scope="module")
def batch_profile():
    return PrivacyProfile.uniform(
        levels=2, base_k=3, k_step=3, base_l=2, l_step=1, max_segments=60
    )


@pytest.fixture()
def make_server(grid10):
    """Thread-pool-backed services (four workers), closed after the test."""
    services = []

    def make(snapshot=None):
        service = AnonymizerService(grid10, backend=ThreadPoolBackend(4))
        if snapshot is not None:
            service.update_snapshot(snapshot)
        services.append(service)
        return service

    yield make
    for service in services:
        service.close()


def _inline(grid10, snapshot):
    """The inline reference service."""
    service = AnonymizerService(grid10)
    service.update_snapshot(snapshot)
    return service


def _requests(snapshot, profile, count, tag="u"):
    return [
        CloakRequest(
            user_id=user_id,
            profile=profile,
            chain=KeyChain.from_passphrases([f"{tag}{user_id}-1", f"{tag}{user_id}-2"]),
        )
        for user_id in snapshot.users()[:count]
    ]


class TestCloakBatch:
    def test_matches_sequential_serving(
        self, grid10, traffic_snapshot, batch_profile, make_server
    ):
        server = make_server(traffic_snapshot)
        requests = _requests(traffic_snapshot, batch_profile, 16)
        reference = _inline(grid10, traffic_snapshot)
        sequential = [reference.cloak(request) for request in requests]
        outcomes = server.cloak_batch(requests)
        assert [outcome.request for outcome in outcomes] == requests  # order kept
        assert all(outcome.ok and outcome.error is None for outcome in outcomes)
        # Envelope byte-equality against single-request serving.
        assert [o.envelope.to_json() for o in outcomes] == [
            e.to_json() for e in sequential
        ]

    def test_inline_mode_matches_pool(
        self, grid10, traffic_snapshot, batch_profile, make_server
    ):
        server = make_server(traffic_snapshot)
        requests = _requests(traffic_snapshot, batch_profile, 8)
        inline = _inline(grid10, traffic_snapshot).cloak_batch(requests)
        pooled = server.cloak_batch(requests)
        assert [o.envelope for o in inline] == [o.envelope for o in pooled]

    def test_empty_batch(self, traffic_snapshot, make_server):
        server = make_server(traffic_snapshot)
        assert server.cloak_batch([]) == []

    def test_no_snapshot_rejected(self, batch_profile, make_server):
        server = make_server()
        with pytest.raises(MobilityError):
            server.cloak_batch(
                [
                    CloakRequest(
                        user_id=0,
                        profile=batch_profile,
                        chain=KeyChain.from_passphrases(["x1", "x2"]),
                    )
                ]
            )

    def test_failures_reported_in_place(
        self, traffic_snapshot, batch_profile, make_server
    ):
        server = make_server(traffic_snapshot)
        impossible = CoreProfile(
            [LevelRequirement(k=10_000, l=2, tolerance=ToleranceSpec(max_segments=5))]
        )
        good = _requests(traffic_snapshot, batch_profile, 4)
        bad = CloakRequest(
            user_id=traffic_snapshot.users()[0],
            profile=impossible,
            chain=KeyChain.from_passphrases(["bad1"]),
        )
        missing = CloakRequest(
            user_id=10_000,
            profile=batch_profile,
            chain=KeyChain.from_passphrases(["gone1", "gone2"]),
        )
        outcomes = server.cloak_batch(good[:2] + [bad, missing] + good[2:])
        assert [o.ok for o in outcomes] == [True, True, False, False, True, True]
        assert isinstance(outcomes[2].error, ToleranceExceededError)
        assert isinstance(outcomes[3].error, MobilityError)
        assert server.requests_served == 4
        assert server.failures == 1  # user-missing is not a cloaking failure

    def test_batch_ignores_mid_flight_snapshot_update(
        self, traffic_snapshot, dense_snapshot, batch_profile, make_server
    ):
        # The batch captures one immutable snapshot at submission; swapping
        # the live snapshot between submissions must not mix populations
        # within a batch (each batch is internally consistent).
        server = make_server(traffic_snapshot)
        requests = _requests(traffic_snapshot, batch_profile, 6)
        before = server.cloak_batch(requests)
        server.update_snapshot(dense_snapshot)
        # Users of traffic_snapshot may not exist in dense_snapshot built
        # from counts; re-resolve against the new snapshot's users.
        after_requests = [
            CloakRequest(
                user_id=user_id,
                profile=batch_profile,
                chain=KeyChain.from_passphrases([f"d{user_id}-1", f"d{user_id}-2"]),
            )
            for user_id in dense_snapshot.users()[:6]
        ]
        after = server.cloak_batch(after_requests)
        assert all(o.ok for o in before) and all(o.ok for o in after)


class TestCounterSafety:
    def test_concurrent_batches_count_exactly(
        self, traffic_snapshot, batch_profile, make_server
    ):
        # Hammer the server from several threads, each submitting pooled
        # batches; the guarded counters must account for every request
        # exactly once (the old bare `+= 1` lost increments here).
        server = make_server(traffic_snapshot)
        requests = _requests(traffic_snapshot, batch_profile, 10)
        rounds = 4
        threads = 5
        errors = []

        def hammer():
            try:
                for __ in range(rounds):
                    outcomes = server.cloak_batch(requests)
                    assert all(o.ok for o in outcomes)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        workers = [threading.Thread(target=hammer) for __ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert not errors
        assert server.requests_served == threads * rounds * len(requests)
        assert server.failures == 0

    def test_concurrent_envelopes_match_sequential(
        self, grid10, traffic_snapshot, batch_profile, make_server
    ):
        # Byte-equality under concurrency: many threads serving the same
        # request set must produce exactly the sequential envelopes
        # (deterministic keyed expansion, no cross-request state).
        server = make_server(traffic_snapshot)
        requests = _requests(traffic_snapshot, batch_profile, 8)
        reference = _inline(grid10, traffic_snapshot)
        expected = [reference.cloak(request).to_json() for request in requests]
        results = {}
        lock = threading.Lock()

        def serve(slot):
            outcomes = server.cloak_batch(requests)
            with lock:
                results[slot] = [o.envelope.to_json() for o in outcomes]

        workers = [
            threading.Thread(target=serve, args=(slot,)) for slot in range(4)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert all(batch == expected for batch in results.values())

    def test_failures_counted_under_concurrency(self, traffic_snapshot, make_server):
        server = make_server(traffic_snapshot)
        impossible = CoreProfile(
            [LevelRequirement(k=10_000, l=2, tolerance=ToleranceSpec(max_segments=5))]
        )
        bad_requests = [
            CloakRequest(
                user_id=user_id,
                profile=impossible,
                chain=KeyChain.from_passphrases([f"f{user_id}"]),
            )
            for user_id in traffic_snapshot.users()[:6]
        ]

        def hammer():
            outcomes = server.cloak_batch(bad_requests)
            assert not any(o.ok for o in outcomes)

        workers = [threading.Thread(target=hammer) for __ in range(3)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert server.failures == 3 * len(bad_requests)
        assert server.requests_served == 0

"""E17 (ablation) — what the sealed metadata buys a full peel.

DESIGN.md decision D13 equips envelopes with three keyed metadata items:
sealed bootstrap, sealed start anchor, per-step witness bytes. With every
key, a hinted full peel unseals level 1's start (the user's segment) and
replays the whole chain forward, checking each level against its seals:
it makes no backward lookup at all. This ablation compares reversal *work*
(measured as backward-hypothesis evaluations) and wall-clock across the
modes:

* hint mode (the default): the forward replay,
* hint mode with certification disabled: ``validate_reversals=False``
  changes only partial peels, so a full peel is the same replay,
* search mode on the same hinted envelope (ignores the seals — the
  paper-faithful hypothesis search).
"""

import pytest

from repro import KeyChain, ReverseCloakEngine
from repro.bench import ResultTable, pick_user_segments, standard_network, standard_snapshot
from repro.errors import CollisionError
from repro.metrics import measure

from conftest import profile_for_k


K = 12
USERS = 6


def _hypothesis_counter(engine):
    """Wrap the algorithm's backward lookup with a call counter."""
    counters = {"calls": 0}
    original = engine.algorithm.backward_hypotheses

    def counting(*args, **kwargs):
        counters["calls"] += 1
        return original(*args, **kwargs)

    # Instrumentation monkeypatch on a single-process benchmark: the
    # patched engine never crosses a spawn boundary here.
    # reprolint: disable=spawn-safety
    engine.algorithm.backward_hypotheses = counting
    return counters, original


def test_e17_reversal_mode_ablation(benchmark, results_path):
    network = standard_network("grid", 16)
    snapshot = standard_snapshot("grid", 16, 1200)
    users = pick_user_segments(snapshot, USERS, seed=17)
    profile = profile_for_k(K)
    chain = KeyChain.from_passphrases(["e17-1", "e17-2", "e17-3"])

    engine = ReverseCloakEngine(network)
    fast_engine = ReverseCloakEngine(network, validate_reversals=False)
    envelopes = [
        engine.anonymize(user_segment, snapshot, profile, chain)
        for user_segment in users
    ]

    table = ResultTable(
        "E17",
        f"Reversal-mode ablation (RGE, k={K}, {USERS} envelopes): "
        "work and wall-clock per full peel (hinted: forward replay)",
        ["mode", "mean_ms", "backward_lookups", "exact", "collisions"],
    )

    def run_mode(label, run_engine, mode):
        counters, original = _hypothesis_counter(run_engine)
        exact = collisions = 0
        total_ms = 0.0

        def peel_all():
            nonlocal exact, collisions
            exact = collisions = 0
            for envelope, user_segment in zip(envelopes, users):
                try:
                    result = run_engine.deanonymize(
                        envelope, chain, target_level=0, mode=mode
                    )
                except CollisionError:
                    collisions += 1
                    continue
                if result.region_at(0) == (user_segment,):
                    exact += 1

        summary = measure(peel_all, repeats=3)
        run_engine.algorithm.backward_hypotheses = original
        table.add_row(
            mode=label,
            mean_ms=round(summary.mean_s * 1000.0 / len(envelopes), 3),
            backward_lookups=counters["calls"] // (3 * len(envelopes)),
            exact=exact,
            collisions=collisions,
        )
        return exact, collisions

    hint_exact, __ = run_mode("hint+witnesses", engine, "auto")
    run_mode("hint, no certification", fast_engine, "auto")
    search_exact, search_collisions = run_mode(
        "search (paper-faithful)", engine, "search"
    )
    table.print_and_save(results_path)

    benchmark(lambda: engine.deanonymize(envelopes[0], chain, target_level=0))

    # Shapes: hint mode is exact on every envelope; search mode never
    # returns a wrong region (exact + detected collisions cover all).
    assert hint_exact == len(envelopes)
    assert search_exact + search_collisions == len(envelopes)
    # Search does strictly more backward work than the hinted modes.
    lookups = {row["mode"]: row["backward_lookups"] for row in table.rows}
    assert lookups["search (paper-faithful)"] >= lookups["hint+witnesses"]

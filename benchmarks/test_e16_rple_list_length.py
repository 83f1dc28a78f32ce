"""E16 (ablation) — RPLE transition-list length T.

T is RPLE's central constant (Figure 3 uses T=6). Longer lists cost
linearly more memory and pre-assignment time but give each anchor more
escape routes — fewer dead-anchor global fallbacks (decision D12) and
fewer redraws. This ablation sweeps T and reports every side of that
trade-off.
"""

import statistics

import pytest

from repro import (
    KeyChain,
    Preassignment,
    ReverseCloakEngine,
    ReversiblePreassignmentExpansion,
)
from repro.bench import ResultTable, pick_user_segments, standard_network, standard_snapshot
from repro.errors import CloakingError
from repro.metrics import Timer, measure

from conftest import profile_for_k


T_SWEEP = (4, 6, 8, 12, 16)
K = 20


def test_e16_rple_list_length_ablation(benchmark, results_path):
    network = standard_network("grid", 16)
    snapshot = standard_snapshot("grid", 16, 1200)
    users = pick_user_segments(snapshot, 6)
    chain = KeyChain.from_passphrases(["e16-1", "e16-2", "e16-3"])
    profile = profile_for_k(K)

    table = ResultTable(
        "E16",
        f"RPLE ablation: transition-list length T (k={K}, "
        f"{network.name})",
        [
            "T",
            "preassign_ms",
            "table_kb",
            "fallback_steps_pct",
            "cloak_ms",
            "peel_ms",
        ],
    )
    fallback_rates = []
    for list_length in T_SWEEP:
        with Timer() as preassign_timer:
            algorithm = ReversiblePreassignmentExpansion.for_network(
                network, list_length=list_length
            )
        engine = ReverseCloakEngine(network, algorithm)

        # Count global-fallback steps by instrumenting the fallback hook.
        counters = {"fallback": 0, "steps": 0}
        original_fallback = algorithm._global_fallback_forward
        original_forward = algorithm.forward_step

        def counting_fallback(*args, **kwargs):
            counters["fallback"] += 1
            return original_fallback(*args, **kwargs)

        def counting_forward(*args, **kwargs):
            counters["steps"] += 1
            return original_forward(*args, **kwargs)

        # Instrumentation monkeypatch on a single-process benchmark:
        # the patched object never crosses a spawn boundary here.
        # reprolint: disable=spawn-safety
        algorithm._global_fallback_forward = counting_fallback
        # reprolint: disable=spawn-safety
        algorithm.forward_step = counting_forward
        envelopes = []
        cloak_summary = measure(
            lambda: envelopes.append(
                engine.anonymize(users[0], snapshot, profile, chain)
            ),
            repeats=3,
        )
        for user_segment in users[1:]:
            try:
                envelopes.append(
                    engine.anonymize(user_segment, snapshot, profile, chain)
                )
            except CloakingError:
                continue
        algorithm._global_fallback_forward = original_fallback
        algorithm.forward_step = original_forward

        peel_summary = measure(
            lambda: engine.deanonymize(envelopes[0], chain, target_level=0),
            repeats=3,
        )
        fallback_pct = 100.0 * counters["fallback"] / max(1, counters["steps"])
        fallback_rates.append(fallback_pct)
        table.add_row(
            T=list_length,
            preassign_ms=round(preassign_timer.elapsed * 1000.0, 1),
            table_kb=round(
                algorithm.preassignment.memory_bytes() / 1024.0, 1
            ),
            fallback_steps_pct=round(fallback_pct, 2),
            cloak_ms=round(cloak_summary.mean_s * 1000.0, 3),
            peel_ms=round(peel_summary.mean_s * 1000.0, 3),
        )
    table.print_and_save(results_path)

    benchmark(
        lambda: ReversiblePreassignmentExpansion.for_network(
            network, list_length=8
        )
    )

    # Shapes: memory strictly grows with T; the dead-anchor fallback rate
    # at the largest T does not exceed the smallest T's.
    kbs = table.column("table_kb")
    assert kbs == sorted(kbs)
    assert fallback_rates[-1] <= fallback_rates[0]

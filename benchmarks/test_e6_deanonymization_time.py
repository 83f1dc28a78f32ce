"""E6 — De-anonymization time vs k and per peeled level.

The requester-side cost: peeling a hinted envelope down to L0 as k grows,
for both algorithms, plus the per-level breakdown. Partial grants peel
top-down, so each extra level peeled costs more. A full peel to L0 instead
replays the whole chain forward from level 1's sealed start: it makes no
backward lookup, costs about what the cloak cost, and so comes out cheaper
than peeling the top level alone (E6b).
"""

import pytest

from repro.bench import ResultTable
from repro.metrics import measure

from conftest import profile_for_k


K_SWEEP = (5, 10, 20, 40)
REPEATS = 5


def test_e6_deanonymization_time_vs_k(
    network,
    snapshot,
    user_segments,
    rge_engine,
    rple_engine,
    chain3,
    benchmark,
    results_path,
):
    table = ResultTable(
        "E6",
        f"De-anonymization time vs k ({network.name}, hint mode, "
        "mean ms per full peel to L0)",
        ["k", "rge_ms", "rple_ms", "region_segments"],
    )
    rge_series = []
    for k in K_SWEEP:
        profile = profile_for_k(k)
        user_segment = user_segments[0]
        row = {"k": k}
        for label, engine in (("rge", rge_engine), ("rple", rple_engine)):
            envelope = engine.anonymize(user_segment, snapshot, profile, chain3)
            summary = measure(
                lambda: engine.deanonymize(envelope, chain3, target_level=0),
                repeats=REPEATS,
            )
            row[f"{label}_ms"] = round(summary.mean_s * 1000.0, 3)
            if label == "rge":
                row["region_segments"] = len(envelope.region)
                rge_series.append(summary.mean_s)
        table.add_row(**row)
    table.print_and_save(results_path)

    # Per-level breakdown at k=20 (RGE).
    profile = profile_for_k(20)
    envelope = rge_engine.anonymize(user_segments[0], snapshot, profile, chain3)
    breakdown = ResultTable(
        "E6b",
        "De-anonymization per-level breakdown (RGE, k=20): peeling to "
        "each target level",
        ["target_level", "mean_ms", "levels_peeled", "segments_removed"],
    )
    for target in (2, 1, 0):
        summary = measure(
            lambda: rge_engine.deanonymize(envelope, chain3, target_level=target),
            repeats=REPEATS,
        )
        removed = sum(
            envelope.level_record(level).steps
            for level in range(target + 1, envelope.top_level + 1)
        )
        breakdown.add_row(
            target_level=target,
            mean_ms=round(summary.mean_s * 1000.0, 3),
            levels_peeled=envelope.top_level - target,
            segments_removed=removed,
        )
    breakdown.print_and_save(results_path)

    benchmark(lambda: rge_engine.deanonymize(envelope, chain3, target_level=0))

    # Shape: top-down partial peels cost more as more levels are peeled;
    # larger k -> more work.
    assert breakdown.column("mean_ms")[1] >= breakdown.column("mean_ms")[0]
    assert rge_series[-1] > rge_series[0]

    # The full peel is one forward replay: no backward lookup, and one
    # forward transition per published step.
    calls = {"backward_hypotheses": 0, "forward_step": 0}
    algorithm = rge_engine.algorithm

    def counted(name):
        original = getattr(algorithm, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counting

    with pytest.MonkeyPatch.context() as patch:
        for name in calls:
            patch.setattr(algorithm, name, counted(name))
        rge_engine.deanonymize(envelope, chain3, target_level=0)
    assert calls == {
        "backward_hypotheses": 0,
        "forward_step": envelope.total_steps(),
    }

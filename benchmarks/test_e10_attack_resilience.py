"""E10 — Attack resilience: what each principal can infer.

Quantifies the paper's security claims as posterior entropies:

* a keyless adversary (LBS provider, eavesdropper) faces the full outer
  region — entropy ~ log2 of its size — even with complete algorithm
  knowledge (structural enumeration cannot do better);
* each granted key cuts the entropy exactly to the next level's region;
* random key probing is always rejected.
"""

import pytest

from repro import KeyChain, PrivacyProfile
from repro.attacks import (
    KeyProbeAdversary,
    StructuralAdversary,
    segment_entropy,
    uniform_entropy,
    user_entropy,
)
from repro.bench import ResultTable

from conftest import profile_for_k


def test_e10_attack_resilience(
    network, snapshot, user_segments, rge_engine, chain3, benchmark, results_path
):
    profile = profile_for_k(8)
    user_segment = user_segments[0]
    envelope = rge_engine.anonymize(user_segment, snapshot, profile, chain3)
    truth = rge_engine.deanonymize(envelope, chain3, target_level=0)

    table = ResultTable(
        "E10",
        "Adversary posterior entropy (bits) by keys held "
        f"(k base=8, 3 levels, {network.name})",
        ["keys_held", "exposed_level", "segment_entropy", "user_entropy"],
    )
    for level in range(3, -1, -1):
        region = set(truth.regions[level])
        table.add_row(
            keys_held="none" if level == 3 else f"Key{level + 1}..Key3",
            exposed_level=f"L{level}",
            segment_entropy=round(segment_entropy(region), 2) if region else 0.0,
            user_entropy=round(user_entropy(region, snapshot), 2),
        )
    table.print_and_save(results_path)

    # Structural adversary: algorithm knowledge without keys does not
    # pinpoint the user.
    adversary = StructuralAdversary(network, max_sequences=50_000)
    posterior = benchmark(lambda: adversary.attack_envelope(envelope, 0))
    structural = ResultTable(
        "E10b",
        "Keyless structural enumeration of the envelope",
        ["quantity", "value"],
    )
    structural.add_row(
        quantity="outer region segments", value=len(envelope.region)
    )
    structural.add_row(
        quantity="consistent L0 candidates", value=posterior.candidate_count
    )
    structural.add_row(
        quantity="posterior entropy (bits)", value=round(posterior.entropy(), 2)
    )
    structural.add_row(
        quantity="P(true L0)",
        value=round(posterior.probability_of({user_segment}), 3),
    )
    probe = KeyProbeAdversary(network, seed=10).probe(envelope, trials=5)
    structural.add_row(quantity="random-key probes rejected", value=probe["rejected"])
    structural.add_row(quantity="random-key probes accepted", value=probe["accepted"])
    structural.print_and_save(results_path)

    # Claims:
    entropies = table.column("segment_entropy")
    assert entropies == sorted(entropies, reverse=True)  # keys shrink entropy
    assert entropies[-1] == 0.0  # full chain -> exact segment
    assert posterior.candidate_count >= 3  # keyless stays ambiguous
    assert frozenset({user_segment}) in set(posterior.candidate_regions)
    assert posterior.probability_of({user_segment}) < 0.6
    assert probe["accepted"] == 0
    # k-anonymity floor: the outer region hides >= k users
    assert user_entropy(set(envelope.region), snapshot) >= uniform_entropy(
        profile.requirement(3).k
    )

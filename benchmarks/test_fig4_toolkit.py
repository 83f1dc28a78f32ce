"""E4 — Figure 4: the Anonymizer visualisation on the Atlanta-scale map.

The paper's screenshot shows the northwest-Atlanta road map (6,979
junctions / 9,187 segments), 10,000 Gaussian-placed cars, and the coloured
multi-level cloaking regions. This experiment regenerates that artifact as
``fig4_anonymizer.svg`` (committed under ``benchmarks/results/`` by a
``--record`` run; see ``conftest.py``) on a quarter-scale map (the
full-scale rendering is examples/toolkit_render.py; the benchmark keeps the
suite fast while preserving the pipeline).
"""

import pytest

from repro import (
    GaussianPlacement,
    KeyChain,
    PrivacyProfile,
    ReverseCloakEngine,
    TrafficSimulator,
    atlanta_like,
)
from repro.bench import ResultTable
from repro.roadnet import network_stats
from repro.toolkit import SvgMapRenderer


SCALE = 0.25
CARS = 2500  # 10,000 x scale


@pytest.fixture(scope="module")
def setup():
    network = atlanta_like(scale=SCALE)
    simulator = TrafficSimulator(
        network,
        n_cars=CARS,
        seed=2017,
        placement=GaussianPlacement(hotspots=((0.4, 0.6), (0.65, 0.35))),
    )
    simulator.run(3)
    return network, simulator


def test_fig4_anonymizer_rendering(setup, benchmark, results_path):
    network, simulator = setup
    snapshot = simulator.snapshot()
    stats = network_stats(network)

    profile = PrivacyProfile.uniform(
        levels=3, base_k=10, k_step=10, base_l=4, l_step=2, max_segments=80
    )
    chain = KeyChain.from_passphrases(["fig4-1", "fig4-2", "fig4-3"])
    engine = ReverseCloakEngine(network)
    user_segment = max(
        snapshot.occupied_segments(), key=lambda sid: (snapshot.count_on(sid), -sid)
    )
    envelope = engine.anonymize(user_segment, snapshot, profile, chain)
    result = engine.deanonymize(envelope, chain, target_level=0)

    renderer = SvgMapRenderer(network, width=1100)
    svg = benchmark(
        lambda: renderer.render(
            regions_by_level=result.regions,
            car_positions=simulator.positions().values(),
            title=f"ReverseCloak Anonymizer — {network.name}",
        )
    )
    output = results_path / "fig4_anonymizer.svg"
    output.write_text(svg)

    table = ResultTable(
        "E4",
        "Figure 4 toolkit rendering (Atlanta-like map, Gaussian fleet)",
        ["quantity", "paper", "this_run"],
    )
    table.add_row(quantity="junctions", paper=6979, this_run=network.junction_count)
    table.add_row(quantity="segments", paper=9187, this_run=network.segment_count)
    table.add_row(quantity="cars", paper=10000, this_run=snapshot.user_count)
    table.add_row(
        quantity="segments/junction",
        paper=round(9187 / 6979, 3),
        this_run=round(stats.segments_per_junction, 3),
    )
    table.add_row(
        quantity="cloak levels rendered",
        paper=3,
        this_run=len(result.regions) - 1,
    )
    table.print_and_save(results_path)

    assert svg.startswith("<svg")
    assert svg.count("<circle") == CARS
    # all four region levels (L0..L3) drawn over the base map
    assert svg.count("<line") == network.segment_count + sum(
        len(region) for region in result.regions.values()
    )
    # the map preserves the paper's edge/junction regime
    assert stats.segments_per_junction == pytest.approx(9187 / 6979, rel=0.02)

"""Shared fixtures for the experiment benchmarks.

Every file here regenerates one paper figure or evaluation claim (the
experiment index lives in DESIGN.md section 4). Alongside pytest-benchmark
timings, each experiment writes a paper-style result table through the
``results_path`` fixture. A plain run writes them to the git-ignored
``benchmarks/out/``, so running the test suite leaves the committed tables
alone. ``--record`` writes the committed copies in ``benchmarks/results/``
instead — EXPERIMENTS.md quotes those artifacts::

    PYTHONPATH=src python -m pytest benchmarks --record

(The option lives in this file, so name ``benchmarks`` on the command line:
pytest registers a sub-directory conftest's options only for paths given.)
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import (
    KeyChain,
    PrivacyProfile,
    ReverseCloakEngine,
    ReversiblePreassignmentExpansion,
)
from repro.bench import (
    pick_user_segments,
    results_dir,
    standard_network,
    standard_snapshot,
)

#: Where a run without ``--record`` writes its tables (git-ignored).
UNRECORDED_RESULTS = Path(__file__).resolve().parent / "out"


def pytest_addoption(parser):
    parser.addoption(
        "--record",
        action="store_true",
        default=False,
        help="write the experiment tables to the committed benchmarks/results/ "
        "instead of the git-ignored benchmarks/out/",
    )


@pytest.fixture(scope="session")
def results_path(request) -> Path:
    """The directory this run's experiment tables go to."""
    if request.config.getoption("--record"):
        return results_dir()
    return results_dir(UNRECORDED_RESULTS)


#: The main sweep workload: a 16x16 grid (480 segments) with 1,200 cars.
GRID_KIND, GRID_SIZE, GRID_CARS = "grid", 16, 1200


@pytest.fixture(scope="session")
def network():
    return standard_network(GRID_KIND, GRID_SIZE)


@pytest.fixture(scope="session")
def snapshot():
    return standard_snapshot(GRID_KIND, GRID_SIZE, GRID_CARS)


@pytest.fixture(scope="session")
def user_segments(snapshot):
    return pick_user_segments(snapshot, 8)


@pytest.fixture(scope="session")
def rge_engine(network):
    return ReverseCloakEngine(network)


@pytest.fixture(scope="session")
def rple_engine(network):
    algorithm = ReversiblePreassignmentExpansion.for_network(network)
    return ReverseCloakEngine(network, algorithm)


@pytest.fixture(scope="session")
def chain3():
    return KeyChain.from_passphrases(["bench-1", "bench-2", "bench-3"])


def profile_for_k(k: int, levels: int = 3) -> PrivacyProfile:
    """The sweep profile family used across E5/E6/E9."""
    return PrivacyProfile.uniform(
        levels=levels,
        base_k=k,
        k_step=max(1, k // 2),
        base_l=3,
        l_step=1,
        max_segments=240,
    )

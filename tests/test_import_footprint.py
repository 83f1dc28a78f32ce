"""The serving stack's import footprint: the standard library only.

Every server launch, every ``python -m repro.lbs.frontend`` and every
spawn-started or respawned ``ProcessPoolBackend`` worker imports ``repro``
before it can answer anything, so a heavy module-scope import there is paid
on every cold start. numpy and scipy serve only the map generators, the
traffic simulator, POI placement, the attacks, the baselines and the bench
helpers; they are imported inside the functions that call them. This test
pins that in a fresh interpreter, where no earlier test can have loaded them.
"""

import json
import os
import subprocess
import sys

CHILD = """
import json
import sys

import repro
import repro.lbs.backends
import repro.lbs.frontend
from repro import (
    AnonymizerService,
    KeyChain,
    PopulationSnapshot,
    PrivacyProfile,
    grid_network,
)
from repro.lbs.wire import CloakRequestDoc

network = grid_network(6, 6)
service = AnonymizerService(network)
service.update_snapshot(
    PopulationSnapshot.from_counts({s: 2 for s in network.segment_ids()})
)
document = CloakRequestDoc(
    user_id=0,
    profile=PrivacyProfile.uniform(levels=2, base_k=3, k_step=3),
    chain=KeyChain.from_passphrases(["footprint-1", "footprint-2"]),
).to_dict()
(outcome,) = service.handle_batch([document])
loaded = sorted(
    name for name in sys.modules if name.split(".")[0] in ("numpy", "scipy")
)
print(json.dumps({"status": outcome["status"], "loaded": loaded}))
"""


def test_serving_a_cloak_loads_neither_numpy_nor_scipy():
    env = dict(os.environ)
    repo_src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(repo_src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    child = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout.splitlines()[-1])
    assert report["status"] == "ok"
    assert report["loaded"] == []

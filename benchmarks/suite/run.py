"""The repository benchmark: the anonymizer served over TCP, measured from outside.

Each workload launches the server as its own process (``server.py``: library
defaults, loopback) and drives it from this single-threaded asyncio process
with raw-socket framing (``loadgen.py``):

1. an in-process inline ``AnonymizerService`` computes the expected outcome of
   every request the seed can pick (the oracle); entries it does not answer
   ``ok`` are dropped;
2. ``hostref.py`` starts beside the server: fixed work on a timer whose CPU
   per tick measures the host's speed for the rest of the run;
3. set-up: the server is launched ``setup_launches`` times and timed from
   launch to its first correct reply; the last launch stays up;
4. warm-up at the workload's rate lets lazy set-up finish (engines, worker
   processes, caches);
5. open loop: Poisson arrivals at the workload's fixed rate over two
   connections, latency timed from each request's scheduled instant, the CPU
   of every server thread read at both ends, and a pure-Python CPU probe
   timed before and after;
6. saturation: a closed loop of 2 x 64 outstanding requests, a ramp, then a
   measured phase read the same way;
7. every reply is compared with its oracle outcome as canonical JSON.

The host's speed changes by 10-20% from one run to the next. The gated CPU,
throughput and set-up metrics are therefore scaled to the speed of the host
the benchmark was sized on: each is multiplied (a rate divided) by
``NOMINAL_TICK_US`` over the reference's CPU per tick during the same phase.
The reference's work does not depend on the server, so a change in how the
server works moves these metrics and a change in the host's speed does not.
The raw values are reported beside them under ``raw.``.

An open loop whose generator ran late (``loadgen.lag_p99_ms`` > 3) or whose
two probes differ by more than ``MAX_PROBE_DRIFT`` is invalid and is run once
more on the same server if ``RUN_BUDGET_S`` allows; the last one is reported
either way.

``--trace`` adds a second server with the layer spans of ``tracer.py`` and a
second open loop at the same rate; it reports the per-layer metrics, and the
tracing overhead against the untraced pass.

Usage, from the repository root::

    python benchmarks/suite/run.py [--workload NAME]... [--seed N] [--trace [0|1]] [--quick]

``--seconds S`` is also accepted, but only when S is ``run_seconds`` of
``BENCHMARK.json``: the run length is not a setting.

Every metric is printed as ``workload metric value unit n=<samples>``, for
each workload it applies to; the last line is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``) holding the end-to-end metrics, or
with ``--trace`` the per-layer metrics, named in ``BENCHMARK.json``. Results
are also written under ``benchmarks/suite/out/``. The exit status is 1 when
any reply was missing or wrong, 2 when the checkout lacks the program or
``BENCHMARK.json`` or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import functools
import gc
import json
import math
import os
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SRC = ROOT / "src"
OUT = SUITE / "out"
SPEC_FILE = ROOT / "BENCHMARK.json"


@dataclass(frozen=True)
class Workload:
    """One traffic mix. ``rate`` is the open loop's fixed offered load; it is
    never calibrated per run, so runs on two commits offer the same load."""

    rate: float
    profile: str
    users: int
    backend: str
    #: Users in a fixed rotation instead of uniform draws from the pool.
    cycle: bool = False
    mix: Tuple[Tuple[str, float], ...] = (("cloak", 1.0),)


# Sizes were chosen on a 2-vCPU box; README.md gives the measurements.
WORKLOADS: Dict[str, Workload] = {
    # The paper's main operation. 4,096 users hold 8,192 level keys, far more
    # than the 128-entry keyed-HMAC cache, so every request takes the
    # cold-key path; the engine is about 90% of in-service time.
    "cloak-std": Workload(rate=600, profile="std", users=4096, backend="inline"),
    # Front-end heavy: 64 users in rotation with one small level, so keys
    # stay cached and the event-loop thread is a large share of server CPU.
    "cloak-tiny": Workload(
        rate=1500, profile="tiny", users=64, backend="inline", cycle=True
    ),
    # Key holders peeling pre-made envelopes beside mobile users cloaking:
    # reversal dominates engine time and requests carry larger envelopes.
    "peel-mix": Workload(
        rate=300,
        profile="std",
        users=4096,
        backend="inline",
        mix=(("cloak", 0.7), ("hint", 0.2), ("search", 0.1)),
    ),
    # cloak-std on a two-process pool: the only workload that ships work
    # over the backend pipes.
    "cloak-pool": Workload(rate=600, profile="std", users=4096, backend="pool"),
}

PROFILES = {
    "std": dict(levels=2, base_k=20, k_step=20, base_l=3, l_step=1, max_segments=80),
    "tiny": dict(levels=1, base_k=4, k_step=0, base_l=2, l_step=0, max_segments=12),
}


@dataclass(frozen=True)
class Scale:
    grid_side: int
    #: Cap on distinct users (the quick map is smaller).
    max_users: int
    #: Pre-made envelopes per peel mode.
    peel_pool: int
    warmup_s: float
    ramp_s: float
    setup_launches: int
    #: Timings per CPU probe, taken 50 ms apart.
    probe_repeats: int
    #: Re-runs of an invalid open loop.
    reruns: int
    #: Open loop plus saturation; None takes ``run_seconds`` of BENCHMARK.json.
    seconds: Optional[float]


FULL = Scale(
    grid_side=71,
    max_users=4096,
    peel_pool=256,
    warmup_s=2.0,
    ramp_s=1.0,
    # Single launches differ by 10-20% on the sizing host; the median of 3
    # still spread 8-20% over ten seeds, the median of 5 6-14%.
    setup_launches=5,
    probe_repeats=10,
    reruns=1,
    seconds=None,
)
QUICK = Scale(
    grid_side=24,
    max_users=256,
    peel_pool=24,
    warmup_s=0.2,
    ramp_s=0.1,
    setup_launches=1,
    probe_repeats=3,
    reruns=0,
    seconds=0.6,
)

CONNECTIONS = 2
DEPTH = 64
#: Share of the run length given to the open loop; saturation gets the rest.
OPEN_SHARE = 0.5
SETTLE_S = 30.0
MAX_LAG_P99_MS = 3.0
#: On a shared 2-vCPU VM, idle probes differ by up to 5% and probes around an
#: open loop often by 20-40%; slowdowns of 35% lasting minutes occur there.
MAX_PROBE_DRIFT = 0.25
READY_TIMEOUT_S = 120.0
#: An invalid open loop is run again only if the workload's run, saturation
#: phase included, still ends within this many seconds of its start, so a
#: slow host cannot double the length of every run.
RUN_BUDGET_S = 45.0
#: CPU per ``hostref.py`` tick on the host the benchmark was sized on (2-vCPU
#: Intel Xeon VM at 2.1 GHz, Python 3.11): the median over 40 open loops.
NOMINAL_TICK_US = 160.0


# ----------------------------------------------------------------------
# inputs and oracle
# ----------------------------------------------------------------------
@dataclass
class Plan:
    documents: List[bytes]
    expected: List[str]
    ops: List[str]
    warmup: Tuple[List[float], List[int]]
    open: Tuple[List[float], List[int]]
    saturation: Iterator[int]


def canonical(document) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _arrivals(rng: random.Random, rate: float, seconds: float) -> List[float]:
    offsets: List[float] = []
    clock = rng.expovariate(rate)
    while clock < seconds:
        offsets.append(clock)
        clock += rng.expovariate(rate)
    return offsets


def _picks(rng: random.Random, workload: Workload, pools: Dict[str, List[int]]):
    """Endless pool entries: operation by mix weight, then a user drawn
    uniformly (or the next in rotation)."""
    ops = [op for op, _ in workload.mix]
    weights = [weight for _, weight in workload.mix]
    turn = dict.fromkeys(ops, 0)
    while True:
        op = rng.choices(ops, weights)[0]
        pool = pools[op]
        if workload.cycle:
            index = turn[op] % len(pool)
            turn[op] += 1
        else:
            index = rng.randrange(len(pool))
        yield pool[index]


def build_plan(name: str, seed: int, scale: Scale, open_s: float) -> Plan:
    from repro import AnonymizerService, KeyChain, PrivacyProfile
    from repro.core.envelope import CloakEnvelope
    from repro.lbs import CloakRequest, CloakRequestDoc, DeanonymizeRequestDoc
    from server import benchmark_map

    workload = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    network, snapshot = benchmark_map(scale.grid_side)
    profile = PrivacyProfile.uniform(**PROFILES[workload.profile])
    users = rng.sample(snapshot.users(), min(workload.users, scale.max_users))
    peel_modes = [op for op, _ in workload.mix if op != "cloak"]

    documents: List[bytes] = []
    expected: List[str] = []
    ops: List[str] = []
    pools: Dict[str, List[int]] = {op: [] for op, _ in workload.mix}

    def add(op: str, document: dict, outcome: dict) -> None:
        pools[op].append(len(documents))
        documents.append(json.dumps(document, separators=(",", ":")).encode())
        expected.append(canonical(outcome))
        ops.append(op)

    with AnonymizerService(network) as oracle:
        oracle.update_snapshot(snapshot)
        envelopes = []
        for user in users:
            chain = KeyChain.from_passphrases(
                [f"{seed}/{user}/{level}" for level in range(1, profile.level_count + 1)]
            )
            document = CloakRequestDoc.from_request(
                CloakRequest(user_id=user, profile=profile, chain=chain)
            ).to_dict()
            outcome = oracle.handle(document)
            if outcome["status"] != "ok":
                continue
            add("cloak", document, outcome)
            if len(envelopes) < scale.peel_pool * len(peel_modes):
                envelopes.append((CloakEnvelope.from_dict(outcome["envelope"]), chain))
        for index, (envelope, chain) in enumerate(envelopes):
            mode = peel_modes[index % len(peel_modes)]
            document = DeanonymizeRequestDoc(
                envelope=envelope, keys=tuple(chain), target_level=0, mode=mode
            ).to_dict()
            outcome = oracle.handle(document)
            if outcome["status"] == "ok":
                add(mode, document, outcome)
    empty = [op for op, pool in pools.items() if not pool]
    if empty:
        raise RuntimeError(f"{name}: the oracle answered no {empty} request ok")

    picks = _picks(rng, workload, pools)
    phases = []
    for seconds in (scale.warmup_s, open_s):
        offsets = _arrivals(rng, workload.rate, seconds)
        phases.append((offsets, [next(picks) for _ in offsets]))
    return Plan(documents, expected, ops, phases[0], phases[1], picks)


# ----------------------------------------------------------------------
# child processes and /proc
# ----------------------------------------------------------------------
def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    return env


def _launch(script: str, *args: str) -> subprocess.Popen:
    """A benchmark child process. It stops when its standard input, which
    only this process holds, closes, so it cannot outlive the benchmark."""
    return subprocess.Popen(
        [sys.executable, str(SUITE / script), *args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=_child_env(),
    )


def _server(name: str, scale: Scale, trace: bool) -> subprocess.Popen:
    args = ["--grid-side", str(scale.grid_side), "--backend", WORKLOADS[name].backend]
    return _launch("server.py", *args, *(["--trace"] if trace else []))


def _await_ready(proc: subprocess.Popen) -> int:
    deadline = time.monotonic() + READY_TIMEOUT_S
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("server did not report READY in time")
        readable, _, _ = select.select([proc.stdout], [], [], remaining)
        if not readable:
            continue
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited before READY (status {proc.poll()})")
        if line.startswith(b"READY "):
            return int(line.split()[1])


def _stop(proc: subprocess.Popen) -> str:
    """SIGTERM (the server drains), then the rest of its stdout."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    return out.decode()


def _task_ns(task: Path) -> int:
    """On-CPU nanoseconds of one task (thread), or 0 once it is gone."""
    try:
        return int((task / "schedstat").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return 0


def _children(pid: int) -> List[int]:
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            children.append(int(entry.name))
    return children


def server_tasks(pid: int) -> List[Tuple[str, Path]]:
    """The server tree's tasks by kind: the main thread (the event loop),
    every other server thread, and the threads of child processes."""
    tasks = [
        ("loop" if task.name == str(pid) else "offloop", task)
        for task in Path(f"/proc/{pid}/task").iterdir()
    ]
    for child in _children(pid):
        tasks += [("workers", task) for task in Path(f"/proc/{child}/task").iterdir()]
    return tasks


def cpu_ns(tasks: Sequence[Tuple[str, Path]]) -> Dict[str, int]:
    split = {"loop": 0, "offloop": 0, "workers": 0}
    for kind, task in tasks:
        split[kind] += _task_ns(task)
    return split


def read_ref(ref: subprocess.Popen) -> Tuple[int, int]:
    """The host reference's tick count and CPU nanoseconds so far."""
    ref.stdin.write(b"\n")
    ref.stdin.flush()
    ticks, cpu = ref.stdout.readline().split()
    return int(ticks), int(cpu)


def tick_us(first: Tuple[int, int], last: Tuple[int, int]) -> float:
    """The reference's CPU microseconds per tick between two readings."""
    return (last[1] - first[1]) / 1e3 / max(1, last[0] - first[0])


async def ref_probe_ms(repeats: int) -> float:
    """A fixed pure-Python CPU loop timed ``repeats`` times 50 ms apart; the
    fastest timing, so only a slowdown lasting the whole span shows."""
    timings = []
    for _ in range(repeats):
        await asyncio.sleep(0.05)
        start = time.perf_counter()
        total = 0
        for value in range(100_000):
            total += value * value
        timings.append((time.perf_counter() - start) * 1000.0)
    return min(timings)


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Reading:
    """Clocks read at one edge of a phase."""

    moment: float
    server_ns: Dict[str, int]
    generator_s: float
    ref: Tuple[int, int]


def _reading(tasks, ref: subprocess.Popen) -> Reading:
    return Reading(time.monotonic(), cpu_ns(tasks), time.process_time(), read_ref(ref))


@dataclass
class Phase:
    """One measured phase: its request ids and the readings at its ends."""

    ids: range
    start: Reading
    end: Reading

    def replies(self, generator) -> int:
        """Replies that arrived between the two readings."""
        done = sorted(generator.done[i] for i in self.ids if generator.done[i] is not None)
        return bisect.bisect_left(done, self.end.moment) - bisect.bisect_left(done, self.start.moment)

    def server_s(self, kind: Optional[str] = None) -> float:
        kinds = [kind] if kind else list(self.start.server_ns)
        return sum(self.end.server_ns[k] - self.start.server_ns[k] for k in kinds) / 1e9

    @property
    def wall_s(self) -> float:
        return self.end.moment - self.start.moment

    @property
    def generator_s(self) -> float:
        return self.end.generator_s - self.start.generator_s

    @property
    def speed(self) -> float:
        """The host's speed over the phase relative to the sizing host."""
        return NOMINAL_TICK_US / tick_us(self.start.ref, self.end.ref)

    def record(self, generator) -> dict:
        return {
            "wall_s": self.wall_s,
            "replies": self.replies(generator),
            "server_cpu_s": self.server_s(),
            "generator_cpu_s": self.generator_s,
            "ref_tick_us": tick_us(self.start.ref, self.end.ref),
        }


@dataclass
class OpenLoop(Phase):
    """An open-loop pass, with the probes around it and how late the
    generator sent."""

    probes_ms: Tuple[float, float] = (0.0, 0.0)
    lag_p99_ms: float = 0.0

    @property
    def probe_drift(self) -> float:
        return abs(self.probes_ms[1] / self.probes_ms[0] - 1.0)

    @property
    def valid(self) -> bool:
        return self.lag_p99_ms <= MAX_LAG_P99_MS and self.probe_drift <= MAX_PROBE_DRIFT

    def why_invalid(self) -> str:
        return f"lag p99 {self.lag_p99_ms:.2f} ms, probe drift {self.probe_drift:.1%}"


@dataclass
class Drive:
    generator: object
    #: Open loops run, the reported one last.
    passes: List[OpenLoop]
    #: None when saturation was not run.
    saturation: Optional[Phase]

    @property
    def open(self) -> OpenLoop:
        return self.passes[-1]


async def _open_loop(generator, tasks, ref, plan: Plan, scale: Scale, mark) -> OpenLoop:
    before = await ref_probe_ms(scale.probe_repeats)
    if mark is not None:
        mark(signal.SIGUSR1)
        await asyncio.sleep(0.1)
    start = _reading(tasks, ref)
    ids = await generator.open_loop(*plan.open)
    end = _reading(tasks, ref)
    await generator.settle(SETTLE_S)
    if mark is not None:
        mark(signal.SIGUSR2)
    after = await ref_probe_ms(scale.probe_repeats)
    lags = [(generator.sent[i] - generator.due[i]) * 1000.0 for i in ids]
    return OpenLoop(ids, start, end, (before, after), _percentile(lags, 0.99))


async def _drive(
    port: int,
    pid: int,
    ref: subprocess.Popen,
    plan: Plan,
    scale: Scale,
    sat_s: Optional[float],
    deadline: float,
    mark=None,
) -> Drive:
    """Warm-up, open loop and, unless ``sat_s`` is None, saturation against
    one running server. An invalid open loop is run again if that and the
    saturation phase still end before ``deadline`` (``time.monotonic``).
    ``mark(signal)`` brackets the open loop."""
    from loadgen import LoadGenerator

    generator = LoadGenerator(plan.documents)
    await generator.connect(port, CONNECTIONS)
    passes: List[OpenLoop] = []
    gc.collect()
    gc.disable()
    try:
        await generator.open_loop(*plan.warmup)
        await generator.settle(SETTLE_S)
        # Threads and pool workers all exist once the warm-up is served.
        tasks = server_tasks(pid)
        rest_s = 0.0 if sat_s is None else scale.ramp_s + sat_s
        while True:
            begun = time.monotonic()
            passes.append(await _open_loop(generator, tasks, ref, plan, scale, mark))
            if passes[-1].valid:
                break
            print(f"# invalid open loop ({passes[-1].why_invalid()})", flush=True)
            if len(passes) > scale.reruns or 2 * time.monotonic() - begun + rest_s > deadline:
                break
        saturation = None
        if sat_s is not None:
            first = generator.start_closed_loop(plan.saturation, DEPTH)
            try:
                await asyncio.sleep(scale.ramp_s)
                start = _reading(tasks, ref)
                await asyncio.sleep(sat_s)
                end = _reading(tasks, ref)
            finally:
                generator.stop_closed_loop()
            await generator.settle(SETTLE_S)
            saturation = Phase(range(first, len(generator.entry)), start, end)
    finally:
        gc.enable()
        generator.close()
    return Drive(generator, passes, saturation)


def _check(plan: Plan, generator, extra: Sequence[Tuple[int, bytes]] = ()) -> int:
    """Failed requests: missing, error or wrong replies, plus stray frames.
    ``extra`` holds (entry, reply) pairs sent outside the generator."""
    memo: Dict[bytes, Optional[str]] = {}
    failed = generator.stray
    pairs = list(zip(generator.entry, generator.reply)) + list(extra)
    for entry, payload in pairs:
        if payload is None:
            failed += 1
            continue
        # The id leads the reply and is its only per-request part.
        tail = payload[payload.find(b",") :]
        if tail not in memo:
            try:
                frame = json.loads(payload)
                memo[tail] = (
                    canonical(frame["outcome"]) if set(frame) == {"request_id", "outcome"} else None
                )
            except (ValueError, TypeError, KeyError):
                memo[tail] = None
        if memo[tail] != plan.expected[entry]:
            failed += 1
    return failed


def _percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _latencies(plan: Plan, generator, run: OpenLoop, ops: Sequence[str]) -> List[float]:
    """Open-loop latencies (ms), from the scheduled send instant, of the
    requests for ``ops``."""
    return [
        (generator.done[i] - generator.due[i]) * 1000.0
        for i in run.ids
        if generator.done[i] is not None and plan.ops[generator.entry[i]] in ops
    ]


def _measure(name: str, seed: int, seconds: float, scale: Scale, trace: bool) -> dict:
    from loadgen import request_once

    deadline = time.monotonic() + RUN_BUDGET_S
    open_s = seconds * OPEN_SHARE
    sat_s = seconds - open_s
    plan = build_plan(name, seed, scale, open_s)
    gc.collect()
    setup_times: List[float] = []
    setup_replies: List[Tuple[int, bytes]] = []
    with _launch("hostref.py") as ref:
        try:
            ref_before_setup = read_ref(ref)
            for launch in range(scale.setup_launches):
                started = time.perf_counter()
                with _server(name, scale, trace=False) as proc:
                    try:
                        port = _await_ready(proc)
                        setup_replies.append((0, request_once(port, plan.documents[0], 60.0)))
                        setup_times.append(time.perf_counter() - started)
                        if launch == scale.setup_launches - 1:
                            setup_speed = NOMINAL_TICK_US / tick_us(ref_before_setup, read_ref(ref))
                            drive = asyncio.run(
                                _drive(port, proc.pid, ref, plan, scale, sat_s, deadline)
                            )
                    finally:
                        _stop(proc)
            result = _results(name, plan, drive, setup_times, setup_replies, setup_speed)
            if trace:
                _measure_traced(name, plan, scale, ref, result, deadline)
        finally:
            ref.stdin.close()
            ref.wait()
    return result


def _results(
    name: str,
    plan: Plan,
    drive: Drive,
    setup_times: List[float],
    setup_replies: List[Tuple[int, bytes]],
    setup_speed: float,
) -> dict:
    generator, run, sat = drive.generator, drive.open, drive.saturation
    failed = _check(plan, generator, setup_replies)
    attempted = len(generator.entry) + len(setup_replies)
    served = run.replies(generator)
    sat_replies = sat.replies(generator)
    setup_s = statistics.median(setup_times)
    server_ms = run.server_s() * 1000.0 / served
    sat_rps = sat_replies / sat.wall_s
    values = {
        "setup_s": (setup_s * setup_speed, len(setup_times)),
        "server_cpu_ms_per_req": (server_ms * run.speed, served),
        "sat_rps": (sat_rps / sat.speed, sat_replies),
        "raw.setup_s": (setup_s, len(setup_times)),
        "raw.server_cpu_ms_per_req": (server_ms, served),
        "raw.sat_rps": (sat_rps, sat_replies),
    }
    for kind, ops in (("cloak", ("cloak",)), ("peel", ("hint", "search"))):
        latencies = _latencies(plan, generator, run, ops)
        if latencies:
            for q in (50, 99):
                values[f"{kind}_p{q}_ms"] = (_percentile(latencies, q / 100), len(latencies))
    values["lbs.frontend.loop_cpu_ms_per_req"] = (run.server_s("loop") * 1000.0 / served, served)
    values["lbs.service.offloop_cpu_ms_per_req"] = (run.server_s("offloop") * 1000.0 / served, served)
    if WORKLOADS[name].backend == "pool":
        values["lbs.backends.worker_cpu_ms_per_req"] = (run.server_s("workers") * 1000.0 / served, served)
    values.update(
        {
            "loadgen.lag_p99_ms": (run.lag_p99_ms, len(run.ids)),
            "loadgen.cpu_ms_per_req": (run.generator_s * 1000.0 / served, served),
            "env.ref_probe_ms": (statistics.fmean(run.probes_ms), 2),
            "env.ref_tick_us": (tick_us(run.start.ref, run.end.ref), run.end.ref[0] - run.start.ref[0]),
            "fail_frac": (failed / attempted, attempted),
        }
    )
    return {
        "workload": name,
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "valid": run.valid,
        "open_loops": [
            {"valid": p.valid, "lag_p99_ms": p.lag_p99_ms, "probes_ms": p.probes_ms} for p in drive.passes
        ],
        "phases": {
            "setup": {"times_s": setup_times, "speed": setup_speed},
            "open": run.record(generator),
            "saturation": sat.record(generator),
        },
    }


def _measure_traced(name: str, plan: Plan, scale: Scale, ref, result: dict, deadline: float) -> None:
    """The traced pass: a second server with layer spans, the same open loop."""
    with _server(name, scale, trace=True) as proc:
        try:
            port = _await_ready(proc)
            drive = asyncio.run(
                _drive(port, proc.pid, ref, plan, scale, None, deadline, mark=functools.partial(os.kill, proc.pid))
            )
        finally:
            out = _stop(proc)
    lines = [line for line in out.splitlines() if line.startswith("TRACE ")]
    if not lines:
        raise RuntimeError("traced server printed no TRACE line")
    spans = json.loads(lines[-1][len("TRACE ") :])
    generator, run = drive.generator, drive.open
    result["failed"] += _check(plan, generator)
    result["attempted"] += len(generator.entry)
    ids = [i for i in run.ids if generator.done[i] is not None]
    served = max(len(ids), 1)
    mean_ms = sum((generator.done[i] - generator.due[i]) * 1000.0 for i in ids) / served
    traced_ms = run.server_s() * 1000.0 / run.replies(generator) * run.speed
    overhead = traced_ms / result["values"]["server_cpu_ms_per_req"][0] - 1.0
    result["values"].update(trace_metrics(spans, served, mean_ms, overhead))


def trace_metrics(spans: dict, served: int, mean_ms: float, overhead: float) -> dict:
    """Per-layer metrics from the span aggregates; a span metric is left out
    where its span never ran (peels on cloak-only workloads, engine spans,
    which stay inside the workers, on the pool)."""
    records = spans.get("records", {})
    sizes = spans.get("batch_sizes", []) or [0]

    def rec(*names: str) -> List[int]:
        total = [0, 0, 0, 0]
        for name in names:
            for index, value in enumerate(records.get(name, (0, 0, 0, 0))):
                total[index] += value
        return total

    feed = rec("lbs.framing.FrameDecoder.feed")
    encode = rec("lbs.framing.encode_frame")
    batch = rec("lbs.service.AnonymizerService.handle_batch")
    backend = rec("lbs.backends.cloak_batch_raw", "lbs.backends.deanonymize_batch_raw")
    parse = rec("lbs.wire.CloakRequestDoc.from_dict", "lbs.wire.DeanonymizeRequestDoc.from_dict")
    outcome = rec(
        "lbs.wire.OutcomeDoc.from_envelope", "lbs.wire.OutcomeDoc.from_result", "lbs.wire.OutcomeDoc.to_dict"
    )
    anonymize = rec("core.engine.anonymize")
    hint = rec("core.engine.peel.hint")
    search = rec("core.engine.peel.search")
    steps = rec("core.rge.forward_step")
    draws = rec("keys.prf.LevelDraws.draw")
    macs = rec("core.envelope.level_mac", "core.envelope.seal_anchor", "core.envelope.witness_bytes")
    span_ms = (feed[1] + batch[1] + encode[1]) / 1e6 / served
    values = {
        "lbs.frontend.batch_size_mean": (statistics.fmean(sizes), len(sizes)),
        "lbs.frontend.batch_size_p99": (_percentile(sizes, 0.99), len(sizes)),
        "lbs.framing.decode_us_per_frame": (feed[1] / 1e3 / feed[3], feed[3]),
        "lbs.framing.encode_us_per_frame": (encode[1] / 1e3 / encode[0], encode[0]),
        "lbs.service.self_us_per_req": (batch[2] / 1e3 / served, served),
        "lbs.backends.call_ms_per_batch": (backend[1] / 1e6 / backend[0], backend[0]),
        "trace.unaccounted_ms_per_req": (mean_ms - span_ms, served),
        "trace.overhead_frac": (overhead, served),
        "trace.handle_batch_coverage_frac": ((batch[1] - batch[2]) / batch[1], batch[0]),
    }
    if parse[0]:
        values["lbs.wire.parse_us_per_req"] = (parse[1] / 1e3 / served, served)
    if outcome[0]:
        values["lbs.wire.outcome_us_per_req"] = (outcome[1] / 1e3 / served, served)
    if anonymize[0]:
        values["core.engine.anonymize_us_per_req"] = (anonymize[1] / 1e3 / anonymize[0], anonymize[0])
        values["core.engine.transitions_per_req"] = (steps[0] / anonymize[0], anonymize[0])
    if hint[0]:
        values["core.engine.peel_hint_us_per_req"] = (hint[1] / 1e3 / hint[0], hint[0])
    if search[0]:
        values["core.engine.peel_search_us_per_req"] = (search[1] / 1e3 / search[0], search[0])
    if draws[0]:
        values["keys.prf.draws_per_req"] = (draws[0] / served, served)
        values["keys.prf.draw_us_per_req"] = (draws[1] / 1e3 / served, served)
    if macs[0]:
        values["core.envelope.mac_us_per_req"] = (macs[1] / 1e3 / served, served)
    return values


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def _git(*args: str) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent), GIT_OPTIONAL_LOCKS="0")
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, env=env, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout if done.returncode == 0 else None


def fingerprint() -> dict:
    from server import POOL_START_METHOD

    dirty = _git("status", "--porcelain")
    return {
        "commit": (_git("rev-parse", "HEAD") or "unknown").strip(),
        "dirty": dirty.splitlines() if dirty is not None else None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "start_method": POOL_START_METHOD,
        "loadavg": list(os.getloadavg()),
    }


#: Metrics printed beside those ``BENCHMARK.json`` declares, on the workloads
#: they apply to: a metric in the JSON result must be measured on every one.
PRINTED_UNITS = {
    "peel_p50_ms": "ms",
    "peel_p99_ms": "ms",
    "fail_frac": "frac",
    "lbs.backends.worker_cpu_ms_per_req": "ms",
    "lbs.wire.parse_us_per_req": "us",
    "lbs.wire.outcome_us_per_req": "us",
    "core.engine.anonymize_us_per_req": "us",
    "core.engine.transitions_per_req": "count",
    "core.engine.peel_hint_us_per_req": "us",
    "core.engine.peel_search_us_per_req": "us",
    "keys.prf.draws_per_req": "count",
    "keys.prf.draw_us_per_req": "us",
    "core.envelope.mac_us_per_req": "us",
}


def units(spec: dict) -> Dict[str, str]:
    declared = {metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]}
    return dict(PRINTED_UNITS, **declared)


def _exit_on_signal(signum, _frame) -> None:
    # SystemExit unwinds through the ``finally`` blocks that stop children.
    raise SystemExit(128 + signum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_signal)
    if not (SRC / "repro").is_dir() or not SPEC_FILE.is_file():
        print(f"run.py: needs {SRC / 'repro'} and {SPEC_FILE} (run from a full checkout)", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    # Harnesses that compare commits pass the run length and the trace switch
    # as values; the run length itself is fixed by BENCHMARK.json.
    parser.add_argument("--seconds", type=float, help=f"must be run_seconds ({spec['run_seconds']})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="24x24 map, short phases")
    args = parser.parse_args(argv)
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        parser.error(f"--seconds is fixed by BENCHMARK.json at {spec['run_seconds']}")
    sys.path.insert(0, str(SRC))

    scale = QUICK if args.quick else FULL
    seconds = scale.seconds or float(spec["run_seconds"])
    names = args.workload or list(WORKLOADS)
    unit = units(spec)
    env = fingerprint()
    print("# env " + json.dumps(env), flush=True)

    results = []
    for name in names:
        result = _measure(name, args.seed, seconds, scale, bool(args.trace))
        results.append(result)
        for metric, (value, samples) in result["values"].items():
            print(f"{name} {metric} {value:.6g} {unit[metric]} n={samples}", flush=True)
        if not result["valid"]:
            print(f"# {name}: invalid run, reported anyway", flush=True)

    reported = [metric["name"] for metric in spec["per_layer" if args.trace else "end_to_end"]]
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}:"
        for metric in reported:
            metrics[prefix + metric] = {"value": result["values"][metric][0], "unit": unit[metric]}
    summary = {
        "correct": all(result["failed"] == 0 for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    label = "-".join(names) + f"-seed{args.seed}" + ("-trace" if args.trace else "") + ("-quick" if args.quick else "")
    (OUT / f"{label}.json").write_text(
        json.dumps(
            {
                "env": env,
                "seconds": seconds,
                "results": [
                    dict(result, values={k: {"value": v, "n": n} for k, (v, n) in result["values"].items()})
                    for result in results
                ],
                "summary": summary,
            },
            indent=2,
        )
        + "\n"
    )
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

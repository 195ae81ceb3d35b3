"""The benchmark's phases, metrics and record; run.py is the entry point.

Importing this module needs the checkout's ctxradius on sys.path.
"""

from __future__ import annotations

import json
import os
import platform
import random
import selectors
import socket
import statistics
import time
from array import array
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from ctxradius import wire

import checks
import tracer
import traffic
from daemon import Daemon

SOURCE = Path(wire.__file__).resolve().parents[1]   # the ctxradius under test
TIMEOUT_S = 2.0   # per try, as the scenario client
TRIES = 3
WINDOW = 16      # requests outstanding
PLANS = 20000    # logins pre-encoded per run; a phase that gets through them starts over
PHASES = 10      # a run times PHASES phases, each on a new daemon, and reports medians


@dataclass(frozen=True)
class Workload:
    returning: bool
    users: int       # logins the user pools are sized for: users are taken in turn


WORKLOADS = {
    # A fresh user per login for the first 20000 logins of a phase.
    "busy-fresh": Workload(returning=False, users=20000),
    "busy-returning": Workload(returning=True, users=200),
}


def split_cpus() -> tuple[int | None, int | None]:
    """A CPU for the generator and another for the daemon.

    Pinned apart, the two never compete for a core, and the daemon's
    threads hand the interpreter lock over on one CPU instead of wherever
    the scheduler puts them; unpinned, runs of the same code spread by a
    quarter on a two-CPU host.  With a single CPU nothing is pinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[0], cpus[-1]


GENERATOR_CPU, DAEMON_CPU = split_cpus()


def daemon_context() -> dict:
    """Seven working days, 08:00-18:00, at an offset that puts now at 13:00."""
    utc = datetime.now(timezone.utc)
    minutes = (13 * 60 - (utc.hour * 60 + utc.minute)) % 1440
    if minutes >= 720:
        minutes -= 1440
    sign = "-" if minutes < 0 else "+"
    offset = f"{sign}{abs(minutes) // 60:02d}:{abs(minutes) % 60:02d}"
    return traffic.context("08:00", "18:00", offset)


class Slot:
    __slots__ = ("sock", "identifier", "login", "data", "sent", "deadline", "tries")

    def __init__(self):
        self.sock = None
        self.identifier = 256
        self.login = None


def run_udp(engine, endpoint, nas, window: int, seconds: float | None,
            sends: list | None = None) -> tuple[int, int]:
    """Closed loop: each of `window` slots runs one login at a time.

    With `seconds` None the loop ends when the engine has no logins left.
    `sends`, if given, collects (request key, send ns, answer ns).
    """
    selector = selectors.DefaultSelector()
    slots = [Slot() for _ in range(window)]
    start = time.monotonic_ns()
    end = start + int(seconds * 1e9) if seconds is not None else None
    last = start
    stopping = False

    def send(slot: Slot, fresh: bool) -> None:
        now = time.monotonic_ns()
        if fresh:
            if slot.identifier == 256:
                if slot.sock is not None:
                    selector.unregister(slot.sock)
                    slot.sock.close()
                sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                sock.bind((nas.take(), 0))
                sock.connect(endpoint)
                sock.setblocking(False)
                selector.register(sock, selectors.EVENT_READ, slot)
                slot.sock, slot.identifier = sock, 0
            slot.data = traffic.with_identifier(slot.login.datagram, slot.identifier)
            slot.identifier += 1
            slot.tries = 0
            slot.sent = now
        slot.tries += 1
        slot.deadline = now + int(TIMEOUT_S * 1e9)
        slot.sock.send(slot.data)

    def begin(slot: Slot) -> None:
        slot.login = None if stopping else engine.start(time.monotonic_ns())
        if slot.login is not None:
            send(slot, True)

    for slot in slots:
        begin(slot)
    while True:
        if end is not None and not stopping and time.monotonic_ns() >= end:
            stopping = True
        busy = [s for s in slots if s.login is not None]
        if not busy:
            break
        wait = (min(s.deadline for s in busy) - time.monotonic_ns()) / 1e9
        for key, _ in selector.select(max(0.0, wait)):
            slot = key.data
            while True:
                try:
                    raw = slot.sock.recv(4097)
                except BlockingIOError:
                    break
                if slot.login is None or raw[1:2] != bytes((slot.identifier - 1,)):
                    continue   # late answer to an earlier try
                received = time.monotonic_ns()
                last = received
                if sends is not None:
                    sends.append((tracer.request_key(slot.data), slot.sent, received))
                status = engine.answer(slot.login, raw, slot.sent, received,
                                       slot.identifier - 1)
                if status == traffic.AGAIN:
                    slot.tries = 0
                    slot.sent = time.monotonic_ns()
                    send(slot, False)
                elif status == traffic.NEXT and not stopping:
                    send(slot, True)
                else:
                    begin(slot)
        now = time.monotonic_ns()
        for slot in slots:
            if slot.login is not None and now >= slot.deadline:
                if slot.tries < TRIES:
                    send(slot, False)
                else:
                    engine.fail(slot.login, "no answer after retries")
                    begin(slot)
    for slot in slots:
        if slot.sock is not None:
            slot.sock.close()
    selector.close()
    return start, last


def daemon_setup(workdir: Path, n: int, probe, context: dict, trace: bool):
    """Spawn `ctxradius serve` and wait for its first verified answer."""
    run_dir = workdir / f"d{n}"
    run_dir.mkdir()
    config = run_dir / "config.json"
    traffic.write_config(config, "../users.json", "otp.log", context)
    datagram = traffic.encode_request(probe.name, probe.password, bytes(16), traffic.DEFAULT,
                                      traffic.nas_ip(True, 0))
    start = time.monotonic_ns()
    daemon = Daemon(SOURCE, config, run_dir / "trace" if trace else None, DAEMON_CPU)
    try:
        port = daemon.wait_listening()
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.bind((f"127.3.0.{n + 1}", 0))
            sock.settimeout(TIMEOUT_S)
            for _ in range(TRIES):
                sock.sendto(datagram, ("127.0.0.1", port))
                try:
                    raw = sock.recv(4097)
                    break
                except TimeoutError:
                    continue
            else:
                raise RuntimeError("set-up probe got no answer")
        response = wire.decode_packet(raw)
        if not wire.verify_response_authenticator(response, datagram[4:20], traffic.SECRET) \
                or response.code is not traffic.ACCEPT:
            raise RuntimeError("set-up probe was not accepted")
    except BaseException:
        daemon.stop()
        raise
    return (time.monotonic_ns() - start) / 1e9, daemon


@dataclass
class Phase:
    """One timed phase on one freshly set-up server."""

    engine: traffic.Engine
    t0: int
    t1: int
    gen_cpu: float
    events: Path
    event_bytes: tuple[int, int]
    sizes: dict
    peak_rss_mb: float
    daemon_cpu: float = 0.0
    sends: list | None = None
    recs: array | None = None

    @property
    def wall(self) -> float:
        return (self.t1 - self.t0) / 1e9


def host_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the whole host, from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


def udp_phase(daemon, spec: Workload, users, inputs, seconds: float,
              sends: list | None) -> Phase:
    endpoint = ("127.0.0.1", daemon.port)
    tail = traffic.DeliveryTail(daemon.config.parent / "otp.log")
    nas = traffic.NasAddresses(1)
    plans, rng = inputs
    try:
        if spec.returning:
            warm = [(u, tuple((role, site, traffic.encode_request(
                        u.name, u.password, rng.randbytes(16), role,
                        traffic.nas_ip(site, u.index))) for role, site in traffic.KINDS[u.kind]))
                    for u in users]
            warmup = traffic.Engine(warm, tail, rng, retransmit=False, limit=len(warm))
            run_udp(warmup, endpoint, nas, WINDOW, None)
            if warmup.failed:
                raise RuntimeError(f"warm-up failed: {warmup.failures}")
        engine = traffic.Engine(plans, tail, rng, retransmit=spec.returning)
        bytes0, cpu0, dcpu0 = daemon.event_bytes(), cpu_seconds(), daemon.cpu_seconds()
        t0, t1 = run_udp(engine, endpoint, nas, WINDOW, seconds, sends)
        gen_cpu = cpu_seconds() - cpu0
        daemon_cpu = daemon.cpu_seconds() - dcpu0
        bytes1 = daemon.event_bytes()
    finally:
        tail.close()
    return Phase(engine, t0, t1, gen_cpu, daemon.events_path, (bytes0, bytes1),
                 {"dedup": 0, "pending": 0}, daemon.peak_rss_mb(), daemon_cpu, sends)


def count_in(path: Path, begin: int, end: int, needle: bytes) -> int:
    with open(path, "rb") as fh:
        fh.seek(begin)
        return fh.read(end - begin).count(needle)


def join_serve(sends: list, roots: list) -> tuple[list, list]:
    """Match client sends with the daemon's handle_datagram spans on the
    request key, in order, giving wait and reply times in ns."""
    spans: dict[int, list] = {}
    for key, start, end in sorted(roots, key=lambda r: r[1]):
        spans.setdefault(key, []).append((start, end))
    mine: dict[int, list] = {}
    for key, sent, received in sends:
        mine.setdefault(key, []).append((sent, received))
    wait, reply = [], []
    for key, pairs in mine.items():
        theirs = spans.get(key, [])
        if len(theirs) != len(pairs):
            continue
        for (sent, received), (start, end) in zip(pairs, theirs):
            wait.append(start - sent)
            reply.append(received - end)
    return wait, reply


def quantile_us(values, q: float) -> float:
    """The q-quantile (nearest rank) of ns values, in us."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] / 1000.0


def median_us(values) -> float:
    return statistics.median(values) / 1000.0 if values else 0.0


def run(workload_name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    if GENERATOR_CPU is not None:
        os.sched_setaffinity(0, {GENERATOR_CPU})
    spec = WORKLOADS[workload_name]
    rng = random.Random(seed)
    mix = traffic.RETURNING_MIX if spec.returning else traffic.FRESH_MIX
    users = traffic.make_users(rng, traffic.pool_sizes(mix, spec.users))
    probe = traffic.make_users(rng, {"probe": 1})[0]
    traffic.write_user_store(workdir / "users.json", rng, users + [probe])
    plans = traffic.make_plans(rng, users, mix, PLANS, spec.returning)
    record: dict = {"workload": workload_name, "seed": seed, "nproc": os.cpu_count(),
                    "python": platform.python_version(), "trace": int(trace),
                    "cpus": f"generator {GENERATOR_CPU}, daemon {DAEMON_CPU}"}

    steal0, total0 = host_ticks()
    check_rng = random.Random(seed ^ 0x5EED)
    record["check.reused_id_drops"] = checks.reused_id_drops(workdir / "reuse", check_rng)
    record["check.matrix_violations"] = checks.matrix_violations(workdir / "grid", check_rng)

    def fresh_inputs():
        # Every phase sends the same logins to a new server that knows no user.
        for user in users:
            user.forget()
        return plans, random.Random(rng.random())

    setups, phases = [], []
    context = daemon_context()
    for n in range(PHASES):
        elapsed, daemon = daemon_setup(workdir, n, probe, context, trace)
        setups.append(elapsed)
        try:
            phase = udp_phase(daemon, spec, users, fresh_inputs(), seconds / PHASES,
                              [] if trace else None)
            phases.append(phase)
            if n == PHASES - 1:
                record["check.scenarios_passed"] = checks.scenarios_passed(
                    ("127.0.0.1", daemon.port), daemon.config.parent / "otp.log")
        finally:
            daemon.stop()
        if trace:
            out = str(daemon.trace_out)
            phase.sizes = json.loads(Path(out + ".json").read_text())
            phase.recs = array("q")
            with open(out + ".spans", "rb") as fh:
                phase.recs.frombytes(fh.read())

    steal1, total1 = host_ticks()
    record["host_steal_share"] = (steal1 - steal0) / max(1, total1 - total0)
    engines = [p.engine for p in phases]
    answered = sum(len(e.requests) for e in engines)
    failed = sum(e.failed for e in engines)
    record.update(answered=answered, failed=failed, phases=len(phases),
                  logins=sum(len(e.logins) for e in engines),
                  wall_s=sum(p.wall for p in phases),
                  failures=[f for e in engines for f in e.failures][:5])
    record["phase_req_per_s"] = [round(len(e.requests) / p.wall)
                                 for e, p in zip(engines, phases)]
    record["req_per_s"] = statistics.median(len(e.requests) / p.wall
                                            for e, p in zip(engines, phases))
    for name, q in (("p50", 0.50), ("p99", 0.99)):
        record[f"req_{name}_us"] = statistics.median(
            quantile_us(e.requests, q) for e in engines)
        record[f"login_{name}_us"] = statistics.median(
            quantile_us(e.logins, q) for e in engines)
    record["fail_ratio"] = failed / max(1, answered + failed)
    record["success_ratio"] = answered / max(1, answered + failed)
    record["setup_s"] = statistics.median(setups)
    record["setup_samples"] = len(setups)
    record["peak_rss_mb"] = statistics.median(p.peak_rss_mb for p in phases)
    record["correct"] = failed == 0
    if trace:
        record["layer"] = layer_metrics(record, phases)
    return record


def layer_metrics(record: dict, phases: list) -> dict:
    """The per-layer figures of a traced run: the spans of every phase plus
    the counts read from the event log, the daemon and the generator."""
    recs = array("q")
    for p in phases:
        recs.extend(p.recs)
    summary = tracer.summarise(recs, [(p.t0, p.t1) for p in phases])
    layer = dict(summary["metrics"])
    answered = max(1, record["answered"])
    wall = sum(p.wall for p in phases)
    issued = summary["issued"]
    layer["auth.challenges_issued"] = issued
    layer["auth.challenge_completion_ratio"] = summary["completed"] / issued if issued else 0.0
    layer["auth.pending_challenges_end"] = phases[-1].sizes["pending"]
    layer["server.dedup_entries_end"] = phases[-1].sizes["dedup"]
    replays = sum(count_in(p.events, *p.event_bytes, b"\treplay\t") for p in phases)
    layer["server.replay_ratio"] = replays / answered
    layer["server.event_bytes_per_req"] = sum(b - a for a, b in
                                              (p.event_bytes for p in phases)) / answered
    wait, reply = join_serve([s for p in phases for s in p.sends or ()], summary["roots"])
    layer["serve.wait_us"] = median_us(wait)
    layer["serve.reply_us"] = median_us(reply)
    daemon_cpu = sum(p.daemon_cpu for p in phases)
    layer["serve.cpu_us_per_req"] = daemon_cpu * 1e6 / answered
    layer["serve.cpu_share"] = daemon_cpu / wall
    for name in ("check.scenarios_passed", "check.reused_id_drops", "check.matrix_violations"):
        layer[name] = record[name]
    layer["gen.cpu_share"] = sum(p.gen_cpu for p in phases) / wall
    cost = tracer.span_cost_ns() * summary["spans_per_request"]
    layer["trace.overhead_ratio"] = cost / max(1.0, summary["root_mean_ns"] - cost)
    record["traced_requests"] = len(summary["roots"])
    record["serve_joined"] = len(wait)
    return layer


END_TO_END = (("req_per_s", "1/s"), ("req_p50_us", "us"), ("req_p99_us", "us"),
              ("login_p50_us", "us"), ("login_p99_us", "us"), ("success_ratio", "ratio"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
LAYER_UNITS = {
    "auth.challenges_issued": "count", "auth.challenge_completion_ratio": "ratio",
    "auth.pending_challenges_end": "count", "server.dedup_entries_end": "count",
    "server.replay_ratio": "ratio", "server.event_bytes_per_req": "B/req",
    "serve.wait_us": "us", "serve.reply_us": "us", "serve.cpu_us_per_req": "us",
    "serve.cpu_share": "ratio", "check.scenarios_passed": "count",
    "check.reused_id_drops": "count", "check.matrix_violations": "count",
    "gen.cpu_share": "ratio", "trace.overhead_ratio": "ratio",
}
SAMPLES = {"req_p50_us": "answered", "req_p99_us": "answered",
           "login_p50_us": "logins", "login_p99_us": "logins", "setup_s": "setup_samples"}


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "calls/req" if name.endswith(".calls") else "us"


def report(record: dict) -> dict:
    """Print the record as '#' lines and return the JSON result."""
    for key in ("workload", "seed", "trace", "nproc", "cpus", "python", "phases", "wall_s",
                "answered", "logins", "failed", "fail_ratio", "check.reused_id_drops",
                "check.matrix_violations", "check.scenarios_passed", "phase_req_per_s",
                "host_steal_share"):
        print(f"# {key}: {record[key]}")
    for problem in record["failures"]:
        print(f"# failure: {problem}")
    if record["trace"]:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in record["layer"].items()}
        print(f"# traced_requests: {record['traced_requests']}")
        print(f"# serve_joined: {record['serve_joined']}")
    else:
        metrics = {name: {"value": record[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        n = f" (n={record[SAMPLES[name]]})" if name in SAMPLES else ""
        print(f"# {name}: {m['value']:.6g} {m['unit']}{n}")
    return {"correct": record["correct"], "attempted": record["answered"] + record["failed"],
            "failed": record["failed"], "metrics": metrics}



"""Spans around the public functions of each ctxradius layer, installed from
outside the program.

Each target is replaced wherever a ctxradius module or class binds it,
matched by identity, so a name taken with ``from .context import
snapshot_context`` is traced too.  A target that no longer exists is
skipped and reports zero calls.

A span is recorded only inside a request, that is under
``Server.handle_datagram`` (the root), or for the start-up targets.  Each
span holds its name, start, end, self time, parent and request key, all in
int64 arrays kept per thread and summarised after the run.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import time
import types
from array import array

ROOT = "server.Server.handle_datagram"
# (span name, module, qualified name); the module is under ctxradius.
REQUEST_TARGETS = (
    ("wire.decode_packet", "wire", "decode_packet"),
    ("wire.recover_password", "wire", "recover_password"),
    ("wire.compute_response_authenticator", "wire", "compute_response_authenticator"),
    ("wire.encode_packet", "wire", "encode_packet"),
    ("context.snapshot_context", "context", "snapshot_context"),
    ("context.evaluate_plausibility", "context", "evaluate_plausibility"),
    ("policy.required_security", "policy", "required_security"),
    ("auth.Authenticator.issue_otp_challenge", "auth", "Authenticator.issue_otp_challenge"),
    ("auth.Authenticator.complete_challenge", "auth", "Authenticator.complete_challenge"),
    ("auth.Authenticator.escalate", "auth", "Authenticator.escalate"),
    ("auth.verify_first_factor", "auth", "verify_first_factor"),
    ("auth.Authenticator.authenticate", "auth", "Authenticator.authenticate"),
    ("auth.DeliveryLog.append", "auth", "DeliveryLog.append"),
    (ROOT, "server", "Server.handle_datagram"),
    ("server.EventLog.log", "server", "EventLog.log"),
)
STARTUP_TARGETS = (
    ("cli.config_load", "server", "load_server_config"),
    ("cli.user_store_load", "auth", "UserStore.load"),
    ("cli.bind", "server", "Server.bind"),
)
TARGETS = REQUEST_TARGETS + STARTUP_TARGETS
NAMES = tuple(t[0] for t in TARGETS)
ROOT_INDEX = NAMES.index(ROOT)
FIELDS = 6  # name index, start ns, end ns, self ns, parent span, request key


class Tracer:
    """Collects spans; at most `max_roots` requests are traced, which bounds
    the memory the spans take."""

    def __init__(self, max_roots: int = 60_000):
        self.max_roots = max_roots
        self.roots = 0
        self.server = None          # the Server whose handle_datagram ran last
        self._local = threading.local()
        self._buffers: list[array] = []
        self._lock = threading.Lock()

    def _thread_state(self):
        state = self._local.__dict__
        if "recs" not in state:
            state["recs"] = array("q")
            state["stack"] = []
            with self._lock:
                self._buffers.append(state["recs"])
        return state["recs"], state["stack"]

    def wrap(self, index: int, fn):
        is_root = index == ROOT_INDEX
        always = index >= len(REQUEST_TARGETS)
        now = time.monotonic_ns
        local = self._local

        def traced(*args, **kwargs):
            try:
                recs, stack = local.recs, local.stack
            except AttributeError:
                recs, stack = self._thread_state()
            if stack:
                parent = stack[-1][0]
                key = recs[parent + 5]
            elif is_root and self.roots < self.max_roots:
                self.roots += 1
                self.server = args[0] if args else None
                parent, key = -1, _request_key(args)
            elif always:
                parent, key = -1, 0
            else:
                return fn(*args, **kwargs)
            slot = len(recs)
            recs.extend((index, 0, 0, 0, parent, key))
            frame = [slot, 0]
            stack.append(frame)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                recs[slot + 1] = start
                recs[slot + 2] = end
                recs[slot + 3] = end - start - frame[1]

        return functools.update_wrapper(traced, fn)

    def records(self) -> array:
        """All spans so far, with parents renumbered to whole-array offsets."""
        out = array("q")
        with self._lock:
            buffers = list(self._buffers)
        for recs in buffers:
            base = len(out)
            chunk = array("q", recs)
            for i in range(4, len(chunk), FIELDS):
                if chunk[i] >= 0:
                    chunk[i] += base
            out.extend(chunk)
        return out


def request_key(datagram: bytes) -> int:
    """Join key for one request: the first 8 octets of its Request Authenticator."""
    return int.from_bytes(datagram[4:12], "little", signed=True)


def _request_key(args) -> int:
    for arg in args:
        if isinstance(arg, (bytes, bytearray)) and len(arg) >= 20:
            return request_key(arg)
    return 0


def install(tracer: Tracer) -> list[str]:
    """Wrap every target that exists; returns the names that were found."""
    for name in ("wire", "context", "policy", "auth", "server", "cli", "scenarios"):
        try:
            importlib.import_module(f"ctxradius.{name}")
        except ImportError:
            pass
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "ctxradius" or n.startswith("ctxradius."))]
    found = []
    for index, (name, modname, qualname) in enumerate(TARGETS):
        owner = sys.modules.get(f"ctxradius.{modname}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn, _ = _unwrap(vars(owner).get(attr) if owner is not None else None)
        if fn is None:
            continue
        _replace(modules, fn, tracer.wrap(index, fn))
        found.append(name)
    return found


def _unwrap(value):
    if isinstance(value, (staticmethod, classmethod)):
        return value.__func__, type(value)
    if isinstance(value, types.FunctionType):
        return value, None
    return None, None


def _replace(modules, fn, wrapper) -> None:
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is fn:
                setattr(module, key, wrapper)
            elif isinstance(value, type) and value.__module__.startswith("ctxradius"):
                for ckey, cvalue in list(vars(value).items()):
                    inner, kind = _unwrap(cvalue)
                    if inner is fn:
                        setattr(value, ckey, kind(wrapper) if kind else wrapper)


def summarise(recs: array, windows: list[tuple[int, int]]) -> dict:
    """Per-target calls per request and median self time over the windows.

    A span counts when it starts inside one of the [t0, t1] windows;
    start-up spans are reported by their last duration instead.
    """
    selfs: dict[int, list[int]] = {}
    last: dict[int, int] = {}
    roots = []
    for i in range(0, len(recs), FIELDS):
        index, start, end = recs[i], recs[i + 1], recs[i + 2]
        if index >= len(REQUEST_TARGETS):
            last[index] = end - start
            continue
        if any(t0 <= start <= t1 for t0, t1 in windows):
            selfs.setdefault(index, []).append(recs[i + 3])
            if index == ROOT_INDEX:
                roots.append((recs[i + 5], start, end))
    requests = max(1, len(roots))
    out = {}
    for index, (name, _, _) in enumerate(REQUEST_TARGETS):
        values = selfs.get(index, [])
        out[f"{name}.calls"] = len(values) / requests
        out[f"{name}.self_us"] = statistics.median(values) / 1000.0 if values else 0.0
    for index, (name, _, _) in enumerate(STARTUP_TARGETS, len(REQUEST_TARGETS)):
        out[f"{name}_us"] = last.get(index, 0) / 1000.0
    spans = sum(len(v) for v in selfs.values())
    busy = sum(end - start for _, start, end in roots)
    return {"metrics": out, "roots": roots, "spans_per_request": spans / requests,
            "root_mean_ns": busy / requests,
            "issued": len(selfs.get(NAMES.index("auth.Authenticator.issue_otp_challenge"), ())),
            "completed": len(selfs.get(NAMES.index("auth.Authenticator.complete_challenge"), ()))}


def span_cost_ns(rounds: int = 5, calls: int = 20_000) -> float:
    """Median extra cost of one recorded span over a bare call, in ns."""
    tracer = Tracer()

    def noop(*args):
        return None

    def call(fn):
        return fn()

    root = tracer.wrap(ROOT_INDEX, call)
    child = tracer.wrap(0, noop)

    def run(fn):
        start = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        return time.perf_counter_ns() - start

    def inside_root():
        return run(child), run(noop)

    costs = []
    for _ in range(rounds):
        traced_ns, bare_ns = root(inside_root)
        costs.append((traced_ns - bare_ns) / calls)
        tracer._local.recs = array("q")  # drop the calibration spans
        tracer._local.stack = []
    return max(0.0, statistics.median(costs))


def table_sizes(server) -> dict:
    """Live dedup entries and pending challenges of a Server.

    These are private tables; after a refactor that renames them the sizes
    read 0 rather than failing the run.
    """
    dedup = getattr(server, "_dedup", None)
    challenges = getattr(getattr(server, "auth", None), "_challenges", None)
    return {"dedup": len(dedup) if dedup is not None else 0,
            "pending": len(challenges) if challenges is not None else 0}

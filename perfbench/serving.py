"""The serving workloads: a ``repro serve`` subprocess under closed-loop load.

The server is the shipped CLI (``python -m repro serve --family mini``,
default flags) on the committed mini artifacts; the traced variant runs
the same entry point through ``serve_traced.py``.  The load comes from
this process: ``CONNECTIONS`` ``AsyncServeClient`` connections over
``binary.v1``, each with a fixed number of requests in flight, each
answered request immediately replaced by the next one of a seeded pool.
Every result is checked bit for bit against the mpmath reference and
must come from the vector tier.
"""

from __future__ import annotations

import asyncio
import gc
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

import host
import reference as ref

HERE = Path(__file__).resolve().parent
CONNECTIONS = 2
WARMUP_S = 0.5
#: Length of the sub-windows the wall-clock figures are taken in.
SUBWINDOW_S = 0.5
#: Server launches per untraced run; set-up time is their median.
SETUP_LAUNCHES = 5
#: Share of requests in round-to-nearest-even.
RNE_SHARE = 0.8
VECTOR_TIER = 0  # wire code of the vector tier (frozen by the protocol)


@dataclass(frozen=True)
class Shape:
    """What one serving workload's requests look like."""

    sizes: Tuple[int, ...]  # inputs per request; each size once per (fn, level)
    repeat: int  # copies of every (fn, level, size) request in the pool
    inflight: int  # requests in flight per connection


SHAPES = {
    "serve-small": Shape(sizes=tuple(range(1, 17)), repeat=1, inflight=4),
    "serve-bulk": Shape(sizes=(4096,), repeat=2, inflight=2),
}


@dataclass
class Request:
    fn: str
    level: int
    mode: str
    inputs: np.ndarray
    want: np.ndarray


def make_pool(workload: str, seed: int) -> List[Request]:
    """The seeded request pool.

    Every ``(function, level, size)`` combination appears ``repeat``
    times and a fixed ``RNE_SHARE`` of the requests are RNE, the rest
    spread evenly over the other modes, so every seed asks for the same
    amount of work; the seed shuffles which request gets which mode, the
    order, and draws the inputs from the level's finite values.
    """
    shape = SHAPES[workload]
    rng = np.random.default_rng([seed, len(shape.sizes)])
    fmts = ref.FAMILIES["mini"]
    keys = [
        (fn, level, n)
        for fn in ref.FUNCTIONS for level in range(len(fmts)) for n in shape.sizes
    ] * shape.repeat
    others = [m for m in ref.MODES if m != "rne"]
    n_other = round(len(keys) * (1 - RNE_SHARE) / len(others)) * len(others)
    modes = ["rne"] * (len(keys) - n_other) + others * (n_other // len(others))
    rng.shuffle(modes)
    pool = []
    for i in rng.permutation(len(keys)):
        fn, level, n = keys[i]
        finite = ref.finite_bits(fmts[level])
        bits = finite[rng.integers(len(finite), size=n)]
        mode = modes[len(pool)]
        pool.append(Request(
            fn, level, mode, ref.to_doubles(fmts[level], bits),
            ref.expected("mini", fn, level, mode, bits),
        ))
    return pool


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` subprocess, started and pinged."""

    def __init__(self, root: Path, log_path: Path, trace_dir: Optional[Path] = None):
        serve_args = ["serve", "--family", "mini", "--port", "0"]
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), str(trace_dir), *serve_args]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._log = open(log_path, "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log,
            stdin=subprocess.DEVNULL,
        )
        try:
            self.port = self._read_port(deadline=t0 + 60)
            asyncio.run(_ping(self.port, deadline=t0 + 60))
        except BaseException:
            self.stop()
            raise
        #: Launch until the first successful ping: wall time, and the
        #: server's CPU time (which host CPU steal does not inflate).
        self.setup_wall_s = time.perf_counter() - t0
        self.setup_s = self.cpu_s()

    def _read_port(self, deadline: float) -> int:
        buf = b""
        fd = self.proc.stdout.fileno()
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.1)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    break
                buf += chunk
                m = re.search(rb"serving family '\w+' on [\w.]+:(\d+)", buf)
                if m:
                    return int(m.group(1))
            elif self.proc.poll() is not None:
                break
        raise RuntimeError(f"server did not report its port (exit {self.proc.poll()})")

    def cpu_s(self) -> float:
        """CPU seconds the server's threads have run (scheduler
        accounting, nanosecond resolution)."""
        total = 0
        for task in Path(f"/proc/{self.proc.pid}/task").iterdir():
            with open(task / "schedstat") as f:
                total += int(f.read().split()[0])
        return total / 1e9

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


async def _ping(port: int, deadline: float) -> None:
    from repro.serve.client import AsyncServeClient

    while True:
        try:
            async with AsyncServeClient("127.0.0.1", port, protocol="binary") as c:
                if await c.ping():
                    return
        except OSError:
            if time.perf_counter() > deadline:
                raise
            await asyncio.sleep(0.01)


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
@dataclass
class LoadResult:
    attempted: int
    failed: int
    failures: List[str]
    inputs_sent: int  # inputs of the requests that got an answer
    latencies: List[float]  # requests that started and ended inside the window
    latency_sum: float  # over every request, warm-up included
    done: List[Tuple[float, int, float]]  # (end, inputs, latency) of requests ending in the window
    windows: host.Windows  # sub-windows of the measurement window
    window_s: float
    window_inputs: int  # inputs of requests answered inside the window
    server_cpu_s: float  # server CPU time inside the window
    stats: Optional[dict]  # the server's stats op after the load; None if it failed

    def wall_inputs_per_s(self) -> float:
        """Inputs answered per second of wall time, in the least-stolen
        sub-windows."""
        events = [(t, n) for t, n, _ in self.done]
        return self.windows.least_stolen(events, lambda ns, secs: sum(ns) / secs)

    def p50_ms(self) -> float:
        """Median client latency, in the least-stolen sub-windows."""
        events = [(t, lat) for t, _, lat in self.done]
        return self.windows.least_stolen(events, lambda lats, _: statistics.median(lats) * 1e3)


async def run_load(server: Server, pool: List[Request], inflight: int, seconds: float) -> LoadResult:
    """Closed-loop load for ``seconds`` after a warm-up.  A request that
    raises, or whose result fails a check, counts as failed."""
    from repro.serve.client import AsyncServeClient

    fmts = ref.FAMILIES["mini"]
    clients = [
        await AsyncServeClient("127.0.0.1", server.port, protocol="binary").connect()
        for _ in range(CONNECTIONS)
    ]
    state = {"next": 0, "attempted": 0, "failed": 0, "sent": 0, "win_inputs": 0, "lat": 0.0}
    failures: List[str] = []
    latencies: List[float] = []
    done: List[Tuple[float, int, float]] = []
    windows = host.Windows()
    t_measure = time.perf_counter() + WARMUP_S
    t_end = t_measure + seconds

    def fail(seq, req, error):
        state["failed"] += 1
        if len(failures) < 10:
            failures.append(f"request {seq} ({req.fn} L{req.level} {req.mode}): {error}")

    async def worker(client):
        while time.perf_counter() < t_end:
            seq = state["next"]
            state["next"] += 1
            req = pool[seq % len(pool)]
            n = len(req.inputs)
            state["attempted"] += 1
            t0 = time.perf_counter()
            try:
                resp = await client.eval(req.fn, req.inputs, level=req.level, mode=req.mode)
            except Exception as exc:  # noqa: BLE001 - a failed operation, reported
                fail(seq, req, f"{type(exc).__name__}: {exc}")
                continue
            t1 = time.perf_counter()
            state["sent"] += n
            state["lat"] += t1 - t0
            error = _check(resp, req, fmts[req.level])
            if error:
                fail(seq, req, error)
            if t_measure <= t1 <= t_end:
                state["win_inputs"] += n
                done.append((t1, n, t1 - t0))
                if t0 >= t_measure:
                    latencies.append(t1 - t0)

    async def sample():
        await asyncio.sleep(t_measure - time.perf_counter())
        cpu0 = server.cpu_s()
        windows.mark()
        n_windows = max(1, round(seconds / SUBWINDOW_S))
        for i in range(1, n_windows + 1):
            await asyncio.sleep(t_measure + i * seconds / n_windows - time.perf_counter())
            windows.mark()
        state["cpu"] = server.cpu_s() - cpu0

    # The load generator's own collector pauses would show up as
    # latency; nothing it allocates per request forms cycles.
    gc.collect()
    gc.disable()
    stats = None
    try:
        await asyncio.gather(sample(), *(worker(c) for c in clients for _ in range(inflight)))
        try:
            async with AsyncServeClient("127.0.0.1", server.port, protocol="binary") as c:
                stats = await c.stats()
        except Exception as exc:  # noqa: BLE001 - reported as a failure by stats_failures
            failures.append(f"stats op failed: {type(exc).__name__}: {exc}")
    finally:
        gc.enable()
        for c in clients:
            await c.aclose()
    done.sort()
    return LoadResult(
        attempted=state["attempted"], failed=state["failed"], failures=failures,
        inputs_sent=state["sent"], latencies=latencies, latency_sum=state["lat"],
        done=done, windows=windows, window_s=seconds, window_inputs=state["win_inputs"],
        server_cpu_s=state["cpu"], stats=stats,
    )


def _check(resp: dict, req: Request, fmt: ref.Format) -> Optional[str]:
    if not resp.get("ok"):
        return f"error {resp.get('code')}: {resp.get('error')}"
    bits, tiers = resp["bits"], resp["tiers"]
    if len(bits) != len(req.want):
        return f"{len(bits)} results for {len(req.want)} inputs"
    if np.any(tiers != VECTOR_TIER):
        return f"{int(np.count_nonzero(tiers != VECTOR_TIER))} results not from the vector tier"
    if not np.array_equal(bits, req.want):
        wrong = ~ref.same_results(fmt, bits, req.want)
        if wrong.any():
            return f"{int(wrong.sum())} results differ from mpmath"
    return None


def stats_failures(stats: Optional[dict], inputs_sent: int) -> List[str]:
    """Server-side counters that must agree with what the client saw."""
    if stats is None:
        return ["no stats from the server"]
    bad = []
    vector = stats["results_by_tier"].get("vector", 0)
    if vector != inputs_sent:
        bad.append(f"server counted {vector} vector results for {inputs_sent} inputs sent")
    for key in ("errors", "overloaded", "deadline_exceeded"):
        if stats.get(key):
            bad.append(f"server {key} = {stats[key]}")
    return bad

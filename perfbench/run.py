"""The repository benchmark: generation, verification and serving.

    python3 perfbench/run.py --workload gen-verify --seed 1 --seconds 6 --trace 0

Workloads (see README.md in this directory):

* ``gen-verify``  — generate mini ``cospi`` and tiny ``exp10`` at
  ``--jobs 2`` in a fresh process, verify both exhaustively, and check
  every result of the fresh artifacts against mpmath;
* ``serve-small`` — closed-loop load of 1–16-input requests on a
  ``repro serve`` subprocess;
* ``serve-bulk``  — the same server and client with 4096-input requests.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload with the layer wrappers of ``tracer.py`` installed and prints
the per-layer metrics instead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Lines before it give the host and human-readable detail.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = HERE / ".work"

END_TO_END = {
    "setup_s": "s",
    "work_s": "s",
    "inputs_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "gen.wall_s": "s",
    "verify.wall_s": "s",
    "core.constraints_s": "s",
    "core.system_build_s": "s",
    "core.system_builds": "count",
    "core.system_rows": "count",
    "core.clarkson_s": "s",
    "core.clarkson_iterations": "count",
    "lp.solve_s": "s",
    "lp.solves": "count",
    "core.screen_s": "s",
    "core.runtime_check_s": "s",
    "mp.oracle_s": "s",
    "funcs.reduce_s": "s",
    "fp.round_real_calls": "count",
    "parallel.chunks": "count",
    "parallel.worker_s": "s",
    "gen.unattributed_s": "s",
    "gen.unattributed_pct": "%",
    "verify.checks": "count",
    "verify.scalar_s": "s",
    "verify.oracle_s": "s",
    "serve.requests": "count",
    "serve.decode_s": "s/request",
    "serve.coalesce_wait_s": "s/request",
    "serve.flushes": "count",
    "serve.requests_per_flush": "ratio",
    "serve.eval_s": "s/request",
    "libm.kernel_s": "s/request",
    "libm.vround_s": "s/request",
    "serve.encode_s": "s/request",
    "serve.server_request_s": "s/request",
    "serve.transport_s": "s/request",
    "serve.vector_results": "count",
    "trace.overhead_pct": "%",
}

GEN_SETUP_LAUNCHES = 3
GEN_TIMEOUT_S = 170


def _quantile_ms(values, q: int) -> float:
    """The ``q``-th percentile of ``values`` (seconds), in milliseconds."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


class Outcome:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.metrics: dict = {}
        self.notes: list = []

    def absorb(self, attempted: int, failed: int, failures) -> None:
        self.attempted += attempted
        self.failed += failed
        self.failures += list(failures)


# ----------------------------------------------------------------------
# gen-verify
# ----------------------------------------------------------------------
def _gen_verify_pass(work: Path, tag: str, extra=()) -> dict:
    out = work / f"{tag}.json"
    cmd = [
        sys.executable, str(HERE / "gen_verify.py"), "--out", str(out),
        "--work-dir", str(work / f"{tag}-artifacts"), *extra,
    ]
    launched = time.perf_counter()
    proc = subprocess.run(
        cmd + ["--launched", repr(launched)], cwd=ROOT, timeout=GEN_TIMEOUT_S,
        stdin=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        raise RuntimeError(f"gen_verify.py exited {proc.returncode}: {tail[0]}")
    return json.loads(out.read_text())


def gen_verify(args, work: Path, result: Outcome) -> None:
    if not args.trace:
        out = _gen_verify_pass(work, "main")
        result.absorb(out["attempted"], out["failed"], out["failures"])
        setups = [out] + [
            _gen_verify_pass(work, f"setup{i}", ["--setup-only"])
            for i in range(GEN_SETUP_LAUNCHES)
        ]
        result.metrics = {
            "setup_s": statistics.median(o["setup_s"] for o in setups),
            "work_s": out["gen_cpu_s"] + out["verify_cpu_s"],
            "inputs_per_s": out["checks"] / out["verify_wall_s"],
            "peak_rss_mb": out["peak_rss_mb"],
        }
        result.notes.append(
            f"wall clock: gen {out['gen']} verify {out['verify']} checks {out['checks']} "
            f"({out['checks'] / out['verify_cpu_s']:.0f} per CPU second); set-up "
            f"{statistics.median(o['setup_wall_s'] for o in setups):.3f} s; "
            f"{len(out['latencies'])} evaluator calls: p50 "
            f"{_quantile_ms(out['latencies'], 50):.3f} ms, p99 "
            f"{_quantile_ms(out['latencies'], 99):.3f} ms"
        )
        return

    import tracer

    trace_dir = work / "trace"
    out = _gen_verify_pass(work, "traced", ["--trace-dir", str(trace_dir)])
    result.absorb(out["attempted"], out["failed"], out["failures"])
    tr = tracer.Trace(trace_dir)
    main_pid = out["pid"]
    gen_s = sum(out["gen"].values())
    attributed = tr.root_s("gen:", main_pid)
    phases = ("gen:", "verify:")
    m = {
        "gen.wall_s": gen_s,
        "verify.wall_s": sum(out["verify"].values()),
        "core.constraints_s": tr.total_s("core.constraints", "gen:", main_pid),
        "core.system_build_s": tr.total_s("core.system_build", "gen:", main_pid),
        "core.system_builds": tr.count("core.system_builds", "gen:"),
        "core.system_rows": tr.count("core.system_rows", "gen:"),
        "core.clarkson_s": tr.self_s("core.clarkson", "gen:", main_pid),
        "core.clarkson_iterations": out["clarkson_iterations"],
        "lp.solve_s": tr.total_s("lp.solve", "gen:"),
        "lp.solves": tr.calls("lp.solve", "gen:"),
        "core.screen_s": tr.total_s("core.screen", "gen:"),
        "core.runtime_check_s": tr.total_s("core.runtime_check", "gen:"),
        "mp.oracle_s": tr.self_s("mp.oracle", "gen:"),
        "funcs.reduce_s": tr.self_s("funcs.reduce", "gen:"),
        "fp.round_real_calls": sum(tr.count("fp.round_real_calls", p) for p in phases),
        "parallel.chunks": sum(tr.calls("parallel.chunk", p) for p in phases),
        "parallel.worker_s": sum(tr.total_s("parallel.chunk", p) for p in phases),
        "gen.unattributed_s": gen_s - attributed,
        "gen.unattributed_pct": 100.0 * (gen_s - attributed) / gen_s,
        "verify.checks": out["checks"],
        "verify.scalar_s": tr.total_s("libm.scalar", "verify:"),
        "verify.oracle_s": tr.self_s("mp.oracle", "verify:"),
        "trace.overhead_pct": out["overhead_pct"],
    }
    result.metrics = m
    result.notes.append("self time by span, all processes (s):")
    result.notes += [f"  {name:<22} {secs:10.3f}" for name, secs in tr.self_table().items()]


# ----------------------------------------------------------------------
# serve-small / serve-bulk
# ----------------------------------------------------------------------
def serve(args, work: Path, result: Outcome) -> None:
    import serving

    shape = serving.SHAPES[args.workload]
    pool = serving.make_pool(args.workload, args.seed)
    log = work / "server.log"

    def load(server, seconds):
        res = asyncio.run(serving.run_load(server, pool, shape.inflight, seconds))
        server_side = serving.stats_failures(res.stats, res.inputs_sent)
        result.absorb(res.attempted, res.failed + bool(server_side), res.failures + server_side)
        return res

    if not args.trace:
        setups = []
        for i in range(serving.SETUP_LAUNCHES):
            server = serving.Server(ROOT, log)
            setups.append(server)
            if i < serving.SETUP_LAUNCHES - 1:
                server.stop()
        try:
            res = load(server, args.seconds)
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        pool_inputs = sum(len(r.inputs) for r in pool)
        result.metrics = {
            "setup_s": statistics.median(s.setup_s for s in setups),
            "work_s": res.server_cpu_s * pool_inputs / res.window_inputs,
            "inputs_per_s": res.wall_inputs_per_s(),
            "peak_rss_mb": rss,
        }
        result.notes.append(
            f"wall clock: {res.window_inputs / res.window_s:.0f} inputs/s "
            f"({res.window_inputs / res.server_cpu_s:.0f} per server CPU second); "
            f"{len(res.latencies)} requests timed: p50 {_quantile_ms(res.latencies, 50):.3f} ms "
            f"({res.p50_ms():.3f} ms in the least-stolen sub-windows), "
            f"p99 {_quantile_ms(res.latencies, 99):.3f} ms; set-up "
            f"{statistics.median(s.setup_wall_s for s in setups):.3f} s; "
            f"{(res.stats or {}).get('coalesced_flushes')} flushes for "
            f"{(res.stats or {}).get('coalesced_requests')} requests; steal "
            f"{100 * res.windows.steal_share():.1f}% of host CPU"
        )
        return

    import tracer

    half = args.seconds / 2.0
    server = serving.Server(ROOT, log)
    try:
        plain = load(server, half)
    finally:
        server.stop()
    trace_dir = work / "trace"
    server = serving.Server(ROOT, log, trace_dir=trace_dir)
    try:
        traced = load(server, half)
    finally:
        server.stop()
    tr = tracer.Trace(trace_dir)
    st = traced.stats
    n_req = sum(st["requests_by_fn"].values())
    server_mean = st["request_latency_s"]["mean"]
    waits = tr.count("serve.coalesce_waits")
    flushes = st["coalesced_flushes"]
    result.metrics = {
        "serve.requests": n_req,
        "serve.decode_s": tr.total_s("serve.decode") / n_req,
        "serve.coalesce_wait_s": tr.count("serve.coalesce_wait_ns") / 1e9 / max(1, waits),
        "serve.flushes": flushes,
        "serve.requests_per_flush": st["coalesced_requests"] / max(1, flushes),
        "serve.eval_s": tr.total_s("serve.eval") / n_req,
        "libm.kernel_s": tr.total_s("libm.kernel") / n_req,
        "libm.vround_s": tr.total_s("libm.vround") / n_req,
        "serve.encode_s": tr.total_s("serve.encode") / n_req,
        "serve.server_request_s": server_mean,
        "serve.transport_s": traced.latency_sum / traced.attempted - server_mean,
        "serve.vector_results": st["results_by_tier"].get("vector", 0),
        "trace.overhead_pct": 100.0 * (
            (traced.server_cpu_s / traced.window_inputs)
            / (plain.server_cpu_s / plain.window_inputs) - 1.0
        ),
    }
    result.notes.append(
        f"client p99 {_quantile_ms(traced.latencies, 99):.3f} ms over "
        f"{len(traced.latencies)} traced requests"
    )
    result.notes.append("self time by span (s):")
    result.notes += [f"  {name:<22} {secs:10.3f}" for name, secs in tr.self_table().items()]


WORKLOADS = {"gen-verify": gen_verify, "serve-small": serve, "serve-bulk": serve}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=6.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import host
    import reference

    reference.ensure(reference.ALL_PAIRS, log=lambda msg: print(msg, file=sys.stderr))
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    result = Outcome()
    try:
        WORKLOADS[args.workload](args, work, result)
    except Exception as exc:  # noqa: BLE001 - the program failed; say so in the result
        traceback.print_exc()
        result.absorb(1, 1, [f"{args.workload} stopped: {type(exc).__name__}: {exc}"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("host: " + json.dumps(host.info()))
    for line in result.notes + [f"FAILED: {f}" for f in result.failures]:
        print(line)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {
        name: {"value": result.metrics.get(name, 0), "unit": unit} for name, unit in units.items()
    }
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

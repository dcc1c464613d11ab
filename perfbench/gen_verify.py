"""One pass of the gen-verify workload, in a fresh process.

Started by ``run.py`` (never imported): a fresh interpreter is what a
``repro generate`` user pays for, and it guarantees a cold oracle.  The
pass generates each function through ``repro.api.generate`` at
``--jobs 2``, verifies it exhaustively through ``repro.api.verify``,
then evaluates every input of every level in all five modes through the
batch evaluator on the fresh artifact and compares each result with the
mpmath reference.  The outcome is written as JSON to ``--out``.

``--setup-only`` stops once imports and pipelines are ready, which is
how ``run.py`` samples set-up time (CPU time, and wall time from
``--launched``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

#: Mini cospi spends a large share of its time in every generation
#: layer; tiny exp10 is almost all LP.
FUNCTIONS = (("cospi", "mini"), ("exp10", "tiny"))
JOBS = 2
#: Inputs per evaluator call in the reference check.
BATCH = 256
VECTOR_TIER = 0  # wire code of the vector tier (frozen by the protocol)
#: The paper's caps on one progressive polynomial.
MAX_PIECES = 4
MAX_SPECIALS_PER_PIECE = 4
#: Level whose verification sweep measures the tracing overhead (the
#: smallest, to keep the traced run well inside its time limit).
OVERHEAD_LEVEL = 0


def _properties(gen) -> list:
    """Violations of the structure the method promises."""
    bad = []
    if gen.num_pieces > MAX_PIECES:
        bad.append(f"{gen.name}: {gen.num_pieces} pieces > {MAX_PIECES}")
    if len(gen.specials) > MAX_SPECIALS_PER_PIECE * gen.num_pieces:
        bad.append(f"{gen.name}: {len(gen.specials)} specials for {gen.num_pieces} piece(s)")
    for i, per_level in enumerate(gen.term_counts()):
        for lo, hi in zip(per_level, per_level[1:]):
            if any(a > b for a, b in zip(lo, hi)):
                bad.append(f"{gen.name}: piece {i} term counts {per_level} decrease")
    return bad


def cpu_s() -> float:
    """CPU seconds of this process and its reaped children (the pool
    workers).  The kernel accounts host CPU steal apart from it."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _tracing_overhead(api, tracer, fn_family, work_dir) -> float:
    """Traced versus untraced CPU time of one verification sweep (the
    smallest level of the first function), alternating u, t, t, u."""
    fn, family = fn_family
    times = {True: 0.0, False: 0.0}
    tracer.TRACER.phase = "overhead"
    for traced in (False, True, True, False):
        tracer.enable(traced)
        c0 = cpu_s()
        api.verify(fn, family, directory=work_dir, jobs=JOBS, levels=[OVERHEAD_LEVEL])
        times[traced] += cpu_s() - c0
    tracer.enable(True)
    return 100.0 * (times[True] / times[False] - 1.0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--launched", type=float, required=True,
                    help="time.perf_counter() of the parent when it started this process")
    ap.add_argument("--out", required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--trace-dir", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import numpy as np

    from repro import api
    from repro.funcs import FAMILY_CONFIGS, make_pipeline

    import host
    import reference as ref

    for fn, family in FUNCTIONS:
        make_pipeline(fn, FAMILY_CONFIGS[family])
    out = {
        "setup_s": cpu_s(),
        "setup_wall_s": time.perf_counter() - args.launched,
        "pid": os.getpid(),
    }
    if args.setup_only:
        Path(args.out).write_text(json.dumps(out))
        return 0

    phase = None
    if args.trace_dir:
        import tracer

        tracer.start(Path(args.trace_dir))
        tracer.install_generation()
        phase = tracer.TRACER

    def set_phase(name):
        if phase is not None:
            phase.phase = name

    failures = []
    attempted = failed = 0

    out["gen"], out["verify"], out["checks"] = {}, {}, 0
    out["gen_cpu_s"] = out["verify_cpu_s"] = out["verify_wall_s"] = 0.0
    out["clarkson_iterations"] = out["lp_solves"] = 0
    for fn, family in FUNCTIONS:
        set_phase(f"gen:{fn}")
        t0, c0 = time.perf_counter(), cpu_s()
        attempted += 1
        try:
            gen = api.generate(
                fn, family, jobs=JOBS, out_dir=args.work_dir, checkpoint=False
            ).generated
        except Exception as exc:  # noqa: BLE001 - a failed operation, reported
            bad = [f"generate {fn}: {type(exc).__name__}: {exc}"]
        else:
            bad = _properties(gen)
            out["clarkson_iterations"] += gen.stats.clarkson_iterations
            out["lp_solves"] += gen.stats.lp_solves
        out["gen"][fn] = time.perf_counter() - t0
        out["gen_cpu_s"] += cpu_s() - c0
        failures += bad
        failed += bool(bad)
    for fn, family in FUNCTIONS:
        set_phase(f"verify:{fn}")
        t0, c0, s0 = time.perf_counter(), cpu_s(), host.steal_s()
        attempted += 1
        try:
            reports = api.verify(fn, family, directory=args.work_dir, jobs=JOBS)
        except Exception as exc:  # noqa: BLE001 - a failed operation, reported
            reports, bad = [], [f"verify {fn}: {type(exc).__name__}: {exc}"]
        else:
            bad = []
        wall = time.perf_counter() - t0
        out["verify"][fn] = wall
        out["verify_cpu_s"] += cpu_s() - c0
        # Steal delays both pool workers; charge each its share.
        out["verify_wall_s"] += wall - (host.steal_s() - s0) / (os.cpu_count() or 1)
        for level, rep in enumerate(reports):
            finite = len(ref.finite_bits(ref.FAMILIES[family][level]))
            out["checks"] += rep.total_checks
            if rep.wrong or rep.total_checks != finite * len(ref.MODES):
                bad.append(
                    f"verify {fn} level {level}: {rep.wrong} wrong of "
                    f"{rep.total_checks} checks, expected {finite * len(ref.MODES)}"
                )
        failures += bad
        failed += bool(bad)

    # Every input, level and mode of the fresh artifacts against mpmath.
    set_phase("check")
    latencies = []
    for fn, family in FUNCTIONS:
        try:
            evaluator = api.make_evaluator(family, args.work_dir, names=(fn,))
        except Exception as exc:  # noqa: BLE001 - fails every call it would have made
            evaluator, error = None, f"{type(exc).__name__}: {exc}"
        for level, fmt in enumerate(ref.FAMILIES[family]):
            bits = ref.finite_bits(fmt)
            xs = ref.to_doubles(fmt, bits)
            for mode in ref.MODES:
                want = ref.expected(family, fn, level, mode, bits)
                for i in range(0, len(xs), BATCH):
                    attempted += 1
                    t0 = time.perf_counter()
                    try:
                        if evaluator is None:
                            raise RuntimeError(f"no evaluator: {error}")
                        res = evaluator.evaluate(fn, xs[i:i + BATCH], level=level, mode=mode)
                    except Exception as exc:  # noqa: BLE001 - a failed operation, reported
                        failed += 1
                        if len(failures) < 20:
                            failures.append(
                                f"{fn} level {level} {mode}: {type(exc).__name__}: {exc}"
                            )
                        continue
                    latencies.append(time.perf_counter() - t0)
                    # The check is of the fresh artifact: without it the
                    # evaluator quietly answers from the oracle tier.
                    other_tier = np.count_nonzero(res.tier_codes != VECTOR_TIER)
                    wrong = ~ref.same_results(fmt, res.bits_array, want[i:i + BATCH])
                    if other_tier:
                        failed += 1
                        if len(failures) < 20:
                            failures.append(
                                f"{fn} level {level} {mode}: {other_tier} results "
                                "not from the vector tier"
                            )
                    elif wrong.any():
                        failed += 1
                        j = int(np.flatnonzero(wrong)[0])
                        failures.append(
                            f"{fn} level {level} {mode}: {int(wrong.sum())} results differ "
                            f"from mpmath, first at input {int(bits[i + j]):#x}"
                        )
    out["latencies"] = latencies
    if phase is not None:
        out["overhead_pct"] = _tracing_overhead(api, tracer, FUNCTIONS[0], args.work_dir)
    out["attempted"] = attempted
    out["failed"] = failed
    out["failures"] = failures
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out["peak_rss_mb"] = rss_kb / 1024.0
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

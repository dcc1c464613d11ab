"""Benchmark-side tracing: wrappers around the program's layer functions.

Nothing under ``src/`` is instrumented.  ``install_generation`` and
``install_serving`` replace a layer's functions with timing wrappers, in
every ``repro`` module that imported them by name, after the program has
been imported; ``enable(False)`` puts the originals back.  Each
call becomes a span ``(id, parent, name, phase, t0, t1, self_s)`` kept
in memory; a span's self time is its duration minus its child spans'.
Counters (calls of a hot helper, rows built) are kept beside the spans.

Spans are written out by :func:`flush`, as JSON lines, to
``<dir>/spans-<pid>.jsonl``: at exit in the process that installed the
wrappers, and after every chunk in ``repro.parallel`` pool workers (the
pool terminates its workers, so they never reach an exit hook).  Forked
workers start with empty buffers.  :class:`Trace` reads a directory back.

``phase`` tags every span with what the benchmark was doing when it
started (``gen:cospi``, ``verify:exp10``, ``serve``); forked workers
inherit the tag of the phase that created their pool.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

_now = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.out_dir: Optional[Path] = None
        self.phase = ""
        self._reset()

    def _reset(self) -> None:
        self.spans: List[tuple] = []
        self.counts: Dict[str, int] = defaultdict(int)
        # Open spans: [id, child_seconds].
        self.stack: List[list] = []
        self.next_id = 0

    def begin(self) -> list:
        self.next_id += 1
        frame = [self.next_id, 0.0]
        self.stack.append(frame)
        return frame

    def end(self, frame: list, name: str, t0: float, t1: float) -> None:
        self.stack.pop()
        dur = t1 - t0
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += dur
        self.spans.append(
            (frame[0], parent[0] if parent else 0, name, self.phase, t0, t1, dur - frame[1])
        )

    def count(self, name: str, n: int = 1) -> None:
        self.counts[f"{self.phase}|{name}"] += n

    def flush(self) -> None:
        if self.out_dir is None or not (self.spans or self.counts):
            return
        pid = os.getpid()
        with open(self.out_dir / f"spans-{pid}.jsonl", "a") as f:
            for sid, parent, name, phase, t0, t1, self_s in self.spans:
                f.write(json.dumps([pid, sid, parent, name, phase, t0, t1, self_s]) + "\n")
            if self.counts:
                f.write(json.dumps({"pid": pid, "counts": dict(self.counts)}) + "\n")
        self.spans.clear()
        self.counts.clear()


TRACER = Tracer()
os.register_at_fork(after_in_child=TRACER._reset)


def _span_wrapper(fn: Callable, name: str, after: Optional[Callable] = None) -> Callable:
    tracer = TRACER

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.begin()
        t0 = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(frame, name, t0, _now())
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _count_wrapper(fn: Callable, name: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        TRACER.count(name)
        return fn(*args, **kwargs)

    return wrapper


#: Every binding replaced so far: ``(namespace, key, original, wrapper)``.
_PATCHES: List[tuple] = []


def _bind(namespace, key: str, original, new) -> None:
    setattr(namespace, key, new)
    _PATCHES.append((namespace, key, original, new))


def patch_function(module: str, attr: str, wrapper: Callable) -> None:
    """Replace ``module.attr`` and every alias of it in loaded ``repro``
    modules (``from x import attr``)."""
    original = getattr(sys.modules[module], attr)
    new = wrapper(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("repro") and mod is not None:
            for key, value in list(vars(mod).items()):
                if value is original:
                    _bind(mod, key, original, new)


def patch_method(cls, attr: str, wrapper: Callable) -> None:
    original = cls.__dict__[attr]
    _bind(cls, attr, original, wrapper(original))


def enable(on: bool) -> None:
    """Switch every installed wrapper on or off (the originals go back)."""
    for namespace, key, original, new in _PATCHES:
        setattr(namespace, key, new if on else original)


def span(name: str, after: Optional[Callable] = None) -> Callable:
    return lambda fn: _span_wrapper(fn, name, after)


def count(name: str) -> Callable:
    return lambda fn: _count_wrapper(fn, name)


def start(out_dir: Path) -> None:
    """Collect into ``out_dir`` and flush the installing process at exit."""
    TRACER.out_dir = Path(out_dir)
    TRACER.out_dir.mkdir(parents=True, exist_ok=True)
    atexit.register(TRACER.flush)


# ----------------------------------------------------------------------
# The layer wrappers
# ----------------------------------------------------------------------
def install_generation() -> None:
    """Wrap the generation and verification layers (gen-verify)."""
    import repro.core.constraints as constraints
    import repro.core.search  # noqa: F401
    import repro.funcs.base as funcs_base
    import repro.lp.model  # noqa: F401
    import repro.mp.oracle as oracle
    import repro.parallel.pool  # noqa: F401
    import repro.verify.exhaustive  # noqa: F401
    import repro.libm.baselines  # noqa: F401

    def rows(args, _result):
        TRACER.count("core.system_builds")
        TRACER.count("core.system_rows", len(args[0]))

    def flush_after_chunk(_args, _result):
        TRACER.flush()

    patch_method(constraints.ConstraintSystem, "__init__", span("core.system_build", rows))
    patch_method(constraints.ConstraintSystem, "violations", span("core.screen"))
    for meth in ("correctly_rounded", "correctly_rounded_all", "tight_value"):
        patch_method(oracle.Oracle, meth, span("mp.oracle"))
    patch_method(funcs_base.FunctionPipeline, "constraint_for", span("funcs.reduce"))
    patch_function("repro.core.search", "collect_constraints", span("core.constraints"))
    patch_function("repro.core.search", "solve_constraints", span("core.clarkson"))
    patch_function("repro.core.search", "_absorb_runtime_failures", span("core.runtime_check"))
    patch_function("repro.core.search", "evaluate_generated", span("libm.scalar"))
    patch_function("repro.lp.model", "solve_margin_lp", span("lp.solve"))
    patch_function("repro.fp.rounding", "round_real", count("fp.round_real_calls"))
    patch_function("repro.parallel.pool", "shard_outcomes", span("parallel.shard"))
    patch_function("repro.parallel.pool", "shard_verify", span("parallel.shard"))
    patch_function("repro.parallel.pool", "_gen_chunk", span("parallel.chunk", flush_after_chunk))
    patch_function(
        "repro.parallel.pool", "_verify_chunk", span("parallel.chunk", flush_after_chunk)
    )
    patch_function("repro.verify.exhaustive", "verify_exhaustive", span("verify.sweep"))


def _time_coalescing(dispatcher_cls) -> None:
    """Count each request's wait from ``submit`` to the flush of its key."""
    submit, flush = dispatcher_cls.submit, dispatcher_cls._flush
    pending: Dict[tuple, List[float]] = defaultdict(list)

    async def traced_submit(self, fn, inputs, level, mode):
        pending[(fn, level, mode.value)].append(_now())
        return await submit(self, fn, inputs, level, mode)

    def traced_flush(self, key):
        t = _now()
        waits = pending.pop(key, ())
        TRACER.count("serve.coalesce_waits", len(waits))
        TRACER.count("serve.coalesce_wait_ns", int(sum(t - s for s in waits) * 1e9))
        return flush(self, key)

    dispatcher_cls.submit = traced_submit
    dispatcher_cls._flush = traced_flush


def install_serving() -> None:
    """Wrap the serving layers (frames, dispatcher, evaluator, kernel)."""
    import repro.libm.vectorized as vectorized
    import repro.libm.vround  # noqa: F401
    import repro.serve.base  # noqa: F401
    import repro.serve.evaluator as evaluator
    import repro.serve.server as server
    import repro.serve.tiers  # noqa: F401

    TRACER.phase = "serve"
    patch_function("repro.serve.frames", "decode_eval_request", span("serve.decode"))
    patch_function("repro.serve.frames", "encode_eval_result", span("serve.encode"))
    patch_method(evaluator.BatchEvaluator, "evaluate", span("serve.eval"))
    patch_method(vectorized.VectorizedFunction, "__call__", span("libm.kernel"))
    patch_function(
        "repro.libm.vround", "round_doubles_to_bits_checked", span("libm.vround")
    )
    _time_coalescing(server.BatchingDispatcher)


# ----------------------------------------------------------------------
# Reading traces back
# ----------------------------------------------------------------------
class Trace:
    """Spans and counters of every process that wrote into a directory."""

    def __init__(self, directory: Path):
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        for path in sorted(Path(directory).glob("spans-*.jsonl")):
            with open(path) as f:
                for line in f:
                    rec = json.loads(line)
                    if isinstance(rec, dict):
                        for k, v in rec["counts"].items():
                            self.counts[k] += v
                    else:
                        self.spans.append(rec)

    def self_s(self, name: str, phase_prefix: str = "", pid: Optional[int] = None) -> float:
        return sum(
            s[7] for s in self.spans
            if s[3] == name and s[4].startswith(phase_prefix) and (pid is None or s[0] == pid)
        )

    def total_s(self, name: str, phase_prefix: str = "", pid: Optional[int] = None) -> float:
        return sum(
            s[6] - s[5] for s in self.spans
            if s[3] == name and s[4].startswith(phase_prefix) and (pid is None or s[0] == pid)
        )

    def count(self, name: str, phase_prefix: str = "") -> int:
        return sum(
            v for k, v in self.counts.items()
            if k.startswith(phase_prefix) and k.split("|", 1)[1] == name
        )

    def calls(self, name: str, phase_prefix: str = "") -> int:
        return sum(1 for s in self.spans if s[3] == name and s[4].startswith(phase_prefix))

    def root_s(self, phase_prefix: str, pid: int) -> float:
        """Summed duration of the root spans one process opened in a phase."""
        return sum(
            s[6] - s[5] for s in self.spans
            if s[0] == pid and s[2] == 0 and s[4].startswith(phase_prefix)
        )

    def self_table(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s[3]] += s[7]
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

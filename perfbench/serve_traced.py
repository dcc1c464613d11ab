"""``repro serve`` with the benchmark's serving wrappers installed.

Usage: ``python3 perfbench/serve_traced.py TRACE_DIR serve [serve flags]``.
Installs the wrappers of :func:`tracer.install_serving`, then hands the
remaining arguments to the ``repro`` CLI entry point.  The spans are
written to ``TRACE_DIR`` when the server exits (on SIGTERM it drains and
returns normally).
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402
from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    tracer.start(Path(sys.argv[1]))
    tracer.install_serving()
    sys.exit(main(sys.argv[2:]))

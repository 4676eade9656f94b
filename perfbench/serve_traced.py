"""Launch ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/serve_traced.py TRACE_DIR serve RUN_DIR ...``

Installs the wrappers in this process, makes the daemon's worker
children trace themselves too (``tracehook/sitecustomize.py`` on their
``PYTHONPATH``), enters ``repro serve`` and writes this process's span
summary to ``TRACE_DIR`` when the daemon has drained.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    trace_dir, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import tracing
    from repro import cli

    tracing.trace_process(Path(trace_dir), "daemon",
                          tracing.SOLVER_TARGETS + tracing.SERVICE_TARGETS)
    os.environ["PERFBENCH_TRACE_DIR"] = trace_dir
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(HERE / "tracehook"), os.environ.get("PYTHONPATH"))
        if p
    )
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())

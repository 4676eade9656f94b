"""Trace a solve-daemon worker child of the traced benchmark run.

``perfbench/serve_traced.py`` puts this directory on the workers'
``PYTHONPATH`` and names the trace directory in ``PERFBENCH_TRACE_DIR``;
Python imports ``sitecustomize`` at start-up, so each worker installs
the span wrappers before ``repro.service.worker`` runs and writes its
span summary there when it exits.  Without the variable it does nothing.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import tracing

    tracing.trace_process(os.environ["PERFBENCH_TRACE_DIR"], "worker",
                          tracing.SOLVER_TARGETS)

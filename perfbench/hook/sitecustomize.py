"""Install the benchmark's span wrappers in interpreters the analysis starts.

The traced analysis puts this directory on ``PYTHONPATH`` and names a span
directory in ``PERFBENCH_SPAN_DIR``; the distributed engine's loopback
workers inherit both, so their layer calls are recorded and flushed to
that directory like a forked pool worker's.
"""

import os
import sys

if os.environ.get("PERFBENCH_SPAN_DIR"):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import spans

    spans.install(spans.SpanRecorder(os.environ[spans.SPAN_DIR_ENV]))

"""``specmatcher serve --preload`` file: trace the daemon for the benchmark.

Wraps the layer functions before the daemon serves its first request and
writes the recorded spans to ``$PERFBENCH_SPANS_OUT`` when the daemon exits.
"""

import atexit
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402 - needs the path above

tracing.install()
atexit.register(
    lambda: tracing.dump(os.environ["PERFBENCH_SPANS_OUT"], tracing.RECORDER.spans)
)

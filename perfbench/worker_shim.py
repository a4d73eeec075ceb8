"""Start ``repro worker`` with the benchmark's instruments installed.

Usage::

    python3 perfbench/worker_shim.py <trace_dir|-> <stats.json> worker <cache_dir> [options]

Every other argument goes to ``python -m repro worker`` unchanged.  The shim
counts the worker's task retries and failures (written to ``stats.json`` at
exit) and, given a trace directory, records the worker's spans there.
"""

from __future__ import annotations

import json
import signal
import sys


def main(argv) -> int:
    trace_dir, stats_path, repro_args = argv[0], argv[1], argv[2:]
    import tracer
    from repro.__main__ import main as repro_main

    # SIGTERM leaves through the normal exit path, so the worker closes its
    # sessions and the statistics and spans below are still written.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
    tracer.install_fail_counter()
    if trace_dir != "-":
        tracer.install(trace_dir)
    try:
        return repro_main(repro_args)
    finally:
        tracer.TRACER.flush()
        with open(stats_path, "w", encoding="utf-8") as handle:
            json.dump(
                {"retried": tracer.TRACER.retried, "failed": tracer.TRACER.failed},
                handle,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

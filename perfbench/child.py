"""One workload run in a fresh process; prints one JSON line.

    python3 perfbench/child.py WORKLOAD SEED STARTED [--traced] [--scale S]

``STARTED`` is the parent's ``time.monotonic()`` just before it spawned
this process, so set-up time includes interpreter start and imports.
With ``--traced`` the per-layer wrappers and the profiler are installed
and every finished context is sanitized. A failed output check prints
the reason on stderr and exits with status 3.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("started", type=float)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]
    from workloads import WORKLOADS, CheckFailed, Clock

    layers = None
    if args.traced:
        from layers import LayerTrace, ProfiledClock

        layers = LayerTrace().install()
        clock = ProfiledClock(args.started, layers.profile)
    else:
        clock = Clock(args.started)
    try:
        outcome = WORKLOADS[args.workload](
            args.seed, clock, scale=args.scale,
            on_context=layers.finish if layers else None)
    except CheckFailed as exc:
        print(f"{args.workload}: output check failed: {exc}",
              file=sys.stderr)
        return 3
    result = {
        "run_s": clock.run_s,
        "setup_s": clock.setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "metrics": outcome.metrics,
        "samples": outcome.samples,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "digest": outcome.digest,
    }
    if layers is not None:
        layers.uninstall()
        result["layers"] = layers.metrics()
        result["sanitizer_errors"] = layers.error_reports
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

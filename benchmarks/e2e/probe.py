"""Set-up probe child: fresh interpreter -> first verified result.

``python probe.py '<op json>'`` imports the program, builds the op's
machine or backend, runs the op (the tiny-scale twin of a workload's
first op) and exits 0 when the output verified.  The parent times the
whole process, spawn to exit; that is ``setup_s`` for the direct
workloads.
"""

import json
import sys


def main() -> int:
    op = json.loads(sys.argv[1])
    from ops import RUNNERS
    from spans import SpanRecorder

    result = RUNNERS[op["kind"]](op, SpanRecorder())
    if not result.ok:
        print(result.error, file=sys.stderr)
        return 1
    print(result.events)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

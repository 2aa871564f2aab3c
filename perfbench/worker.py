"""Child process that runs one workload and streams its progress as JSON lines.

Started by run.py, never by hand: ``worker.py SPEC_JSON``.  The spec names
the program root, the workload, its seed, seconds and work directory, and
the mode: ``setup`` (set up, report ready, exit), ``run`` (one untraced
pass) or ``trace`` (one untraced pass, then the same ops again with the
tracer's wrappers installed).  Events go to the original stdout; anything
the program prints goes to stderr.
"""

from __future__ import annotations

import importlib.util
import json
import os
import resource
import sys


def main() -> int:
    spec = json.loads(sys.argv[1])
    events = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def emit(event: dict) -> None:
        events.write(json.dumps(event) + "\n")
        events.flush()

    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    found = importlib.util.find_spec("gphazard")
    if found is None or not os.path.realpath(found.origin).startswith(os.path.realpath(src) + os.sep):
        print(f"perfbench: no gphazard package under {src}", file=sys.stderr)
        return 3

    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]](
        spec["seed"], spec["seconds"], spec["workdir"], in_process=spec["mode"] == "trace"
    )
    workload.setup()
    emit({"ev": "ready", "records_per_op": workload.records_per_op})
    if spec["mode"] == "setup":
        return 0

    tracer = Tracer()
    workload.run_pass(tracer, False, lambda ev: emit({**ev, "pass": 0}))
    done = {"ev": "done"}
    if spec["mode"] == "trace":
        tracer.install()
        workload.fresh()
        workload.run_pass(tracer, True, lambda ev: emit({**ev, "pass": 1}))
        done["trace"] = tracer.snapshot()
    done["children_maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time one workload's set-up in a fresh process and print it as JSON.

Usage: python3 perfbench/probe.py <workload> <full|smoke> <trace 0|1>

Set-up is importing hypermono, then the workload's ``setup()``: ``build_rep``,
``standardized`` and a cold ``build_domain`` (the domain cache starts empty
in a new process).  Times are quiet-host seconds (``hostclock.py``).  With
trace 1 the set-up's spans and the time of each traced layer are printed too.
"""

import json
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

from hostclock import HostClock
from spans import Tracer


def main(name, size, traced):
    tracer = Tracer()
    with HostClock() as clock:
        start = time.perf_counter()
        import workloads  # imports hypermono

        with tracer.patched() if traced else nullcontext():
            with tracer.span("setup", job="setup"):
                workloads.WORKLOADS[name](size, None).setup()
        end = time.perf_counter()
    speed = clock.speed(start, end)  # a layer here lasts a millisecond: too short to sample
    layers = {}
    for s in tracer.spans:
        layers[s.name] = layers.get(s.name, 0.0) + clock.busy(s.start, s.end) * speed
    print(json.dumps({
        "setup_s": clock.seconds(start, end),
        "layers": layers,
        "spans": [asdict(s) for s in tracer.spans],
    }))


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    main(sys.argv[1], sys.argv[2], sys.argv[3] == "1")

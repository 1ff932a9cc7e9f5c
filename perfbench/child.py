"""One fresh-process run of a workload, started by run.py.

    python3 perfbench/child.py '<json request>'

The request holds "workload" (or null for an import-only probe), "spec" (the
generated inputs) and "trace".  The child times the import of qchar first,
before it imports anything else, then runs and checks the workload body and
prints one JSON line with its measurements.  qchar must come from src/ of
the checkout that holds this file.
"""

import sys
import time

_t0 = time.perf_counter()
import qchar  # noqa: E402
import qchar.cli  # noqa: E402,F401
SETUP_S = time.perf_counter() - _t0

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main() -> int:
    request = json.loads(sys.argv[1])
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if os.path.dirname(os.path.dirname(os.path.abspath(qchar.__file__))) != src:
        print(f"qchar imported from {qchar.__file__}, not from {src}", file=sys.stderr)
        return 2
    out = {"setup_s": SETUP_S}
    workload = request["workload"]
    if workload is not None:
        import workloads
        from tracer import Tracer

        spec = request["spec"]
        tracer = Tracer() if request["trace"] else None
        if tracer is not None:
            tracer.install()
        cpu0 = _cpu_s()
        wall0 = time.perf_counter()
        result = workloads.body(workload, spec, qchar)
        out["wall_s"] = time.perf_counter() - wall0
        out["cpu_s"] = _cpu_s() - cpu0
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = tracer.metrics()
            out["absent"] = tracer.absent
        out["digest"], out["error"] = workloads.check(workload, spec, result)
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    out["peak_rss_mb"] = peak_kb / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

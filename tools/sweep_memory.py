"""Peak memory of the rdc sweep at two bounds, each in a fresh process.

    python tools/sweep_memory.py [--jobs 2] SMALL LARGE

Each bound runs `qchar verify rdc --bound <bound> --jobs <jobs>` in a new
Python process with src/ of this checkout on its path.  That process prints
its own peak resident set (ru_maxrss of RUSAGE_SELF: the parent) and that of
its largest worker (RUSAGE_CHILDREN: the pool's workers are reaped when the
pool closes, so this reads 0 with one worker).  Exit 1 when a peak at LARGE
exceeds the same peak at SMALL by more than SLACK_MB, since sweep memory
should not grow with the case count.  Wall time is printed and not judged.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SLACK_MB = 4.0

_CHILD = """
import json, resource, sys, time
from qchar.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
wall = time.perf_counter() - start
parent, workers = (resource.getrusage(who).ru_maxrss / 1024
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
print(json.dumps({"code": code, "wall_s": wall, "parent": parent,
                  "workers": workers}))
"""


def measure(bound: int, jobs: int) -> dict:
    argv = ["verify", "rdc", "--bound", str(bound), "--jobs", str(jobs)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _CHILD, *argv], env=env,
                          capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"qchar {' '.join(argv)} failed:\n{proc.stderr}")
    peaks = json.loads(lines[-1])
    if peaks["code"] != 0:
        raise SystemExit(f"qchar {' '.join(argv)} exited {peaks['code']}")
    print(f"{' '.join(lines[:-1])}  [--bound {bound}: parent "
          f"{peaks['parent']:.1f} MB, workers {peaks['workers']:.1f} MB, "
          f"{peaks['wall_s']:.2f} s]")
    return peaks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("small", type=int)
    parser.add_argument("large", type=int)
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args(argv)
    small, large = (measure(bound, args.jobs) for bound in (args.small, args.large))
    status = 0
    for who in ("parent", "workers"):
        growth = large[who] - small[who]
        verdict = "ok" if growth <= SLACK_MB else "FAIL"
        print(f"{who}: {small[who]:.1f} -> {large[who]:.1f} MB "
              f"({growth:+.1f} MB, at most {SLACK_MB:+.1f}) {verdict}")
        status |= growth > SLACK_MB
    return status


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark workloads: inputs from a seed, the timed body, and the
output check.

Each body runs once per fresh process, because qchar's memo tables are
module-global and unbounded; a reused process would time cache hits, while
a CLI user pays the cold cost on every invocation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
from pathlib import Path

EXPECTED_FILE = Path(__file__).with_name("expected.json")

WHY = {
    "verify-all": "the headline command; ~25k tiny cases in nine identities "
                  "show per-call overhead, and only it runs the verify process pool",
    "tb-sweep": "lattice enumeration dominates (~123 leaves per candidate) while "
                "the polynomial kernel idles; it shows enumerator work",
    "coinv-p4": "big kernel products (~254 coefficient products per _qdict_mul "
                "call) and a large Gaussian binomial; enumeration idles",
}

CASE_LINE = re.compile(r"^(\S+): (\d+) cases, (\d+) failures$")


def inputs(workload: str, seed: int) -> dict:
    """The generated inputs of one run; the program sees only these."""
    if workload == "verify-all":
        return {"argv": ["verify", "all", "--jobs", "2", "--seed", str(seed)]}
    if workload == "tb-sweep":  # deterministic: the seed is unused
        return {"argv": ["verify", "tb", "--p", "2..4", "--nmax", "6"]}
    if workload == "coinv-p4":
        # shifting theta moves (N_+, N_-) but leaves L = (5, 5, 5, 5)
        return {"theta": random.Random(seed).randint(-4, 4)}
    raise ValueError(f"unknown workload {workload!r}")


def describe(workload: str, seed: int, spec: dict) -> str:
    if workload == "coinv-p4":
        theta = spec["theta"]
        return (f"coinv_char_fermionic and coinv_char_supernomial for r=0..3 at "
                f"SiteVector(4, {25 + theta}, {25 - theta}, (20, 35, 45)), "
                f"L=(5,5,5,5), theta={theta} from seed {seed}; then qbinomial(90, 45)")
    cases = json.loads(EXPECTED_FILE.read_text())[workload]["cases"]
    text = (f"qchar {' '.join(spec['argv'])}: {sum(cases.values())} cases in "
            f"{len(cases)} identities")
    return text + (" (seed unused)" if workload == "tb-sweep" else "")


def with_jobs(spec: dict, jobs: int) -> dict:
    """The same verify inputs with another worker count (stdout is the same
    for any --jobs)."""
    argv = list(spec["argv"])
    argv[argv.index("--jobs") + 1] = str(jobs)
    return {"argv": argv}


def body(workload: str, spec: dict, qchar):
    """The timed work; names are looked up at call time so a tracer that
    wrapped them sees the calls."""
    if workload == "coinv-p4":
        theta = spec["theta"]
        site = qchar.SiteVector(4, 25 + theta, 25 - theta, (20, 35, 45))
        pairs = [(qchar.coinv_char_fermionic(r, site),
                  qchar.coinv_char_supernomial(r, site)) for r in range(4)]
        return pairs, qchar.qbinomial(90, 45)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = qchar.cli.main(spec["argv"])
    return code, out.getvalue()


def check(workload: str, spec: dict, result) -> tuple[str, str | None]:
    """(digest, error): error is None when the output is correct."""
    expected = json.loads(EXPECTED_FILE.read_text())[workload]
    if workload == "coinv-p4":
        pairs, qbin = result
        # normalized() gives every equal value the same serialization
        payload = json.dumps(
            [[f.normalized().to_json_obj() for f, _ in pairs], qbin.to_json_obj()],
            sort_keys=True)
        digest = hashlib.sha256(payload.encode()).hexdigest()
        for r, (fermionic, supernomial) in enumerate(pairs):
            if fermionic != supernomial:
                return digest, f"routes disagree at r={r}"
        if qbin.at_q1_z1() != math.comb(90, 45):
            return digest, "qbinomial(90, 45) at q=1 is not comb(90, 45)"
        want = expected["sha256_by_theta"].get(str(spec["theta"]))
        if digest != want:
            return digest, f"result digest {digest} != recorded {want}"
        return digest, None
    code, stdout = result
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    if code != 0:
        return digest, f"exit code {code}"
    cases = {}
    for line in stdout.splitlines():
        match = CASE_LINE.match(line)
        if match is None:
            return digest, f"unexpected output line {line!r}"
        if match[3] != "0":
            return digest, f"{match[1]}: {match[3]} failures"
        cases[match[1]] = int(match[2])
    if cases != expected["cases"]:
        return digest, f"case counts {cases} != recorded {expected['cases']}"
    if digest != expected["stdout_sha256"]:
        return digest, f"stdout digest {digest} != recorded {expected['stdout_sha256']}"
    return digest, None

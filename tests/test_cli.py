"""CLI behavior: outputs, exit codes, determinism, reports, mutation."""

import hashlib
import itertools
import json
import os
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import qchar.cli
import qchar.verify as verify
from qchar.cli import main
from qchar.laurent import BiLaurent
from qchar.supernomial import SiteVector, multiplicities
from qchar.verify import REPORT_SCHEMA

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_qbin_json(capsys):
    code, out, _ = run_cli(capsys, "compute", "qbin", "--n", "4", "--m", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["terms"] == [
        {"q": "0", "z": 0, "c": "1"},
        {"q": "1", "z": 0, "c": "1"},
        {"q": "2", "z": 0, "c": "2"},
        {"q": "3", "z": 0, "c": "1"},
        {"q": "4", "z": 0, "c": "1"},
    ]


def test_compute_qbin_plus_negative(capsys):
    code, out, _ = run_cli(capsys, "compute", "qbin-plus", "--n", "-1", "--m", "-2")
    assert code == 0
    assert json.loads(out)["terms"] == [{"q": "-1", "z": 0, "c": "-1"}]


def test_compute_qsup(capsys):
    code, out, _ = run_cli(capsys, "compute", "qsup", "--L", "1,1", "--a", "1")
    assert code == 0
    assert BiLaurent.from_json_obj(json.loads(out)) == BiLaurent(
        {(0, 0): 1, (1, 0): 1}
    )


def test_compute_dvec(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "dvec", "--p", "2", "--pairs", "1,0;1,0"
    )
    assert code == 0
    assert json.loads(out) == {"dims": ["2", "2"]}


def test_compute_char_formats(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "char-rep", "--p", "2", "--r", "1",
        "--qmax", "1", "--zwin", "0",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["q_shift"] == "1/4" and obj["z_shift"] == "-1/2"

    code, out, _ = run_cli(
        capsys, "--format", "latex", "compute", "char-coinv",
        "--p", "2", "--r", "0", "--site", "1,1;1",
    )
    assert code == 0
    assert "\\left(" in out


def test_compute_char_coinv_routes_match(capsys):
    _, sup_out, _ = run_cli(
        capsys, "compute", "char-coinv", "--p", "3", "--r", "1",
        "--site", "2,1;1,2",
    )
    _, ferm_out, _ = run_cli(
        capsys, "compute", "char-coinv", "--p", "3", "--r", "1",
        "--site", "2,1;1,2", "--route", "fermionic",
    )
    assert json.loads(sup_out) == json.loads(ferm_out)


def test_compute_char_coinv_applies_qmax_and_zwin(capsys):
    base = ("compute", "char-coinv", "--p", "4", "--r", "0", "--site", "5,5;4,7,9")
    _, full_out, _ = run_cli(capsys, *base)
    full = json.loads(full_out)
    cut = ("--qmax", "2", "--zwin", "1")
    outs = [
        json.loads(run_cli(capsys, *base, "--route", route, *cut)[1])
        for route in ("supernomial", "fermionic")
    ]
    assert outs[0] == outs[1]
    assert outs[0] != full
    kept = [
        t for t in full["poly"]["terms"]
        if Fraction(t["q"]) <= 2 and abs(t["z"]) <= 1
    ]
    assert outs[0]["poly"]["terms"] == kept


def test_malformed_input_exits_2(capsys):
    code, _, err = run_cli(capsys, "compute", "qbin", "--n", "4")
    assert code == 2
    assert err.strip().startswith("error:")
    # argparse-level failures also exit 2
    code, _, _ = run_cli(capsys, "compute", "no-such-object")
    assert code == 2
    code, _, err = run_cli(capsys, "compute", "qsup", "--L", "1,x", "--a", "0")
    assert code == 2


def test_verify_exit_zero_and_report_schema(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "--report", str(report_path),
        "verify", "knuth", "--range", "3",
    )
    assert code == 0
    assert "0 failures" in out
    report = json.loads(report_path.read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["identity"] == "knuth"
    assert report["cases"] > 0 and report["failures"] == []


def test_verify_all_writes_report_array(capsys, tmp_path):
    report_path = tmp_path / "all.json"
    code, out, _ = run_cli(
        capsys, "--report", str(report_path),
        "verify", "all",
        "--p", "2..2", "--nmax", "2", "--margin", "0", "--window", "3",
        "--bound", "2", "--range", "2", "--entry-max", "2", "--amax", "3",
        "--count", "5",
    )
    assert code == 0
    reports = json.loads(report_path.read_text())
    assert isinstance(reports, list) and len(reports) == len(verify.ALL_IDENTITIES)
    for entry in reports:
        jsonschema.validate(entry, REPORT_SCHEMA)
    assert [e["identity"] for e in reports] == list(verify.ALL_IDENTITIES)


def test_verify_stdout_deterministic(capsys):
    args = ("verify", "rdc", "--bound", "2")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_verify_parallel_matches_serial(capsys, tmp_path):
    serial_path = tmp_path / "serial.json"
    parallel_path = tmp_path / "parallel.json"
    base = ("verify", "pascal", "--window", "4")
    code1, out1, _ = run_cli(capsys, "--report", str(serial_path), *base)
    code2, out2, _ = run_cli(
        capsys, "--jobs", "2", "--report", str(parallel_path), *base
    )
    assert code1 == code2 == 0
    assert out1 == out2
    serial = json.loads(serial_path.read_text())
    parallel = json.loads(parallel_path.read_text())
    serial.pop("ms"), parallel.pop("ms")
    assert serial == parallel


def test_global_flags_accepted_on_both_sides(capsys, tmp_path):
    before = tmp_path / "before.json"
    after = tmp_path / "after.json"
    code1, out1, _ = run_cli(
        capsys, "--report", str(before), "verify", "knuth", "--range", "2"
    )
    code2, out2, _ = run_cli(
        capsys, "verify", "knuth", "--range", "2", "--report", str(after)
    )
    assert code1 == code2 == 0
    assert out1 == out2
    a, b = json.loads(before.read_text()), json.loads(after.read_text())
    a.pop("ms"), b.pop("ms")
    assert a == b


def test_verify_config_file(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"bound": 2}))
    code, out, _ = run_cli(capsys, "verify", "rdc", "--config", str(config))
    assert code == 0
    assert f"{5 ** 4} cases" in out


@pytest.mark.parametrize("value", ["3", True, 3.0, None, [3]])
def test_verify_config_rejects_non_integer_values(capsys, tmp_path, value):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"nmax": value}))
    code, out, err = run_cli(capsys, "verify", "tb", "--config", str(config))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "identity, key", [("rec", "count"), ("rec", "amax"), ("rec", "entry_max"),
                      ("ta", "margin")]
)
def test_verify_rejects_negative_sweep_options(capsys, tmp_path, source,
                                               identity, key):
    # each would otherwise run a smaller sweep and exit 0
    if source == "flag":
        argv = ["--" + key.replace("_", "-"), "-1"]
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: -1}))
        argv = ["--config", str(config)]
    code, out, err = run_cli(capsys, "verify", identity, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_corrupted_engine_is_caught(capsys, monkeypatch):
    # a deliberately wrong extended binomial must produce a counterexample
    real = verify._ext_qdict

    def corrupted(n, m):
        if (n, m) == (3, 1):
            return {0: 1, 1: 1}  # drops the q^2 term of [3 choose 1]
        return real(n, m)

    monkeypatch.setattr(verify, "_ext_qdict", corrupted)
    code, out, _ = run_cli(capsys, "verify", "knuth", "--range", "3")
    assert code == 1
    assert "counterexample" in out


def test_internal_error_in_compute_exits_3(capsys, monkeypatch):
    def broken(n, m):
        raise ArithmeticError("not divisible by 1 - q^2")

    monkeypatch.setattr(qchar.cli, "qbinomial", broken)
    code, out, err = run_cli(capsys, "compute", "qbin", "--n", "4", "--m", "2")
    assert code == 3
    assert out == ""
    assert err == "internal error: ArithmeticError: not divisible by 1 - q^2\n"


def test_internal_error_in_verify_checker_exits_3(capsys, monkeypatch):
    cases, _, defaults = verify._REGISTRY["knuth"]

    def broken(case):
        raise RuntimeError("shell pruning did not certify the cutoff")

    monkeypatch.setitem(verify._REGISTRY, "knuth", (cases, broken, defaults))
    code, _, err = run_cli(capsys, "verify", "knuth", "--range", "2")
    assert code == 3
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("internal error: RuntimeError: ")


def test_verify_pool_is_bounded_by_cpus_and_cases(monkeypatch):
    # a fake executor records the pool size; no real pool is started
    pools = []

    class FakePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cases, chunksize):
            pools.append((self.max_workers, chunksize))
            return map(fn, cases)

    def ok(case):
        return None

    def pools_for(cpus, ncases):
        pools.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setitem(
            verify._REGISTRY, "knuth", (lambda opts: list(range(ncases)), ok, {})
        )
        report = verify.run_identity("knuth", jobs=10**6)
        assert (report.cases, report.failures) == (ncases, [])
        return pools

    monkeypatch.setattr(verify, "ProcessPoolExecutor", FakePool)
    assert pools_for(4, 3) == [(3, 1)]  # (max_workers, chunksize)
    assert pools_for(4, 100) == [(4, 3)]
    assert pools_for(1, 100) == []  # serial: no pool at all
    assert pools_for(None, 100) == []


SMALL_SWEEPS = {"p_lo": 2, "p_hi": 2, "nmax": 2, "margin": 0, "window": 3,
                "bound": 2, "lo": -2, "hi": 3, "awin": 2, "entry_max": 2,
                "amax": 3, "count": 5}


def test_verify_all_parallel_matches_serial(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(SMALL_SWEEPS))
    runs = []
    for jobs in ("1", "2"):
        path = tmp_path / f"jobs{jobs}.json"
        code, out, _ = run_cli(capsys, "--jobs", jobs, "--report", str(path),
                               "verify", "all", "--config", str(config))
        reports = json.loads(path.read_text())
        for entry in reports:
            entry.pop("ms")
        runs.append((code, out, reports))
    assert runs[0][0] == 0
    assert runs[0] == runs[1]


def test_verify_all_opens_one_pool(capsys, monkeypatch, tmp_path):
    # a fake executor counts the pools; every identity runs on the first one
    pools, maps = [], []

    class FakePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cases, chunksize):
            maps.append(self)
            return map(fn, cases)

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(verify, "ProcessPoolExecutor", FakePool)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(SMALL_SWEEPS))
    code, _, _ = run_cli(capsys, "--jobs", "2", "verify", "all",
                         "--config", str(config))
    assert code == 0
    assert pools == [2]
    assert len(maps) == len(verify.ALL_IDENTITIES)
    assert len(set(map(id, maps))) == 1


def test_verify_unknown_identity_exits_2(capsys):
    code, _, _ = run_cli(capsys, "verify", "nonsense")
    assert code == 2


def test_verify_empty_sweep_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "tb", "--nmax", "-1")
    assert code == 2
    assert "empty" in err


@pytest.mark.parametrize("window", ["-1", "-3"])
def test_verify_pascal_negative_window_exits_2(capsys, window):
    # a negative window has no binomial to check and an empty regen table
    code, out, err = run_cli(capsys, "verify", "pascal", "--window", window)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _site_cases_checking_every_candidate(p_lo, p_hi, nmax, margin, max_d=None):
    for p in range(p_lo, p_hi + 1):
        d_hi = 2 * p - 3 if max_d is None else min(max_d, 2 * p - 3)
        for d in range(d_hi + 1):
            for total in range(nmax + 1):
                for plus in range(-margin, total + margin + 1):
                    minus = total - plus
                    for levels in itertools.combinations_with_replacement(
                        range(total + 1), d
                    ):
                        site = SiteVector(p, plus, minus, levels)
                        if all(v >= 0 for v in multiplicities(site)):
                            yield (p, d, plus, minus, levels)


@pytest.mark.parametrize("args", [(2, 4, 5, 2), (2, 3, 3, 1, 2)])
def test_site_cases_match_a_check_of_every_candidate(args):
    got = list(verify._site_cases(*args))
    assert got == list(_site_cases_checking_every_candidate(*args))
    assert len(got) > 100


def _full_site_cases_checking_every_candidate(p_lo, p_hi, entry_max):
    for p in range(p_lo, p_hi + 1):
        for plus in range(entry_max + 1):
            for minus in range(entry_max + 1):
                for levels in itertools.combinations_with_replacement(
                    range(entry_max + 1), p - 1
                ):
                    site = SiteVector(p, plus, minus, levels)
                    if all(v >= 0 for v in multiplicities(site)):
                        for r in range(p):
                            yield (p, r, plus, minus, levels)


@pytest.mark.parametrize("args", [(2, 3, 4), (3, 4, 3)])
def test_full_site_cases_match_a_check_of_every_candidate(args):
    got = verify._full_site_cases(*args)
    assert got == tuple(_full_site_cases_checking_every_candidate(*args))
    assert len(got) > 100


def test_verify_all_stdout_matches_recorded_digest(capsys):
    # the determinism contract: default sweeps print the recorded bytes
    expected = json.loads(EXPECTED.read_text())["verify-all"]["stdout_sha256"]
    code, out, _ = run_cli(capsys, "verify", "all")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def test_verify_tb_default_sweep_size(capsys):
    code, out, _ = run_cli(capsys, "verify", "tb", "--p", "2..4", "--nmax", "5")
    assert code == 0
    cases = int(out.split(":")[1].split("cases")[0].strip())
    assert cases >= 1000

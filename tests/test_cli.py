"""CLI behavior: outputs, exit codes, determinism, reports, mutation."""

import ast
import concurrent.futures
import contextlib
import errno
import hashlib
import importlib
import inspect
import io
import itertools
import json
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
import types
import weakref
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import ext_binomial_brute, poly_mul_brute

import qchar.characters as characters
import qchar.cli
import qchar.verify as verify
from qchar.cli import main
from qchar.laurent import BiLaurent, _pack, _unpack_qdict
from qchar.supernomial import SiteVector, multiplicities, supernomial
from qchar.verify import REPORT_SCHEMA

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
TRACER = EXPECTED.with_name("tracer.py")
README = EXPECTED.parents[1] / "README.md"


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
    assert json.loads(out) == BiLaurent({(0, 0): 1, (1, 0): 1}).to_json_obj()


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


def test_malformed_input_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "compute", "qbin", "--n", "4")
    assert code == 2
    assert err.strip().startswith("error:")
    # argparse-level failures also exit 2
    code, _, _ = run_cli(capsys, "compute", "no-such-object")
    assert code == 2
    code, _, err = run_cli(capsys, "compute", "qsup", "--L", "1,x", "--a", "0")
    assert code == 2
    # malformed option values, each named on one stderr line
    config = tmp_path / "cfg.json"
    config.write_text("[1, 2]")  # a JSON list, not an object
    shadowed = tmp_path / "shadowed.json"
    shadowed.write_text(json.dumps({"nmax": "3"}))  # a flag replaces it
    # ranges that empty a sweep after others, checked before any output
    empty = []
    for i, ranges in enumerate([{"p_hi": 1}, {"lo": 5, "hi": 2}, {"hi": -1}]):
        empty.append(tmp_path / f"empty{i}.json")
        empty[-1].write_text(json.dumps(ranges))
    for argv, message in [
        (("compute", "dvec", "--p", "2", "--pairs", "1"),
         "pair '1' must be two integers"),
        (("compute", "char-coinv", "--p", "2", "--r", "0", "--site", "1"),
         "site must start with 'plus,minus'"),
        (("verify", "tb", "--p", "4..2"), "empty range '4..2'"),
        (("verify", "tb", "--config", str(config)),
         "config file must hold a JSON object"),
        (("verify", "tb", "--nmax", "2", "--config", str(shadowed)),
         "config option 'nmax' must be an integer"),
        (("verify", "all", "--config", str(empty[0])),
         "sweep for 'ta' is empty"),
        (("verify", "all", "--config", str(empty[1])),
         "sweep for 'knuth' is empty"),
        (("verify", "all", "--config", str(empty[2])),
         "sweep for 'knuth' is empty"),
        # a report path that cannot be written fails before the first sweep
        (("verify", "pascal", "--report", str(tmp_path / "missing" / "r.json")),
         f"[Errno {errno.ENOENT}]"),
        (("verify", "pascal", "--report", str(tmp_path)),
         f"[Errno {errno.EISDIR}]"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_module_entry_point_runs_main_in_a_new_process(capsys):
    # `python -m qchar.cli` exits with main's code and prints its bytes
    env = dict(os.environ, PYTHONPATH=str(Path(qchar.__file__).parents[1]))

    def run(*argv):
        done = subprocess.run([sys.executable, "-m", "qchar.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        return done.returncode, done.stdout, done.stderr

    argv = ("compute", "qbin", "--n", "4", "--m", "2")
    assert run(*argv) == run_cli(capsys, *argv)
    code, out, err = run("verify", "tb", "--p", "3..2")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_start_up_and_serial_sweep_load_no_process_pool():
    # the import loads no dataclasses and no sweeps, compute loads no sweeps,
    # and the pool machinery loads only when a sweep forks workers
    env = dict(os.environ, PYTHONPATH=str(Path(qchar.__file__).parents[1]))
    code = ("import sys, qchar, qchar.cli\n"
            "def loaded(*names):\n"
            "    print([m for m in sys.modules if m.startswith(names)])\n"
            "loaded('dataclasses', 'inspect', 'qchar.verify')\n"
            "qchar.cli.main(['compute', 'qbin', '--n', '4', '--m', '2'])\n"
            "loaded('qchar.verify')\n"
            "print(qchar.cli.main(['verify', 'pascal', '--jobs', '1']))\n"
            "loaded('qchar.verify', 'multiprocessing', 'concurrent.futures')")
    done = subprocess.run([sys.executable, "-s", "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()  # compute and verify print between
    assert (lines[0], lines[2], lines[-2:]) == ("[]", "[]",
                                                ["0", "['qchar.verify']"])


def test_cli_imports_no_private_name_from_verify():
    # the option rules live in verify alone: the CLI parses and calls
    # verify.check, and no other module reads the registry or _sweep
    src = Path(qchar.__file__).parent
    imported = []
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom)
                    and node.module in ("verify", "qchar.verify")):
                imported += [(path.name, alias.name) for alias in node.names]
            if path.name != "verify.py":
                name = getattr(node, "id", getattr(node, "attr", None))
                assert name not in ("_REGISTRY", "_sweep"), path.name
    assert ("cli.py", "check") in imported
    assert [pair for pair in imported if pair[1].startswith("_")] == []


def test_verify_single_p_runs_that_p(capsys):
    code, out, _ = run_cli(capsys, "verify", "tb", "--p", "3", "--nmax", "1")
    assert code == 0
    cases = verify._cases_tb({"p_lo": 3, "p_hi": 3, "nmax": 1, "margin": 2})
    assert {case[0] for case in cases} == {3}
    assert out == f"tb: {len(cases)} cases, 0 failures\n"


@pytest.mark.parametrize("argv, text, latex", [
    (("compute", "qbin", "--n", "4", "--m", "2"),
     "1 + q + 2*q^2 + q^3 + q^4", "1 + q^{1} + 2 q^{2} + q^{3} + q^{4}"),
    (("compute", "char-coinv", "--p", "2", "--r", "1", "--site", "1,1;1"),
     "z^(-1/2) q^(1/4) * (1 + q^2*z^(-1))",
     "z^{-1/2} q^{1/4} \\left( 1 + q^{2} z^{-1} \\right)"),
    (("compute", "dvec", "--p", "2", "--pairs", "1,0;1,0"), "2 2", None),
])
def test_compute_text_and_latex_formats(capsys, argv, text, latex):
    for fmt, want in (("text", text), ("latex", latex)):
        if want is not None:
            assert run_cli(capsys, *argv, "--format", fmt) == (0, want + "\n", "")


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


def _library_refuses(identity, options, err):
    """run_identity refuses options, for the identity or for the first of
    all that does, with the line the CLI printed to stderr."""
    names = verify.ALL_IDENTITIES if identity == "all" else (identity,)
    with pytest.raises(ValueError) as refused:
        for name in names:
            verify.run_identity(name, options)
    assert f"error: {refused.value}\n" == err


@pytest.mark.parametrize("value", ["3", True, 3.0, None, [3]])
def test_verify_config_rejects_non_integer_values(capsys, tmp_path, value):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"nmax": value}))
    code, out, err = run_cli(capsys, "verify", "tb", "--config", str(config))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    _library_refuses("tb", {"nmax": value}, err)


@pytest.mark.parametrize("source", ["flag", "config", "library"])
@pytest.mark.parametrize(
    "identity, key", [("rec", "count"), ("rec", "amax"), ("rec", "entry_max"),
                      ("ta", "margin"), ("tb", "nmax"), ("pascal", "window"),
                      ("rdc", "bound"), ("knuth", "awin"), ("all", "nmax"),
                      ("all", "awin")]
)
def test_verify_rejects_negative_sweep_options(capsys, tmp_path, source,
                                               identity, key):
    # each would otherwise run a smaller sweep and exit 0, or an empty one and
    # exit 2; all would first print the lines of the sweeps before it
    if source == "flag":
        flag = "range" if key == "awin" else key  # --range N sets awin = N
        argv = ["--" + flag.replace("_", "-"), "-1"]
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: -1}))
        argv = ["--config", str(config)]
    code, out, err = run_cli(capsys, "verify", identity, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if source == "library":  # the config's dict, passed to run_identity
        _library_refuses(identity, {key: -1}, err)


@pytest.mark.parametrize("source", ["flag", "config", "library"])
@pytest.mark.parametrize("identity", ["char-eq", "ta"])
def test_verify_rejects_p_below_2(capsys, tmp_path, source, identity):
    # char-eq would otherwise fail with an error naming no option, and ta
    # would quietly drop p = 0 and p = 1 and exit 0
    if source == "flag":
        argv = ["--p", "0..2"]
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"p_lo": 1}))
        argv = ["--config", str(config)]
    code, out, err = run_cli(capsys, "verify", identity, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "p_lo" in err and "--p" in err
    if source == "library":  # the config's dict, passed to run_identity
        _library_refuses(identity, {"p_lo": 1}, err)


@pytest.mark.parametrize("identity, flags, config", [
    ("rdc", ["--p", "5..6", "--nmax", "3"], None),
    ("rdc", ["--seed", "3"], None),
    ("char-eq", [], {"nmax": 0, "margin": 9}),
    ("tb", ["--nmax", "2"], {"window": 3}),
    ("all", [], {"nmax": 2, "margn": 0}),
    ("all", ["--seed", "3"], {"p_hi": 2, "bound": 2, "awin": 2, "typo": 1}),
    ("tb", None, {"nmax": 2, "margn": 0}),  # also passed to run_identity
])
def test_verify_rejects_options_no_identity_takes(capsys, tmp_path, identity,
                                                  flags, config):
    # each would otherwise be dropped, and the default sweep would run and
    # exit 0; for all, an option is taken when some identity takes it
    argv = list(flags or ())
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    code, out, err = run_cli(capsys, "verify", identity, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if flags is None:  # the library input: a key that no identity takes
        _library_refuses(identity, config, err)


def _corrupt_x31(monkeypatch):
    # X(3, 1) = 1 + q in the packed binomial table verify reads: it drops
    # the q^2 term of [3 choose 1]
    real = verify._packed
    monkeypatch.setattr(verify, "_packed", lambda n, m, width: (
        _pack([1, 1], width) if (n, m) == (3, 1) else real(n, m, width)))


def test_corrupted_engine_is_caught(capsys, monkeypatch):
    # a deliberately wrong extended binomial must produce a counterexample
    _corrupt_x31(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "knuth", "--range", "3")
    assert code == 1
    assert "counterexample" in out


def _terms(*triples):
    """A BiLaurent payload as JSON: (q, z, c) with q and c as strings."""
    return {"terms": [{"q": q, "z": z, "c": c} for q, z, c in triples]}


def _counterexample_stdout(header, params, lhs, rhs):
    return (f"{header}\ncounterexample {json.dumps(params)}\n"
            f"  lhs: {json.dumps(lhs)}\n  rhs: {json.dumps(rhs)}\n")


def test_corrupted_pascal_binomial_pins_the_id_payload(capsys, monkeypatch):
    # X(2, 1) off by 1: the first failing case is its own, whose rhs is the
    # dict of both recurrences
    real = verify.qbinomial_ext
    monkeypatch.setattr(verify, "qbinomial_ext", lambda n, m: real(n, m) + (
        BiLaurent.one() if (n, m) == (2, 1) else BiLaurent.zero()))
    code, out, _ = run_cli(capsys, "verify", "pascal", "--window", "2")
    assert code == 1
    one_plus_q = _terms(("0", 0, "1"), ("1", 0, "1"))
    assert out == _counterexample_stdout(
        "pascal: 26 cases, 2 failures", {"case": "id", "n": 2, "m": 1},
        _terms(("0", 0, "2"), ("1", 0, "1")),
        {"first": one_plus_q, "second": one_plus_q})


def test_corrupted_regenerated_table_pins_the_regen_payload(capsys,
                                                            monkeypatch):
    real = verify.regenerate_ext_table

    def corrupted(window):
        table = real(window)
        table[1, 0] = table[1, 0] + BiLaurent.term(1, 1)
        return table

    monkeypatch.setattr(verify, "regenerate_ext_table", corrupted)
    code, out, _ = run_cli(capsys, "verify", "pascal", "--window", "1")
    assert code == 1
    assert out == _counterexample_stdout(
        "pascal: 10 cases, 1 failures", {"case": "regen", "n": 1, "m": 0},
        _terms(("0", 0, "1"), ("1", 0, "1")), _terms(("0", 0, "1")))


def test_corrupted_rdc_factor_pins_the_payload(capsys, monkeypatch):
    # X(1, 1) = 1 + q in the packed factor the kernel reads: the lhs
    # X(1,1)^2 and the one-term rhs differ
    real = verify._packed
    monkeypatch.setattr(verify, "_packed", lambda n, m, width: (
        _pack([1, 1], width) if (n, m) == (1, 1) else real(n, m, width)))
    code, out, _ = run_cli(capsys, "verify", "rdc", "--bound", "1")
    assert code == 1
    assert out == _counterexample_stdout(
        "rdc: 81 cases, 1 failures", {"N": 1, "M": 1, "n": 1, "m": 1},
        _terms(("0", 0, "1"), ("1", 0, "2"), ("2", 0, "1")),
        _terms(("0", 0, "1"), ("1", 0, "1")))


def test_corrupted_knuth_binomial_pins_the_payload(capsys, monkeypatch):
    # both sides read the corrupted table.  The first failure is (M, S, a)
    # = (-2, 3, -3), whose whole lhs X(-2, -2) X(3, 1) q^-2 loses its 1
    # against the rhs X(1, 0).  Of the 553 cases, 53 read X(3, 1) on the
    # lhs and 7 on the rhs; all fail but (3, 0, 1), whose two sides are
    # X(3, 1) alone
    _corrupt_x31(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "knuth", "--range", "3")
    assert code == 1
    assert out == _counterexample_stdout(
        "knuth: 553 cases, 58 failures", {"M": -2, "S": 3, "a": -3},
        _terms(), _terms(("0", 0, "1")))


def _rdc_sides_brute(big_n, big_m, n, m):
    """Both sides of rdc as {exponent: coefficient}, from the box-counted
    binomials multiplied term by term, the sum over every l at which no
    factor vanishes (0 <= b <= t or b <= t < 0 for X(t, b))."""
    lhs = poly_mul_brute(ext_binomial_brute(big_n, n),
                         ext_binomial_brute(big_m, m))
    rhs: dict = {}
    reach = 2 * sum(map(abs, (big_n, big_m, n, m))) + 2
    for l in range(-reach, reach + 1):
        pairs = ((big_n - m, n - l), (big_m - n, m - l),
                 (big_n + big_m - n - m + l, l))
        if not all(0 <= b <= t or b <= t < 0 for t, b in pairs):
            continue
        first, second, third = (ext_binomial_brute(*pair) for pair in pairs)
        product = poly_mul_brute(poly_mul_brute(first, second), third)
        for e, coeff in product.items():
            e += (n - l) * (m - l)
            rhs[e] = rhs.get(e, 0) + coeff
    return lhs, {e: c for e, c in rhs.items() if c}


@pytest.mark.parametrize("case", [(19, 20, 3, 17), (15, 18, 11, 3),
                                  (-4, -4, -24, -24), (-15, 30, -19, 2),
                                  (30, -15, 2, -19)])
def test_rdc_sides_unpack_to_the_brute_products(case):
    # coefficients past 2^15, each at a width where one byte less would not
    # hold the largest of them, on standard, reflected and mixed factors
    width, low, lhs, rhs = verify._packed_sides(verify._rdc_products(*case))
    want = _rdc_sides_brute(*case)
    assert [_unpack_qdict(side, width, low) for side in (lhs, rhs)] == list(want)
    assert want[0] == want[1]
    top = max(map(abs, want[0].values()))
    assert 2**15 < top and top.bit_length() >= 8 * (width - 1)


def _knuth_sides_brute(big_m, big_s, a):
    """Both sides of knuth as {exponent: coefficient}, from the box-counted
    binomials multiplied term by term, the lhs summed over a range of k
    that holds every k at which neither factor vanishes."""
    lhs: dict = {}
    reach = abs(big_m) + abs(big_s) + abs(a)
    for k in range(-reach, reach + 1):
        first = ext_binomial_brute(big_m, a + k)
        if not first:  # the second factor need not be counted
            continue
        product = poly_mul_brute(first, ext_binomial_brute(big_s, k))
        for e, coeff in product.items():
            e += k * k + a * k
            lhs[e] = lhs.get(e, 0) + coeff
    return ({e: c for e, c in lhs.items() if c},
            ext_binomial_brute(big_m + big_s, big_s + a))


@pytest.mark.parametrize("case", [(13, 13, -5), (-1, 27, -9)])
def test_knuth_sides_unpack_to_the_brute_products(case):
    # coefficients past 2^15, each at a width where one byte less would not
    # hold the largest of them, on standard and reflected (M < 0) factors
    width, low, lhs, rhs = verify._packed_sides(verify._knuth_products(*case))
    want = _knuth_sides_brute(*case)
    assert [_unpack_qdict(side, width, low) for side in (lhs, rhs)] == list(want)
    assert want[0] == want[1]
    top = max(map(abs, want[0].values()))
    assert 2**15 < top and top.bit_length() >= 8 * (width - 1)


def test_corrupted_fermionic_sum_pins_the_rec_main_payload(capsys,
                                                           monkeypatch):
    # 1 added to every lattice sum of a site: the padding cases still hold,
    # and the first cutoff step, chi(0, 1) = chi(-1, 1) + q^-1 z chi(-2, 2)
    # at p = 2, reads 2 against 2 + q^-1 z
    real = verify.fermionic_sum
    monkeypatch.setattr(verify, "fermionic_sum",
                        lambda site: real(site) + BiLaurent.one())
    code, out, _ = run_cli(capsys, "verify", "rec", "--entry-max", "0",
                           "--amax", "0", "--count", "1")
    assert code == 1
    assert out == _counterexample_stdout(
        "rec: 211 cases, 93 failures",
        {"case": "main", "p": 2, "d": 0, "plus": 0, "minus": 1, "levels": [],
         "a": 0},
        _terms(("0", 0, "2")),
        _terms(("-1", 1, "1"), ("0", 0, "2")))


def test_corrupted_lattice_sum_pins_the_rec_diag_payload(capsys, monkeypatch):
    # lattice_sum is called by the diag cases alone; with 1 added, the step
    # chi(3) = chi(2) + q^(3 - 1/2 - 3/2) z^-1 chi(0) for A = (3), u = -1,
    # v = -1/2 gains one more q z^-1 on the right
    real = verify.lattice_sum
    monkeypatch.setattr(verify, "lattice_sum", lambda data, nvec, box: (
        real(data, nvec, box) + BiLaurent.one()))
    code, out, _ = run_cli(capsys, "verify", "rec", "--entry-max", "0",
                           "--amax", "0", "--count", "1", "--seed", "39")
    assert code == 1
    assert out == _counterexample_stdout(
        "rec: 211 cases, 1 failures",
        {"case": "diag", "diag": [3], "N": [3], "u": [-1], "v2": [-1], "a": 0},
        _terms(("0", 0, "2"), ("1", -1, "1")),
        _terms(("0", 0, "2"), ("1", -1, "2")))


def test_corrupted_character_pins_the_flow_payload(capsys, monkeypatch):
    # 1 added to every character polynomial: at the site (0, 0; 0) the
    # flowed side reads 1 + qz and the flow of the plain side 2qz
    real = characters.supernomial_char_poly
    monkeypatch.setattr(characters, "supernomial_char_poly",
                        lambda r, site: real(r, site) + BiLaurent.one())
    lhs = _terms(("0", 0, "1"), ("1", 1, "1"))
    rhs = _terms(("1", 1, "2"))
    assert characters.spectral_flow_check(0, SiteVector(2, 0, 0, (0,))) == (
        False, {"p": 2, "r": 0, "mult": [0, 0], "minus": 0,
                "lhs": lhs, "rhs": rhs})
    code, out, _ = run_cli(capsys, "verify", "flow", "--p", "2",
                           "--entry-max", "0")
    assert code == 1
    assert out == _counterexample_stdout(
        "flow: 2 cases, 2 failures",
        {"p": 2, "r": 0, "plus": 0, "minus": 0, "levels": [0]}, lhs, rhs)


def test_corrupted_dimension_route_pins_the_dims_payload(capsys, monkeypatch):
    real = verify.dims_via_supernomial
    monkeypatch.setattr(verify, "dims_via_supernomial",
                        lambda r, site: real(r, site) + 1)
    code, out, _ = run_cli(capsys, "verify", "dims", "--p", "2",
                           "--entry-max", "0")
    assert code == 1
    assert out == _counterexample_stdout(
        "dims: 2 cases, 2 failures",
        {"p": 2, "r": 0, "plus": 0, "minus": 0, "levels": [0]},
        {"character": 1, "supernomial": 2, "fusion": 1}, None)


def test_wrong_balanced_sum_is_caught(capsys, monkeypatch):
    # ta must report a counterexample at a balanced site when the two sides
    # of the identity differ
    real = verify.supernomial_lattice_side
    monkeypatch.setattr(verify, "supernomial_lattice_side",
                        lambda site: real(site) + BiLaurent.one())
    code, out, _ = run_cli(capsys, "verify", "ta", "--p", "2..2", "--nmax", "1",
                           "--margin", "0")
    assert code == 1
    first = next(text for text in out.splitlines()
                 if text.startswith("counterexample "))
    params = json.loads(first.removeprefix("counterexample "))
    assert verify._is_balanced(params["p"], params["d"], params["plus"],
                               params["minus"], tuple(params["levels"]))


def test_tb_after_ta_reports_the_failures_of_the_shared_cases(
        capsys, monkeypatch, tmp_path):
    # under all, tb reads the results of ta's cases from ta: its failures,
    # their count and the first counterexample are those of tb alone
    real = verify.fermionic_sum
    monkeypatch.setattr(verify, "fermionic_sum", lambda site: real(site) + (
        BiLaurent.one() if site.plus + site.minus == 2 else BiLaurent.zero()))
    ranges = ("--p", "2..3", "--nmax", "3", "--margin", "1")
    _, alone, _ = run_cli(capsys, "verify", "tb", *ranges)
    config = dict(SMALL_SWEEPS, p_hi=3, nmax=3, margin=1)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "verify", "all", "--config", str(path))
    assert code == 1
    tb = out[out.index("\ntb: ") + 1:]
    assert tb[:tb.index("\nrec: ") + 1] == alone
    ta = out[out.index("\nta: ") + 1:]
    assert int(ta.split()[3]) > 0  # ta failed on some of the shared cases


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
        raise RuntimeError("checker failed")

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
        with verify.WorkerPool(10**6) as pool:
            report = verify.run_identity("knuth", pool=pool)
        assert (report.cases, report.failures) == (ncases, [])
        return pools

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
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


def test_verify_all_takes_an_option_of_any_identity(capsys, tmp_path):
    # --seed is an option of rec alone, window of pascal alone
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(SMALL_SWEEPS))
    code, out, _ = run_cli(capsys, "verify", "all", "--seed", "3",
                           "--config", str(config))
    assert code == 0
    assert out.count(" cases, 0 failures\n") == len(verify.ALL_IDENTITIES)


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
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(SMALL_SWEEPS))
    code, _, _ = run_cli(capsys, "--jobs", "2", "verify", "all",
                         "--config", str(config))
    assert code == 0
    assert pools == [2]
    assert len(maps) == len(verify.ALL_IDENTITIES)
    assert len(set(map(id, maps))) == 1


def _logging_executor(log):
    """A fake ProcessPoolExecutor that checks each case in-process as its
    result is read, and logs ("map", k, cases) when sweep k is submitted,
    ("read", k) when its first result is taken and ("done", k) when its
    last one is."""

    class FakePool:
        def __init__(self, max_workers):
            log.append(("open", max_workers))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cases, chunksize):
            k = sum(event[0] == "map" for event in log)
            log.append(("map", k, len(cases)))

            def results():
                log.append(("read", k))
                for i, case in enumerate(cases, 1):
                    if i == len(cases):
                        log.append(("done", k))
                    yield fn(case)

            return results()

    return FakePool


def _verify_all_on_a_logging_executor(capsys, monkeypatch, *argv):
    log = []
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _logging_executor(log))
    code, out, _ = run_cli(capsys, "--jobs", "2", "verify", "all", *argv)
    assert code == 0
    return log, out


def test_verify_all_submits_each_sweep_before_it_reads_the_last(
        capsys, monkeypatch, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(SMALL_SWEEPS))
    log, _ = _verify_all_on_a_logging_executor(capsys, monkeypatch,
                                               "--config", str(config))
    events = [event[:2] for event in log]
    sweeps = len(verify.ALL_IDENTITIES)
    assert sorted(k for kind, k in events if kind == "map") == list(range(sweeps))
    for k in range(sweeps - 1):
        assert events.index(("map", k + 1)) < events.index(("read", k))
    # one sweep ahead, never more: at most two submitted and not done
    held = list(itertools.accumulate(
        {"map": 1, "done": -1}.get(kind, 0) for kind, _ in events))
    assert max(held) == 2 and held[-1] == 0


def test_verify_all_checks_each_shared_case_once(capsys, monkeypatch):
    # ta's cases are tb's balanced ones, and both use one checker: tb hands
    # the workers only the 1335 - 569 cases that ta did not check; rdc and
    # rec go to them in several windows
    log, out = _verify_all_on_a_logging_executor(capsys, monkeypatch)
    lines = dict(line.split(": ") for line in out.splitlines())
    assert (lines["ta"], lines["tb"]) == ("569 cases, 0 failures",
                                          "1335 cases, 0 failures")
    reported = sum(int(text.split()[0]) for text in lines.values())
    mapped = [event[2] for event in log if event[0] == "map"]
    assert max(mapped) <= verify._WINDOW
    assert reported == 25157
    assert sum(mapped) == 24588 == reported - 569


@pytest.mark.parametrize("jobs, windows", [(1, 1), (2, 3)])
def test_sweep_generates_its_cases_a_bounded_lead_ahead_of_the_checks(
        monkeypatch, jobs, windows):
    # pascal becomes a sweep of 200,000 ints; "lead" is the largest lead,
    # over every generation of its cases, of cases generated over cases
    # checked.  The pool is _logging_executor's, which checks each case
    # in-process as its result is read
    seen = {"checked": 0, "lead": 0, "pulled": 0}

    def cases(opts):
        for pulled, case in enumerate(range(200_000), 1):
            seen["lead"] = max(seen["lead"], pulled - seen["checked"])
            seen["pulled"] += 1
            yield case

    def check(case):
        seen["checked"] += 1

    log = []
    monkeypatch.setitem(verify._REGISTRY, "pascal", (cases, check, {}))
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _logging_executor(log))
    assert verify.check("pascal") == ("pascal",)
    assert seen["pulled"] == 1  # the check generates the first case only
    with verify.WorkerPool(jobs) as pool:
        report = verify.run_identity("pascal", pool=pool)
    assert (report.cases, report.failures) == (200_000, [])
    assert seen["checked"] == 200_000
    assert verify._WINDOW <= seen["lead"] <= windows * verify._WINDOW
    # the pool opens, then each window is mapped, read and done
    windows_mapped = -(-200_000 // verify._WINDOW)
    assert len(log) == (0 if jobs == 1 else 1 + 3 * windows_mapped)


def _odd_cases_fail(case):
    # top-level, so that pool workers can unpickle it
    return {"params": {"case": case}, "lhs": 1, "rhs": 0} if case % 2 else None


def _cases_past_three_fail(case):
    return {"params": {"case": case}, "lhs": 1, "rhs": 0} if case > 3 else None


def test_pool_reopened_while_a_sweep_is_held_returns_every_result(
        monkeypatch):
    # the first sweep opens two real workers and is still held when the
    # second, with more cases, reopens the pool with three
    opened = []
    real = concurrent.futures.ProcessPoolExecutor

    class Recording(real):
        def __init__(self, max_workers):
            opened.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setitem(verify._REGISTRY, "pascal",
                        (lambda opts: [1, 2], _odd_cases_fail, {}))
    monkeypatch.setitem(verify._REGISTRY, "rdc",
                        (lambda opts: list(range(40)), _cases_past_three_fail,
                         {}))
    with verify.WorkerPool(3) as pool:
        first = verify.run_identity("pascal", pool=pool, ahead="rdc")
        second = verify.run_identity("rdc", pool=pool)
    assert opened == [2, 3]
    assert [f["params"]["case"] for f in first.failures] == [1]
    assert [f["params"]["case"] for f in second.failures] == list(range(4, 40))


def test_verify_unknown_identity_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "nonsense")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'nonsense'" in err
    assert all(key in err for key in verify.ALL_IDENTITIES + ("all",))


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


_ARG = st.integers(-2, 5)
_MOSTLY = st.sampled_from((True, True, True, True, False))


@st.composite
def _cli_runs(draw):
    """(argv, config): a compute or verify command line with small values,
    every option written as --flag=value, and for verify a --config dict
    that sets each option the chosen identities take (so every sweep stays
    small), now and then to -1 or with a key no identity takes."""
    if draw(st.booleans()):
        argv = ["compute", draw(st.sampled_from(qchar.cli.COMPUTE_OBJECTS))]
        for flag in ("n", "m", "a", "p", "r", "qmax", "zwin"):
            if draw(_MOSTLY):
                argv.append(f"--{flag}={draw(_ARG)}")
        ints = st.lists(st.integers(-1, 3), max_size=4).map(
            lambda v: ",".join(map(str, v)))
        for flag, text in (("L", ints), ("site", st.tuples(ints, ints)),
                           ("pairs", st.tuples(ints, ints))):
            if draw(_MOSTLY):
                value = draw(text)
                argv.append(f"--{flag}={value if flag == 'L' else ';'.join(value)}")
        route = draw(st.sampled_from(("supernomial", "fermionic")))
        return argv + ["--route", route], None
    identity = draw(st.sampled_from(verify.ALL_IDENTITIES + ("all",)))
    names = verify.ALL_IDENTITIES if identity == "all" else (identity,)
    keys = sorted(set().union(*(verify._REGISTRY[n][2] for n in names)))
    value = st.sampled_from((1, 2, 0, 3, 2, 1, 2, -1))
    p_end = st.sampled_from((2, 3, 2, 1))
    config = draw(st.fixed_dictionaries(
        {key: p_end if key.startswith("p_") else value for key in keys}))
    if not draw(_MOSTLY):
        config["typo"] = 0
    argv = ["verify", identity]
    if not draw(_MOSTLY):
        argv.append(f"--p={draw(st.integers(1, 3))}..{draw(st.integers(1, 3))}")
    if not draw(_MOSTLY):
        argv.append(f"--nmax={draw(_ARG)}")
    return argv, config


# inputs past the default recursion limit of 1,000 frames: 1,201 chain
# positions, and 1,199 level coordinates on both routes.  Hypothesis raises
# the limit while it runs a test, so only test_deep_inputs_compute_one runs
# them under the default limit.
_DEEP_RUNS = (
    ["compute", "qsup", "--L=" + "0," * 1200 + "1", "--a=1"],
    ["compute", "char-coinv", "--p=1200", "--r=0",
     "--site=0,0;" + ",".join("0" * 1199), "--route=supernomial"],
    ["compute", "char-coinv", "--p=1200", "--r=0",
     "--site=0,0;" + ",".join("0" * 1199), "--route=fermionic"],
)


@pytest.mark.parametrize("argv", _DEEP_RUNS, ids=["qsup", "coinv-s", "coinv-f"])
def test_deep_inputs_compute_one(capsys, argv):
    # each value is 1, computed with no frame per entry or coordinate
    assert sys.getrecursionlimit() == 1000
    code, out, err = run_cli(capsys, *argv, "--format", "text")
    assert (code, err) == (0, "")
    assert out == ("1\n" if argv[1] == "qsup" else "z^(0) q^(0) * (1)\n")


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_cli_runs())
@example((_DEEP_RUNS[0], None))
@example((_DEEP_RUNS[1], None))
@example((_DEEP_RUNS[2], None))
@example((["verify", "all"], {"p_hi": 1}))
@example((["verify", "all"], {"lo": 5, "hi": 2}))
@example((["verify", "all"], {"hi": -1}))
def test_cli_exits_0_or_2_and_an_error_prints_one_line_and_no_output(run):
    # 1 means a counterexample and 3 an internal error; neither may come
    # from these inputs, and an exit 2 prints no result line before it
    argv, config = run
    argv = argv + ["--jobs", "1"]
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2), (argv, config, code, err.getvalue())
    if code == 2:
        assert out.getvalue() == "", (argv, config)
        assert err.getvalue().startswith("error: "), (argv, config)
        assert err.getvalue().count("\n") == 1, (argv, config)


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


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_all_stdout_matches_recorded_digest(capsys, jobs):
    # the determinism contract: default sweeps print the recorded bytes,
    # serially and through the worker pool
    expected = json.loads(EXPECTED.read_text())["verify-all"]["stdout_sha256"]
    code, out, _ = run_cli(capsys, "verify", "all", "--jobs", jobs)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def test_every_traced_helper_is_present():
    # the benchmark's traced run reports one metric per helper it wraps; a
    # helper that was renamed or removed would drop its metrics
    tracer = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), vars(tracer))
    t = tracer.Tracer()
    try:
        t.install()
        assert t.absent == []
        for mod, attr, _ in tracer.GENERATORS:
            fn = getattr(importlib.import_module(f"qchar.{mod}"), attr)
            assert inspect.isgeneratorfunction(inspect.unwrap(fn))
    finally:
        t.uninstall()


def _memo_tables_in_src():
    """module.name of every module-level dict named _UPPER and every
    functools cache (module functions and class attributes) in qchar."""
    # constant configuration, filled at import and never written: the
    # identity registry of verify (which a verify command reads) and cli's
    # defaults
    constants = {"_REGISTRY", "_GLOBAL_DEFAULTS"}
    found = set()
    for info in pkgutil.iter_modules(qchar.__path__):
        module = importlib.import_module(f"qchar.{info.name}")
        for attr, value in vars(module).items():
            name = f"{info.name}.{attr}"
            if isinstance(value, dict):
                if re.fullmatch(r"_[A-Z][A-Z0-9_]*", attr) and attr not in constants:
                    found.add(name)
            elif getattr(value, "__module__", None) != module.__name__:
                continue  # imported from another module, or a builtin
            elif hasattr(value, "cache_info"):
                found.add(name)
            elif isinstance(value, type):
                found.update(
                    f"{name}.{key}" for key, member in vars(value).items()
                    if hasattr(getattr(member, "__func__", member), "cache_info"))
    return found


def _readme_memo_tables():
    """The names in the first column of README's memo table; a name without
    a module takes the module of the name before it in its cell."""
    modules = {info.name for info in pkgutil.iter_modules(qchar.__path__)}
    rows = README.read_text().split("Memo tables.", 1)[1].split("\n\n")[1]
    names = set()
    for row in rows.splitlines()[2:]:
        module = None
        for name in re.findall(r"`([^`]+)`", row.split("|")[1]):
            if name.split(".")[0] in modules:
                module = name.split(".")[0]
            else:
                assert module, f"no module for {name!r} in: {row}"
                name = f"{module}.{name}"
            names.add(name)
    return names


def test_readme_lists_every_memo_table():
    listed = _readme_memo_tables()
    assert _memo_tables_in_src() <= listed
    for name in listed:  # every row names a memo table that exists
        module, *path = name.split(".")
        obj = importlib.import_module(f"qchar.{module}")
        for attr in path:
            obj = getattr(obj, attr)
        # a functools cache, or a module-level dict; a row left behind
        # when a function stops keeping a table fails here
        assert (hasattr(getattr(obj, "__func__", obj), "cache_info")
                or (isinstance(obj, dict) and len(path) == 1)), name


def test_every_memo_is_bounded(cold_memos):
    # every functools cache has a finite bound, and the one module-level memo
    # dict is the level table, which keeps the sums of one level key
    dicts = set()
    for name in _memo_tables_in_src():
        module, *path = name.split(".")
        obj = importlib.import_module(f"qchar.{module}")
        for attr in path:
            obj = getattr(obj, attr)
        if isinstance(obj, dict):
            dicts.add(name)
        else:
            assert obj.cache_parameters()["maxsize"] is not None, name
    assert dicts == {"fermionic._LEVELS"}
    # a chain evicted by later vectors L is freed, and every node with it
    module = importlib.import_module("qchar.supernomial")
    supernomial((1, 1), 1)
    first = weakref.ref(module._chain((1, 1)))
    for k in range(2, 3 * module._CHAINS + 2):
        supernomial((k, 1), 1)
    assert first() is None


def test_verify_tb_default_sweep_size(capsys):
    code, out, _ = run_cli(capsys, "verify", "tb", "--p", "2..4", "--nmax", "5")
    assert code == 0
    cases = int(out.split(":")[1].split("cases")[0].strip())
    assert cases >= 1000

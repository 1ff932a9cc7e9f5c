"""Command-line front end.

    qchar compute <object> [params]   -- compute one value, print it
    qchar verify <identity> [ranges]  -- sweep an identity, exit 0/1

Output is deterministic: identical invocations produce byte-identical
stdout (timings go only into the report file, never to stdout), and
parallel sweeps merge results in case order.

Exit codes: 0 success, 1 counterexample found, 2 usage / malformed input,
3 internal error (one `internal error: <Type>: <message>` line on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys

from .laurent import BiLaurent
from .qbinom import qbinomial, qbinomial_ext
from .supernomial import SiteVector, supernomial
from .fusion import fusion_dims
from .characters import (
    CharacterValue,
    coinv_char_fermionic,
    coinv_char_supernomial,
    rep_character,
)

__all__ = ["main"]

COMPUTE_OBJECTS = ("qbin", "qbin-plus", "qsup", "dvec", "char-rep", "char-coinv")


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(x) for x in text.split(","))


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = _parse_int_list(chunk)
        if len(parts) != 2:
            raise ValueError(f"pair {chunk!r} must be two integers i,j")
        pairs.append((parts[0], parts[1]))
    return pairs


def _parse_site(text: str, p: int) -> SiteVector:
    head, _, tail = text.partition(";")
    signs = _parse_int_list(head)
    if len(signs) != 2:
        raise ValueError("site must start with 'plus,minus'")
    levels = _parse_int_list(tail)
    return SiteVector(p, signs[0], signs[1], levels)


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
    else:
        lo = hi = int(text)
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def _render_poly(poly: BiLaurent, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(poly.to_json_obj())
    if fmt == "latex":
        return poly.to_latex()
    return str(poly)


def _render_char(value: CharacterValue, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(value.to_json_obj())
    if fmt == "latex":
        return (
            f"z^{{{value.z_shift}}} q^{{{value.q_shift}}} "
            f"\\left( {value.poly.to_latex()} \\right)"
        )
    return f"z^({value.z_shift}) q^({value.q_shift}) * ({value.poly})"


_GLOBAL_DEFAULTS = {"format": "json", "jobs": 1, "report": None, "seed": None}


def _build_parser() -> argparse.ArgumentParser:
    # global flags work both before and after the subcommand; SUPPRESS keeps
    # a post-subcommand default from clobbering a pre-subcommand value
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "latex", "text"),
        default=argparse.SUPPRESS, help="output format for computed values",
    )
    common.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                        help="worker processes for verification sweeps")
    common.add_argument("--report", default=argparse.SUPPRESS,
                        help="write a JSON report to this path")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for the randomized parts of sweeps")

    parser = argparse.ArgumentParser(
        prog="qchar",
        description="exact q-series computations and identity verification",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="compute one object", parents=[common])
    comp.add_argument("object", choices=COMPUTE_OBJECTS)
    comp.add_argument("--n", type=int)
    comp.add_argument("--m", type=int)
    comp.add_argument("--L", help="comma-separated supernomial entries")
    comp.add_argument("--a", type=int)
    comp.add_argument("--p", type=int)
    comp.add_argument("--r", type=int)
    comp.add_argument("--pairs", help="semicolon-separated 'i,j' pairs")
    comp.add_argument("--site", help="site vector 'plus,minus;l0,l1,...'")
    comp.add_argument("--qmax", type=int)
    comp.add_argument("--zwin", type=int)
    comp.add_argument("--route", choices=("supernomial", "fermionic"),
                      default="supernomial")

    ver = sub.add_parser("verify", help="sweep an identity", parents=[common])
    ver.add_argument("identity", help="an identity key, or all")
    ver.add_argument("--p", help="p range, e.g. 2..4")
    ver.add_argument("--nmax", type=int, help="bound on N_+ + N_-")
    ver.add_argument("--margin", type=int,
                     help="how far the sign cutoffs may go negative")
    ver.add_argument("--window", type=int, help="index window (pascal)")
    ver.add_argument("--bound", type=int, help="index bound (rdc)")
    ver.add_argument("--range", dest="range_", type=int, metavar="RANGE",
                     help="index window (knuth)")
    ver.add_argument("--entry-max", type=int,
                     help="bound on site entries (char-eq, flow, dims)")
    ver.add_argument("--amax", type=int, help="argument window (rec)")
    ver.add_argument("--count", type=int, help="randomized case count (rec)")
    ver.add_argument("--config", help="JSON file with sweep options")
    return parser


def _require(args, names) -> None:
    missing = [n for n in names if getattr(args, n.lstrip("-").replace("-", "_"),
                                           None) is None]
    if missing:
        raise ValueError(f"missing required options: {', '.join(missing)}")


def _cmd_compute(args) -> int:
    fmt = args.format
    obj = args.object
    if obj == "qbin":
        _require(args, ("n", "m"))
        print(_render_poly(qbinomial(args.n, args.m), fmt))
    elif obj == "qbin-plus":
        _require(args, ("n", "m"))
        print(_render_poly(qbinomial_ext(args.n, args.m), fmt))
    elif obj == "qsup":
        _require(args, ("L", "a"))
        print(_render_poly(supernomial(_parse_int_list(args.L), args.a), fmt))
    elif obj == "dvec":
        _require(args, ("p", "pairs"))
        dims = fusion_dims(args.p, _parse_pairs(args.pairs))
        if fmt == "json":
            print(json.dumps({"dims": [str(x) for x in dims.dims]}))
        else:
            print(" ".join(str(x) for x in dims.dims))
    elif obj == "char-rep":
        _require(args, ("p", "r", "qmax", "zwin"))
        print(_render_char(rep_character(args.p, args.r, args.qmax, args.zwin),
                           fmt))
    else:  # char-coinv
        _require(args, ("p", "r", "site"))
        site = _parse_site(args.site, args.p)
        if args.route == "fermionic":
            value = coinv_char_fermionic(args.r, site, qmax=args.qmax, zwin=args.zwin)
        else:
            value = coinv_char_supernomial(args.r, site).truncated(args.qmax, args.zwin)
        print(_render_char(value, fmt))
    return 0


def _verify_options(args) -> tuple[dict, dict]:
    """(the --config object, the options of the other flags); verify.check
    judges them."""
    config = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.load(handle)
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
    flags = {key: getattr(args, key) for key in
             ("nmax", "margin", "window", "bound", "entry_max", "amax", "count",
              "seed") if getattr(args, key) is not None}
    if args.p is not None:
        flags["p_lo"], flags["p_hi"] = _parse_range(args.p)
    if args.range_ is not None:
        flags.update(lo=-args.range_, hi=args.range_ + 3, awin=args.range_)
    return config, flags


def _cmd_verify(args) -> int:
    # imported here, so that only a verify command loads the sweeps
    from contextlib import nullcontext

    from .verify import WorkerPool, check, run_identity

    config, flags = _verify_options(args)
    # an option or a sweep that cannot run fails before any line is printed
    names = check(args.identity, config, flags)
    opts = {**config, **flags}
    # so does a report path that cannot be written: the file opens first
    report_file = (open(args.report, "w", encoding="utf-8") if args.report
                   else nullcontext())
    reports = []
    status = 0
    # one pool serves every identity of the run, one sweep ahead
    with report_file as handle, WorkerPool(max(1, args.jobs)) as pool:
        for name, ahead in zip(names, names[1:] + (None,)):
            report = run_identity(name, opts, pool=pool, ahead=ahead)
            reports.append(report)
            print(f"{name}: {report.cases} cases, {len(report.failures)} failures")
            if report.failures:
                status = 1
                first = report.failures[0]
                print(f"counterexample {json.dumps(first['params'])}")
                print(f"  lhs: {json.dumps(first['lhs'])}")
                print(f"  rhs: {json.dumps(first['rhs'])}")
        if handle is not None:
            payload = (
                reports[0].to_json_obj()
                if len(reports) == 1
                else [r.to_json_obj() for r in reports]
            )
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return status


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for key, value in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        return _cmd_verify(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 would read as a counterexample
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

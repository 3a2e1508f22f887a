"""Command line interface: analyze, seq-check, strength, and verify subcommands.

Reports are JSON documents with a fixed key order, so repeated runs with the
same inputs are byte-identical.  Exit codes: 0 = completed (any
analysis verdict, or a passing verification), 1 = a verification inequality
failed numerically, 2 = malformed input or a rejected precondition.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import RayConfig, _check_rays, _estimate, check_constant_strength, equally_strong
from .domains import BoxDomain
from .errors import HypoelError, ParseError
from .estimates import (
    RationalExponent,
    verify_dominated_transfer,
    verify_domination,
    verify_growth_chain,
    verify_iterate_bound,
)
from .grids import GridFunction, GridSpec, sample
from .sequences import (
    RoumieuSequence,
    check_basic,
    fit_inclusion,
    fit_power_bound,
    gevrey,
    load_table,
)
from .symbols import SymbolPolynomial, VariableOperator, load as load_symbol

REPORT_VERSION = 3

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


#: the string escaping of json.dumps (ASCII output)
_quote = json.encoder.encode_basestring_ascii


def _json_text(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)` and a newline, in one walk.

    Keys are strings.  A float that is not finite is written as the string
    "inf", "-inf" or "nan", since JSON has no such number; tuples and arrays
    are written as lists, and a dataclass as the dict of its fields.
    """
    parts: list[str] = []
    _write_json(obj, parts.append, "\n")
    parts.append("\n")
    return "".join(parts)


def _write_json(obj, write, newline: str) -> None:
    """Pass the text of `obj` to `write` in pieces; `newline` ends a line and indents the next."""
    if isinstance(obj, str):
        write(_quote(obj))
    elif obj is None:
        write("null")
    elif obj is True:
        write("true")
    elif obj is False:
        write("false")
    elif isinstance(obj, int):
        write(int.__repr__(obj))
    elif isinstance(obj, float):
        write(float.__repr__(obj) if math.isfinite(obj) else f'"{float.__repr__(obj)}"')
    elif isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            write(f"{sep}{_quote(key)}: ")
            _write_json(value, write, inner)
            sep = "," + inner
        write(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            write(sep)
            _write_json(value, write, inner)
            sep = "," + inner
        write(newline + "]")
    elif isinstance(obj, np.ndarray):
        _write_json(obj.tolist(), write, newline)
    elif dataclasses.is_dataclass(obj):
        _write_json(vars(obj), write, newline)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(report: dict, out_path: str | None) -> None:
    text = _json_text(report)
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _report(command: str, config: dict, results) -> dict:
    return {"report-version": REPORT_VERSION, "command": command, "config": config, "results": results}


def _ray_config(args) -> RayConfig:
    """The --rays and --radii flags that are set, over RayConfig's defaults."""
    sizes = {"directions": args.rays, "radii": args.radii}
    return RayConfig(**{k: v for k, v in sizes.items() if v is not None})


# -- analyze ---------------------------------------------------------------------


def _exponent_flag(text: str) -> float:
    """The --d flag, a fraction such as 3/2 or a decimal, as a finite float."""
    try:
        return float(Fraction(text))
    except (ValueError, ArithmeticError) as exc:
        raise ParseError(f"--d {text!r} is not a finite exponent: {exc}") from None


def run_analyze(args) -> int:
    q = load_symbol(args.symbol)
    if not isinstance(q, SymbolPolynomial):
        raise ParseError(f"{args.symbol} holds a variable operator; `analyze` expects a symbol")
    cfg = _ray_config(args)
    est, table = _estimate(q, cfg)
    results = {"estimate": est}
    if args.d is not None:
        # check_hypoelliptic(q, d, cfg), on the rays the estimate has already evaluated
        results["check_at_d"] = _check_rays(table, _exponent_flag(args.d))
    config = {"symbol": q.to_dict(), "rays": cfg, "d": args.d}
    _emit(_report("analyze", config, results), args.out)
    return EXIT_OK


# -- seq-check -------------------------------------------------------------------


def run_seq_check(args) -> int:
    if args.pmax > _INTEGER_LIMITS["pmax"]:
        raise ParseError(f"--pmax is {args.pmax}, above its limit {_INTEGER_LIMITS['pmax']}")
    try:
        frac = Fraction(args.power_m)
    except ZeroDivisionError:
        raise ParseError(f"--power-m {args.power_m!r} has a zero denominator") from None
    if frac > _POWER_M_LIMIT:
        raise ParseError(f"--power-m is {args.power_m}, above its limit {_POWER_M_LIMIT}")
    for flag, value in (("--gevrey", args.gevrey), ("--inclusion-gevrey", args.inclusion_gevrey)):
        if value is not None and not math.isfinite(value):
            raise ParseError(f"{flag} {value!r} is not a finite number")
    desc = {"kind": "gevrey", "s": args.gevrey} if args.gevrey is not None else {"kind": "table", "path": args.table}
    seq = _sequence(desc, Path())
    report = check_basic(seq, args.pmax)
    try:
        report.h4_b = fit_power_bound(seq, frac.numerator, frac.denominator, args.pmax)
    except HypoelError:
        report.h4_b = None
    if args.inclusion_gevrey is not None:
        report.inclusion = fit_inclusion(seq, gevrey(args.inclusion_gevrey), args.pmax)
    config = {"sequence": desc, "pmax": args.pmax, "power_m": str(frac), "inclusion_gevrey": args.inclusion_gevrey}
    _emit(_report("seq-check", config, report), args.out)
    return EXIT_OK


# -- strength --------------------------------------------------------------------


def run_strength(args) -> int:
    cfg = _ray_config(args)
    if args.variable:
        op = load_symbol(args.variable)
        if not isinstance(op, VariableOperator):
            raise ParseError(f"{args.variable} does not hold a variable operator")
        rep = check_constant_strength(op, cfg, args.points)
        config = {"operator": op.to_dict()}
    else:
        p = load_symbol(args.p)
        q = load_symbol(args.q)
        if not isinstance(p, SymbolPolynomial) or not isinstance(q, SymbolPolynomial):
            raise ParseError("`strength --p/--q` expects constant-coefficient symbols")
        rep = equally_strong(p, q, cfg)
        config = {"p": p.to_dict(), "q": q.to_dict()}
    _emit(_report("strength", {**config, "rays": cfg}, rep), args.out)
    return EXIT_OK


# -- verify ----------------------------------------------------------------------


def _non_finite(value) -> bool:
    """True for a float that is not finite, or a list holding one at any depth."""
    if isinstance(value, list):
        return any(map(_non_finite, value))
    return isinstance(value, float) and not math.isfinite(value)


def _finite_object(pairs: list) -> dict:
    """A config object; a number under a key that is not finite (NaN, Infinity, 1e400) is rejected.

    Python's JSON reader accepts these, JSON does not; every object is checked as
    it is read, so a nested one names its own key.
    """
    for key, value in pairs:
        if _non_finite(value):
            raise ParseError(f"{key!r} holds a number that is not finite: {value!r}")
    return dict(pairs)


def _load_config(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_finite_object)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"config {path} must be a JSON object")
    return doc


#: the top-level keys each check reads: `th1` and `domination` run on one
#: fixture, `p1` and `prop31` on a list of them
_COMMON_KEYS = {"check", "resolution"}
_CHECK_KEYS = {
    "domination": {"operator", "region", "fixture", "lmax", "x0", "delta"},
    "p1": {"symbol", "r_symbol", "omega", "d", "fixtures", "t"},
    "prop31": {"symbol", "omega", "d", "fixtures", "kmax", "deltas"},
    "th1": {"symbol", "omega", "d", "sequence", "fixture", "lmax", "amax", "delta"},
}


def _config_value(doc: dict, key: str, convert, default=None):
    """convert(doc[key]), or `default` when the key is absent (required if None).

    A missing required key or a value that `convert` rejects raises ParseError
    naming the key.
    """
    if key not in doc:
        if default is None:
            raise ParseError(f"config is missing {key!r}")
        return default
    try:
        return convert(doc[key])
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise ParseError(f"bad value under {key!r}: {exc!r}") from None


def _integer(value) -> int:
    """A JSON integer: a float such as 1e300 or a string is rejected, not converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


#: the largest value of each integer setting: 2^12 grid nodes per axis, iterate
#: and derivative orders far past the point where their norms leave the
#: floating-point range, and a seq-check depth whose (pmax+1)^2 tables stay a
#: few megabytes; a grid has at most 2^24 nodes in all
_INTEGER_LIMITS = {"resolution": 2**12, "kmax": 100, "lmax": 100, "amax": 100, "pmax": 1000}

#: the largest seq-check --power-m: M_(p m) up to p = pmax stays within lgamma's and float's range
_POWER_M_LIMIT = 1000


def _config_integer(doc: dict, key: str, default: int) -> int:
    """The config's integer `key` (`default` when absent), at most its limit."""
    value = _config_value(doc, key, _integer, default)
    if value > _INTEGER_LIMITS[key]:
        raise ParseError(f"{key!r} is {value}, above its limit {_INTEGER_LIMITS[key]}")
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value) -> float:
    """A JSON number: a string such as "12" or a boolean is rejected, not converted."""
    if not _is_number(value):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _numbers(value) -> list[float]:
    """A JSON list of numbers: a string is rejected, not read character by character."""
    if not isinstance(value, list) or not all(map(_is_number, value)):
        raise TypeError(f"expected a list of numbers, got {value!r}")
    return [float(v) for v in value]


def _config_symbol(doc: dict, key: str, base: Path, cls=SymbolPolynomial):
    """A symbol (or, with cls=VariableOperator, an operator), inline or as a file name."""
    obj = _config_value(doc, key, lambda v: load_symbol(base / v) if isinstance(v, str) else cls.from_dict(v))
    if not isinstance(obj, cls):
        raise ParseError(f"{key!r} must be a {cls.__name__}")
    return obj


def _sequence(desc, base: Path) -> RoumieuSequence:
    if not isinstance(desc, dict):
        raise ParseError("config needs a 'sequence' object")
    if desc.get("kind") == "gevrey":
        if not _is_number(desc["s"]):
            raise TypeError(f"'s' must be a number, got {desc['s']!r}")
        return gevrey(float(desc["s"]))
    if desc.get("kind") == "table":
        return load_table(base / desc["path"])
    raise ParseError(f"unknown sequence kind {desc.get('kind')!r}")


def _config_fixtures(doc: dict, key: str, spec: GridSpec) -> list[GridFunction]:
    """The fixtures under `key`: one object under "fixture", a nonempty list of them under "fixtures"."""
    descs = _config_value(doc, key, lambda v: v if key == "fixtures" else [v])
    if not isinstance(descs, list) or not descs:
        raise ParseError(f"{key!r} must be a nonempty list, got {descs!r}")
    if not all(isinstance(d, dict) and isinstance(d.get("family"), str) for d in descs):
        raise ParseError(f"each fixture must be an object with a 'family' name, got {descs!r}")
    return [sample(spec, d["family"], **{k: v for k, v in d.items() if k != "family"}) for d in descs]


def _sweep_rows(tag: str, fit) -> list[tuple]:
    return [(tag, l, n, int(f)) for l, n, f in zip(fit.labels, fit.norms, fit.flagged)]


def _write_csv(path, rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("kind,label,norm,flagged\n")
        for tag, label, norm, flag in rows:
            fh.write(f"{tag},{label},{norm!r},{flag}\n")


def run_verify(args) -> int:
    if args.csv and args.check in ("p1", "prop31"):
        raise ParseError(f"--csv does not apply to the {args.check} check: it has no norm sweeps to export")
    doc = _load_config(args.config)
    base = Path(args.config).resolve().parent
    if doc.get("check") and doc["check"] != args.check:
        raise ParseError(f"--check {args.check} does not match config check {doc['check']!r}")
    doc["check"] = check = args.check
    keys = _CHECK_KEYS[check]
    unknown = sorted(set(doc) - _COMMON_KEYS - keys)
    if unknown:
        raise ParseError(f"unknown key(s) in a {check} config: {', '.join(map(repr, unknown))}")
    resolution = _config_integer(doc, "resolution", 64)
    csv_rows: list[tuple] = []
    effective: dict = {"resolution": resolution}
    if check == "domination":
        op = _config_symbol(doc, "operator", base, VariableOperator)
        omega = _config_value(doc, "region", BoxDomain.from_dict, op.domain)
    else:
        q = _config_symbol(doc, "symbol", base)
        omega = _config_value(doc, "omega", BoxDomain.from_dict)
        d = _config_value(doc, "d", RationalExponent.parse, RationalExponent(1, 1))
    if resolution**omega.dimension > 2**24:
        raise ParseError(f"resolution {resolution} gives {resolution}^{omega.dimension} nodes, above the limit 2^24")
    fixtures = _config_fixtures(doc, "fixtures" if "fixtures" in keys else "fixture", GridSpec(omega, resolution))

    if check == "domination":
        lmax = _config_integer(doc, "lmax", 3)
        effective["lmax"] = lmax
        x0 = _config_value(doc, "x0", _numbers, list(op.domain.center))
        delta = _config_value(doc, "delta", _number, 0.0)
        rep = verify_domination(op, x0, fixtures[0], lmax, omega, delta)
        for case in rep.cases:
            l = case.params["l"]
            csv_rows.append(("frozen-iterates", l, case.lhs, int(case.flagged)))
            csv_rows.append(("variable-iterates", l, case.params["rhs_core"], int(case.flagged)))
    elif check == "p1":
        r = _config_symbol(doc, "r_symbol", base)
        rep = verify_dominated_transfer(q, r, d, fixtures, omega, _config_value(doc, "t", _number, 0.25))
    elif check == "prop31":
        kmax = _config_integer(doc, "kmax", 3)
        effective["kmax"] = kmax
        rep = verify_iterate_bound(q, d, fixtures, omega, kmax, _config_value(doc, "deltas", _numbers, [0.1]))
    else:  # th1
        seq = _config_value(doc, "sequence", lambda v: _sequence(v, base))
        lmax = _config_integer(doc, "lmax", 6)
        amax = _config_integer(doc, "amax", 12)
        effective.update({"lmax": lmax, "amax": amax})
        rep = verify_growth_chain(
            fixtures[0], q, seq, d, omega, _config_value(doc, "delta", _number, 0.05), lmax, amax,
        )
        csv_rows = _sweep_rows("iterates", rep.vector_fit) + _sweep_rows("derivatives", rep.space_fit)

    _emit(_report("verify", {**doc, **effective}, rep), args.out)
    if args.csv:
        _write_csv(args.csv, csv_rows)
    return EXIT_OK if rep.verdict == "pass" else EXIT_FAIL


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypoel",
        description="Symbol analysis, sequence checks, and growth-estimate verification",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="estimate the hypoellipticity exponent of a symbol")
    p_an.add_argument("--symbol", required=True, help="path to a symbol JSON file")
    p_an.add_argument("--rays", type=int, default=None, help="number of sampled directions")
    p_an.add_argument("--radii", type=int, default=None, help="number of geometric radius steps")
    p_an.add_argument("--d", default=None, help="also test the inequality at this exponent")
    p_an.add_argument("--out", default=None, help="report path (default: stdout)")

    p_seq = sub.add_parser("seq-check", help="check defining-sequence conditions and fit constants")
    group = p_seq.add_mutually_exclusive_group(required=True)
    group.add_argument("--gevrey", type=float, default=None, help="Gevrey order s >= 1")
    group.add_argument("--table", default=None, help="path to a two-column sequence table")
    p_seq.add_argument("--pmax", type=int, default=60)
    p_seq.add_argument("--power-m", default="2", help="rational m for the power bound fit")
    p_seq.add_argument("--inclusion-gevrey", type=float, default=None, help="fit inclusion into gevrey(S)")
    p_seq.add_argument("--out", default=None)

    p_str = sub.add_parser("strength", help="compare operator strength")
    p_str.add_argument("--p", default=None, help="first symbol file")
    p_str.add_argument("--q", default=None, help="second symbol file")
    p_str.add_argument("--variable", default=None, help="variable operator file (constant strength test)")
    p_str.add_argument("--points", type=int, default=None, help="number of freeze points")
    p_str.add_argument("--rays", type=int, default=None)
    p_str.add_argument("--radii", type=int, default=None)
    p_str.add_argument("--out", default=None)

    p_ver = sub.add_parser("verify", help="run an estimate verification from a config file")
    p_ver.add_argument("--check", required=True, choices=["p1", "prop31", "th1", "domination"])
    p_ver.add_argument("--config", required=True, help="path to a JSON config")
    p_ver.add_argument("--csv", default=None, help="export norm sweeps as CSV")
    p_ver.add_argument("--out", default=None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of `main`; parsing leaves it unchanged, so every later call reuses it."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "strength":
        if not args.variable and not (args.p and args.q):
            parser.error("strength needs either --variable or both --p and --q")
        for flag in ("p", "q") if args.variable else ("points",):
            if getattr(args, flag) is not None:
                parser.error(f"--{flag} does not apply to strength {'--variable' if args.variable else '--p/--q'}")
    # looked up on each call, so a replaced (say, wrapped) run_* function is the one that runs
    run = {"analyze": run_analyze, "seq-check": run_seq_check, "strength": run_strength, "verify": run_verify}
    try:
        return run[args.command](args)
    except (HypoelError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

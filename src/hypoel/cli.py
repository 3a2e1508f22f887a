"""Command line interface: analyze, seq-check, strength, and verify subcommands.

Reports are JSON documents with a fixed key order, so repeated runs with the
same inputs and seed are byte-identical.  Exit codes: 0 = completed (any
analysis verdict, or a passing verification), 1 = a verification inequality
failed numerically, 2 = malformed input or a rejected precondition.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .analysis import RayConfig, check_constant_strength, check_hypoelliptic, equally_strong, estimate_d
from .domains import BoxDomain
from .errors import HypoelError, ParseError, PreconditionError
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

REPORT_VERSION = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _report(command: str, config: dict, results: dict, witnesses: list) -> dict:
    return {
        "report-version": REPORT_VERSION,
        "command": command,
        "config": config,
        "results": results,
        "witnesses": witnesses,
    }


def _sanitize(obj):
    """Make report values JSON-safe: inf/nan become strings."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            return repr(obj)
        return obj
    return obj


def _ray_config(args, seed: int) -> RayConfig:
    kwargs = {"seed": seed}
    if getattr(args, "rays", None):
        kwargs["directions"] = args.rays
    if getattr(args, "radii", None):
        kwargs["radii"] = args.radii
    return RayConfig(**kwargs)


# -- analyze ---------------------------------------------------------------------


def run_analyze(args) -> int:
    q = load_symbol(args.symbol)
    if not isinstance(q, SymbolPolynomial):
        raise ParseError(f"{args.symbol} holds a variable operator; `analyze` expects a symbol")
    cfg = _ray_config(args, args.seed)
    est = estimate_d(q, cfg)
    results = {"estimate": est.to_dict()}
    if args.d is not None:
        d_val = float(Fraction(args.d))
        results["check_at_d"] = check_hypoelliptic(q, d_val, cfg).to_dict()
    witnesses = [est.witness.to_dict()] if est.witness else []
    config = {
        "symbol": q.to_dict(),
        "seed": args.seed,
        "rays": cfg.to_dict(),
        "d": args.d,
    }
    _emit(_report("analyze", config, _sanitize(results), _sanitize(witnesses)), args.out)
    return EXIT_OK


# -- seq-check -------------------------------------------------------------------


def _sequence_from_args(args) -> tuple[RoumieuSequence, dict]:
    if args.gevrey is not None:
        if args.gevrey < 1:
            raise HypoelError(f"Gevrey order must be >= 1, got {args.gevrey}")
        return gevrey(args.gevrey), {"kind": "gevrey", "s": args.gevrey}
    seq = load_table(args.table)
    return seq, {"kind": "table", "path": str(args.table)}


def run_seq_check(args) -> int:
    seq, desc = _sequence_from_args(args)
    report = check_basic(seq, args.pmax)
    frac = Fraction(args.power_m)
    try:
        report.h4_b = fit_power_bound(seq, frac.numerator, frac.denominator, args.pmax)
    except HypoelError:
        report.h4_b = None
    if args.inclusion_gevrey is not None:
        report.inclusion = fit_inclusion(seq, gevrey(args.inclusion_gevrey), args.pmax)
    results = report.to_dict()
    config = {
        "sequence": desc,
        "pmax": args.pmax,
        "power_m": str(frac),
        "inclusion_gevrey": args.inclusion_gevrey,
        "seed": args.seed,
    }
    witnesses = []
    for name in ("h1", "root_monotone", "h3_left"):
        entry = results[name]
        if not entry["passed"]:
            witnesses.append({"condition": name, "first_failure": entry["first_failure"]})
    _emit(_report("seq-check", config, _sanitize(results), _sanitize(witnesses)), args.out)
    return EXIT_OK


# -- strength --------------------------------------------------------------------


def run_strength(args) -> int:
    cfg = _ray_config(args, args.seed)
    if args.variable:
        op = load_symbol(args.variable)
        if not isinstance(op, VariableOperator):
            raise ParseError(f"{args.variable} does not hold a variable operator")
        rep = check_constant_strength(op, cfg, args.points)
        config = {"operator": op.to_dict(), "seed": args.seed, "rays": cfg.to_dict()}
    else:
        p = load_symbol(args.p)
        q = load_symbol(args.q)
        if not isinstance(p, SymbolPolynomial) or not isinstance(q, SymbolPolynomial):
            raise ParseError("`strength --p/--q` expects constant-coefficient symbols")
        rep = equally_strong(p, q, cfg)
        config = {"p": p.to_dict(), "q": q.to_dict(), "seed": args.seed, "rays": cfg.to_dict()}
    witnesses = [rep.witness] if rep.witness else []
    _emit(_report("strength", config, _sanitize(rep.to_dict()), _sanitize(witnesses)), args.out)
    return EXIT_OK


# -- verify ----------------------------------------------------------------------


def _load_config(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"config {path} must be a JSON object")
    return doc


def _config_symbol(doc: dict, key: str, base: Path) -> SymbolPolynomial:
    if key not in doc:
        raise ParseError(f"config is missing {key!r}")
    value = doc[key]
    if isinstance(value, str):
        obj = load_symbol(base / value)
    else:
        obj = SymbolPolynomial.from_dict(value)
    if not isinstance(obj, SymbolPolynomial):
        raise ParseError(f"{key!r} must be a constant-coefficient symbol")
    return obj


def _config_operator(doc: dict, key: str, base: Path) -> VariableOperator:
    if key not in doc:
        raise ParseError(f"config is missing {key!r}")
    value = doc[key]
    if isinstance(value, str):
        obj = load_symbol(base / value)
    else:
        obj = VariableOperator.from_dict(value)
    if not isinstance(obj, VariableOperator):
        raise ParseError(f"{key!r} must be a variable-coefficient operator")
    return obj


def _config_box(doc: dict, key: str) -> BoxDomain:
    if key not in doc:
        raise ParseError(f"config is missing {key!r}")
    try:
        return BoxDomain.from_dict(doc[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad box under {key!r}: {exc}") from exc


def _config_sequence(doc: dict, base: Path) -> RoumieuSequence:
    desc = doc.get("sequence")
    if not isinstance(desc, dict):
        raise ParseError("config needs a 'sequence' object")
    if desc.get("kind") == "gevrey":
        return gevrey(float(desc["s"]))
    if desc.get("kind") == "table":
        return load_table(base / desc["path"])
    raise ParseError(f"unknown sequence kind {desc.get('kind')!r}")


def _config_fixtures(doc: dict, spec: GridSpec) -> list[GridFunction]:
    descs = doc.get("fixtures")
    if descs is None and "fixture" in doc:
        descs = [doc["fixture"]]
    if not isinstance(descs, list) or not descs:
        raise ParseError("config needs 'fixture' or 'fixtures'")
    if not all(isinstance(d, dict) and isinstance(d.get("family"), str) for d in descs):
        raise ParseError(f"each fixture must be an object with a 'family' name, got {descs!r}")
    return [sample(spec, d["family"], **{k: v for k, v in d.items() if k != "family"}) for d in descs]


def _sweep_rows(tag: str, fit_or_sweep) -> list[tuple]:
    d = fit_or_sweep.to_dict()
    return [
        (tag, l, n, int(f))
        for l, n, f in zip(d["labels"], d["norms"], d["flagged"])
    ]


def _write_csv(path, rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("kind,label,norm,flagged\n")
        for tag, label, norm, flag in rows:
            fh.write(f"{tag},{label},{norm!r},{flag}\n")


def run_verify(args, doc: dict | None = None, base: Path | None = None) -> int:
    if doc is None:
        doc = _load_config(args.config)
    if base is None:
        base = Path(args.config).resolve().parent
    check = doc.get("check")
    if check not in ("p1", "prop31", "th1", "domination"):
        raise ParseError(f"config 'check' must be one of p1, prop31, th1, domination; got {check!r}")
    seed = int(doc.get("seed", 0)) if args.seed is None else args.seed
    resolution = int(doc.get("resolution", 64)) if args.resolution is None else args.resolution
    ray_cfg = RayConfig(seed=seed)
    csv_rows: list[tuple] = []
    effective: dict = {"seed": seed, "resolution": resolution}

    if check == "domination":
        op = _config_operator(doc, "operator", base)
        region = _config_box(doc, "region") if "region" in doc else op.domain
        spec = GridSpec(region, resolution)
        fixtures = _config_fixtures(doc, spec)
        lmax = int(doc.get("lmax", 3)) if args.lmax is None else args.lmax
        effective["lmax"] = lmax
        rep = verify_domination(op, doc.get("x0", list(op.domain.center)), fixtures[0], lmax, region, float(doc.get("delta", 0.0)), ray_cfg)
        results = rep.to_dict()
        for case in rep.cases:
            l = case.params["l"]
            csv_rows.append(("frozen-iterates", l, case.lhs, int(case.flagged)))
            csv_rows.append(("variable-iterates", l, case.params["rhs_core"], int(case.flagged)))
        verdict = rep.verdict
    elif check == "p1":
        q = _config_symbol(doc, "symbol", base)
        r = _config_symbol(doc, "r_symbol", base)
        omega = _config_box(doc, "omega")
        d = RationalExponent.parse(doc.get("d", "1"))
        spec = GridSpec(omega, resolution)
        fixtures = _config_fixtures(doc, spec)
        rep = verify_dominated_transfer(
            q, r, d, fixtures, omega, float(doc.get("t", 0.25)), ray_cfg,
            enforce_diameter=bool(doc.get("enforce_diameter", True)),
        )
        results = rep.to_dict()
        verdict = rep.verdict
    elif check == "prop31":
        q = _config_symbol(doc, "symbol", base)
        omega = _config_box(doc, "omega")
        d = RationalExponent.parse(doc.get("d", "1"))
        spec = GridSpec(omega, resolution)
        fixtures = _config_fixtures(doc, spec)
        kmax = int(doc.get("kmax", 3)) if args.kmax is None else args.kmax
        effective["kmax"] = kmax
        rep = verify_iterate_bound(
            q, d, fixtures, omega, kmax, [float(v) for v in doc.get("deltas", [0.1])],
            enforce_diameter=bool(doc.get("enforce_diameter", True)), ray_cfg=ray_cfg,
        )
        results = rep.to_dict()
        # per-case rows would be enormous; keep the report, no sweeps
        verdict = rep.verdict
    else:  # th1
        q = _config_symbol(doc, "symbol", base)
        omega = _config_box(doc, "omega")
        d = RationalExponent.parse(doc.get("d", "1"))
        seq = _config_sequence(doc, base)
        spec = GridSpec(omega, resolution)
        fixtures = _config_fixtures(doc, spec)
        lmax = int(doc.get("lmax", 6)) if args.lmax is None else args.lmax
        amax = int(doc.get("amax", 12))
        effective.update({"lmax": lmax, "amax": amax})
        rep = verify_growth_chain(
            fixtures[0], q, seq, d, omega, float(doc.get("delta", 0.05)), lmax, amax,
            ray_cfg=ray_cfg,
        )
        results = rep.to_dict()
        csv_rows = _sweep_rows("iterates", rep.vector_fit) + _sweep_rows("derivatives", rep.space_fit)
        verdict = rep.verdict

    config = dict(doc)
    config.update(effective)
    witnesses = []
    if isinstance(results.get("extras"), dict) and "reason" in results["extras"]:
        witnesses.append(results["extras"]["reason"])
    _emit(_report("verify", _sanitize(config), _sanitize(results), witnesses), args.out)
    if args.csv and csv_rows:
        _write_csv(args.csv, csv_rows)
    return EXIT_OK if verdict == "pass" else EXIT_FAIL


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
    p_an.add_argument("--seed", type=int, default=0)
    p_an.add_argument("--out", default=None, help="report path (default: stdout)")
    p_an.set_defaults(func=run_analyze)

    p_seq = sub.add_parser("seq-check", help="check defining-sequence conditions and fit constants")
    group = p_seq.add_mutually_exclusive_group(required=True)
    group.add_argument("--gevrey", type=float, default=None, help="Gevrey order s >= 1")
    group.add_argument("--table", default=None, help="path to a two-column sequence table")
    p_seq.add_argument("--pmax", type=int, default=60)
    p_seq.add_argument("--power-m", default="2", help="rational m for the power bound fit")
    p_seq.add_argument("--inclusion-gevrey", type=float, default=None, help="fit inclusion into gevrey(S)")
    p_seq.add_argument("--seed", type=int, default=0)
    p_seq.add_argument("--out", default=None)
    p_seq.set_defaults(func=run_seq_check)

    p_str = sub.add_parser("strength", help="compare operator strength")
    p_str.add_argument("--p", default=None, help="first symbol file")
    p_str.add_argument("--q", default=None, help="second symbol file")
    p_str.add_argument("--variable", default=None, help="variable operator file (constant strength test)")
    p_str.add_argument("--points", type=int, default=None, help="number of freeze points")
    p_str.add_argument("--rays", type=int, default=None)
    p_str.add_argument("--radii", type=int, default=None)
    p_str.add_argument("--seed", type=int, default=0)
    p_str.add_argument("--out", default=None)
    p_str.set_defaults(func=run_strength)

    p_ver = sub.add_parser("verify", help="run an estimate verification from a config file")
    p_ver.add_argument("--check", required=True, choices=["p1", "prop31", "th1", "domination"])
    p_ver.add_argument("--config", required=True, help="path to a JSON config")
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--resolution", type=int, default=None)
    p_ver.add_argument("--kmax", type=int, default=None)
    p_ver.add_argument("--lmax", type=int, default=None)
    p_ver.add_argument("--csv", default=None, help="export norm sweeps as CSV")
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=run_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "strength" and not args.variable and not (args.p and args.q):
        parser.error("strength needs either --variable or both --p and --q")
    try:
        if args.command == "verify":
            doc = _load_config(args.config)
            if doc.get("check") and doc["check"] != args.check:
                raise ParseError(
                    f"--check {args.check} does not match config check {doc.get('check')!r}"
                )
            doc["check"] = args.check
            return run_verify(args, doc, Path(args.config).resolve().parent)
        return args.func(args)
    except (ParseError, PreconditionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except (HypoelError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

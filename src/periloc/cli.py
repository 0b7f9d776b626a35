"""Batch front end over the library: membership checks, block
decomposition, path construction, sweep/Monte-Carlo verification, bound
laws, and mixability certificates.

Exit codes are the only behavioral contract:
  0  member / verified / certified
  1  non-member / gate failure / budget exceeded
  2  unknown (no verdict either way)
  64 malformed input or bad arguments

Reports are canonical JSON (sorted keys) on stdout or --out, each carrying
a manifest of input digests, seed, and grid sizes: identical manifests give
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .construct import (
    bound_attaining_law,
    construct_first_time,
    construct_invariant,
    construct_invariant_with_escape,
    plan_invariant,
)
from .density import LocationLaw, block_decomposition, generalized_inverse
from .jsonio import (
    dumps_canonical,
    law_from_obj,
    law_to_obj,
    load_file,
    parse_rat,
    path_from_obj,
    path_to_obj,
)
from .membership import HullCertificate, check_class, check_tv, hull_membership_lp
from .mixability import (
    ORACLE_MAX_COMPONENTS,
    certify_convex,
    certify_gap,
    certify_linear,
    component_distributions,
    optimal_coupling,
    rearrangement_coupling,
)
from .paths import INFINITY, locator_by_name

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64

_VERDICT_CODES = {"member": EXIT_OK, "non-member": EXIT_FAIL, "unknown": EXIT_UNKNOWN}


class InputError(Exception):
    """Malformed file, schema, or argument value: exit 64."""


class _Parser(argparse.ArgumentParser):
    # bad flags are usage errors (64), not "unknown" verdicts (2)
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return "inf" if obj == INFINITY else obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, LocationLaw):
        return law_to_obj(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return repr(obj)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def _manifest(subcommand: str, inputs: dict, seed=None, grid=None) -> dict:
    return {
        "subcommand": subcommand,
        "inputs": {name: _digest(p) for name, p in inputs.items()},
        "seed": seed,
        "grid": grid,
        "version": __version__,
    }


def _load_law(path: str) -> LocationLaw:
    try:
        return law_from_obj(load_file(path))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad law file {path}: {exc}") from exc


def _load_path(path: str):
    try:
        return path_from_obj(load_file(path))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad path file {path}: {exc}") from exc


def _rat_arg(text: str, what: str) -> Fraction:
    try:
        return parse_rat(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad {what} {text!r}: {exc}") from exc


def _checked(fn, *args, **kwargs):
    """fn(*args, **kwargs); a ValueError it raises is bad input (exit 64)."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _write(path: str, text: str) -> None:
    """Write text to the file path; a path that cannot be written is a bad
    argument (exit 64), not a verdict."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _emit(report: dict, out) -> None:
    text = dumps_canonical(report)
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _resolve_seed(args) -> int:
    env = os.environ.get("SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(f"bad SEED env value {env!r}") from exc
    return args.seed


# --- subcommands ---


def cmd_check(args) -> int:
    law = _load_law(args.law)
    if args.cls == "TV":
        rep = check_tv(law.density)
    elif args.cls == "hull":
        res = _checked(hull_membership_lp, law)
        if isinstance(res, HullCertificate):
            report = {
                "manifest": _manifest("check", {"law": args.law}),
                "class": "hull",
                "verdict": "member",
                "certificate": [
                    {"law": law_to_obj(l), "weight": str(w)} for l, w in res.components
                ],
            }
            _emit(report, args.out)
            return EXIT_OK
        rep = res
    else:
        rep = check_class(law, args.cls)
    report = {
        "manifest": _manifest("check", {"law": args.law}),
        "class": args.cls,
        "verdict": rep.verdict,
        "violated_conditions": list(rep.violated_conditions),
        "witness": _jsonable(rep.witness),
    }
    _emit(report, args.out)
    return _VERDICT_CODES[rep.verdict]


def cmd_decompose(args) -> int:
    law = _load_law(args.law)
    try:
        dec = block_decomposition(law.density)
    except ValueError as exc:
        _emit({"error": str(exc)}, args.out)
        return EXIT_FAIL
    report = {
        "manifest": _manifest("decompose", {"law": args.law}),
        "T": str(dec.T),
        "blocks": [
            {"u": str(b.u), "v": str(b.v), "kind": b.kind} for b in dec.blocks
        ],
        "counts": {k: dec.count(k) for k in ("base", "left", "right", "central")},
    }
    _emit(report, args.out)
    return EXIT_OK


_GATES = {"invariant": "E1T", "escape": "ET", "first-time": "EMT"}


def _plan_summary(law: LocationLaw):
    try:
        plan = plan_invariant(law)
    except ValueError:
        return None  # degenerate laws (T = 1, pure atoms) have no valley plan
    return {
        "m1": plan.m1,
        "components": [
            {
                "d1": str(c.d1),
                "d2": str(c.d2),
                "left": [str(w) for w in c.left],
                "right": [str(w) for w in c.right],
                "central": None if c.central is None else [str(c.central[0]), str(c.central[1])],
                "extra": str(c.extra),
                "length": str(c.length),
            }
            for c in plan.components
        ],
    }


def cmd_construct(args) -> int:
    law = _load_law(args.law)
    kind = args.kind
    report = {"manifest": _manifest("construct", {"law": args.law}), "kind": kind}
    if kind.startswith("bound:"):
        params = kind[len("bound:") :].split(",")
        if len(params) not in (1, 2):
            raise InputError(f"bad bound parameters {kind!r}")
        t = _rat_arg(params[0], "bound point")
        eps = _rat_arg(params[1], "bound eps") if len(params) == 2 else None
        target = _checked(bound_attaining_law, t, law.T, eps)
        try:
            path = construct_invariant(target)
        except ValueError as exc:
            _emit({**report, "error": str(exc)}, None)
            return EXIT_FAIL
        report["law"] = law_to_obj(target)
        report["path"] = path_to_obj(path)
    else:
        if kind not in _GATES:
            raise InputError(f"unknown construction kind {kind!r}")
        gate = check_class(law, _GATES[kind])
        if not gate.is_member:
            report["gate"] = {
                "class": _GATES[kind],
                "verdict": gate.verdict,
                "violated_conditions": list(gate.violated_conditions),
                "witness": _jsonable(gate.witness),
            }
            _emit(report, None)
            return EXIT_FAIL
        builders = {
            "invariant": construct_invariant,
            "escape": construct_invariant_with_escape,
            "first-time": construct_first_time,
        }
        try:
            path = builders[kind](law)
        except ValueError as exc:
            _emit({**report, "error": str(exc)}, None)
            return EXIT_FAIL
        report["path"] = path_to_obj(path)
        if kind in ("invariant", "escape"):
            report["plan"] = _plan_summary(law)
        else:
            top = int(law.density.value(0))
            report["layers"] = [
                str(generalized_inverse(law.density, level)) for level in range(1, top + 1)
            ]
    # the report goes to stdout; --out captures the bare path artifact,
    # written first so that a failed write prints no report
    if args.out:
        _write(args.out, dumps_canonical(path_to_obj(path)))
    _emit(report, None)
    return EXIT_OK


def _write_ecdf(emp, out: str) -> None:
    lines = ["t,F"]
    cum = emp.count0
    lines.append(f"0.0,{cum / emp.n}")
    for x in emp.interior.tolist():
        cum += 1
        lines.append(f"{x},{cum / emp.n}")
    lines.append(f"{emp.T},{(cum + emp.countT) / emp.n}")
    _write(out, "\n".join(lines) + "\n")


def cmd_simulate(args) -> int:
    # the float engines load numpy; no other command imports them
    from .simulate import compare, mc_law, sweep_law

    g = _load_path(args.path)
    locator = _checked(locator_by_name, args.locator)
    T = _rat_arg(args.T, "window length")
    if not 0 < T <= 1:
        raise InputError(f"window length {T} outside (0, 1]")
    target = _load_law(args.target) if args.target else None
    if target is not None and target.T != T:
        raise InputError(f"target law has T={target.T}, simulation uses T={T}")
    seed = _resolve_seed(args)
    inputs = {"path": args.path}
    if args.target:
        inputs["target"] = args.target
    if args.grid is not None:
        emp = _checked(sweep_law, g, locator, T, args.grid)
        grid = {"grid": args.grid}
    else:
        emp = _checked(mc_law, g, locator, T, args.mc, seed=seed)
        grid = {"mc": args.mc}
    report = {
        "manifest": _manifest("simulate", inputs, seed=seed, grid=grid),
        "locator": args.locator,
        "T": str(T),
        "n": emp.n,
        "counts": {
            "zero": emp.count0,
            "T": emp.countT,
            "inf": emp.countInf,
            "interior": int(emp.interior.size),
        },
        "freqs": {"zero": emp.freq0, "T": emp.freqT, "inf": emp.freqInf},
    }
    code = EXIT_OK
    if target is not None:
        cmp = compare(target, emp, tol_ks=args.tol_ks, tol_atom=args.tol_atom)
        report["comparison"] = {
            "ks": cmp.ks,
            "atom_errors": cmp.atom_errors,
            "tol_ks": cmp.tol_ks,
            "tol_atom": cmp.tol_atom,
            "passed": cmp.passed,
        }
        if not cmp.passed:
            code = EXIT_FAIL
    if args.ecdf:
        _write_ecdf(emp, args.ecdf)
    _emit(report, args.out)
    return code


def cmd_bound(args) -> int:
    t = _rat_arg(args.t, "bound point")
    T = _rat_arg(args.T, "window length")
    eps = _rat_arg(args.eps, "eps") if args.eps else None
    law = _checked(bound_attaining_law, t, T, eps)
    report = {
        "manifest": _manifest("bound", {}),
        "t": str(t),
        "T": str(T),
        "law": law_to_obj(law),
        "value_at_t": str(law.density.value(t)),
    }
    # the report goes to stdout; --out captures the bare law artifact,
    # written first so that a failed write prints no report
    if args.out:
        _write(args.out, dumps_canonical(law_to_obj(law)))
    _emit(report, None)
    return EXIT_OK


def _coupling_certificate(n: int, coupling) -> dict:
    return {
        "kind": "coupling",
        "evidence": {
            "n": n,
            "matrix": [[str(x) for x in row] for row in coupling.matrix],
            "max_row_sum": str(coupling.max_row_sum),
        },
    }


def cmd_mix(args) -> int:
    law = _load_law(args.law)
    problem = _checked(component_distributions, law.density, law.T)
    report = {
        "manifest": _manifest("mix", {"law": args.law}, seed=_resolve_seed(args)),
        "method": args.method,
        "N": problem.N,
        "means": [str(m) for m in problem.means],
    }
    if args.method in ("convex", "gap", "linear"):
        certify = {
            "convex": certify_convex,
            "gap": certify_gap,
            "linear": certify_linear,
        }[args.method]
        cert = certify(law.density, law.T)
        if cert is None:
            report["certificate"] = None
            report["note"] = "condition not met; this is not a refutation"
            _emit(report, args.out)
            return EXIT_UNKNOWN
        report["certificate"] = {"kind": cert.kind, "evidence": _jsonable(cert.evidence)}
        _emit(report, args.out)
        return EXIT_OK
    n = args.n if args.n is not None else (6 if args.method == "oracle" else 64)
    if args.method == "search":
        coupling = _checked(rearrangement_coupling, problem, n, seed=_resolve_seed(args))
        slack = problem.slack(n)
        certified = coupling.max_row_sum <= 1 + slack
        report["n"] = n
        report["max_row_sum"] = str(coupling.max_row_sum)
        report["slack"] = str(slack)
        if not certified:
            report["certificate"] = None
            report["note"] = "row sums exceed budget + slack; this is not a refutation"
            _emit(report, args.out)
            return EXIT_UNKNOWN
        report["certificate"] = _coupling_certificate(n, coupling)
        _emit(report, args.out)
        return EXIT_OK
    # oracle: too many components is "unknown"; a bad n is an input error
    if problem.N > ORACLE_MAX_COMPONENTS:
        report["certificate"] = None
        report["note"] = f"oracle limited to N <= {ORACLE_MAX_COMPONENTS}"
        _emit(report, args.out)
        return EXIT_UNKNOWN
    best = _checked(optimal_coupling, problem, n)
    feasible = best.max_row_sum <= 1
    report["n"] = n
    report["max_row_sum"] = str(best.max_row_sum)
    report["certificate"] = _coupling_certificate(n, best) if feasible else None
    _emit(report, args.out)
    return EXIT_OK if feasible else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="periloc",
        description="Location-functional laws: check, decompose, construct, simulate, bound, mix.",
    )
    parser.add_argument("--version", action="version", version=f"periloc {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check", help="membership checks for a law")
    p.add_argument("law")
    p.add_argument(
        "--class",
        dest="cls",
        required=True,
        choices=["ET", "E1T", "EMT", "TV", "hull"],
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decompose", help="block decomposition of an integer step density")
    p.add_argument("law")
    p.add_argument("--out")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("construct", help="realize a law as a periodic path")
    p.add_argument("law")
    p.add_argument(
        "--kind",
        required=True,
        help="invariant | escape | first-time | bound:t[,eps]",
    )
    p.add_argument("--out", help="write the constructed path.json here")
    p.set_defaults(func=cmd_construct)

    for name in ("simulate", "verify"):
        p = sub.add_parser(name, help="sweep or sample a locator law from a path")
        p.add_argument("path")
        p.add_argument("--locator", required=True)
        p.add_argument("--T", required=True)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--grid", type=int)
        group.add_argument("--mc", type=int)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--target")
        p.add_argument("--tol-ks", type=float, default=1e-3)
        p.add_argument("--tol-atom", type=float, default=2e-5)
        p.add_argument("--ecdf", help="write empirical CDF as CSV")
        p.add_argument("--out")
        p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bound", help="law attaining the density upper bound at a point")
    p.add_argument("--t", required=True)
    p.add_argument("--T", required=True)
    p.add_argument("--eps")
    p.add_argument("--out", help="write the bound law.json here")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("mix", help="joint-mixability certificates for a decreasing density")
    p.add_argument("law")
    p.add_argument(
        "--method",
        required=True,
        choices=["convex", "gap", "linear", "search", "oracle"],
    )
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_mix)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

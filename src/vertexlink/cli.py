"""Command-line front end.

Exit codes follow the usual convention: 0 for success or all checks
passing, 1 for a verification failure or a check that does not hold,
2 for usage errors.  ``--json`` switches every subcommand to a
machine-readable report whose polynomial strings parse back through
``ring.parse``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import warnings
from fractions import Fraction

from . import ring, selftest, tlbracket, uqsl2
from .axioms import check_axioms, check_markov_conditions, solve_twist
from .braid import parse_braid
from .errors import VertexLinkError
from .invariants import (
    STRAND_CAP,
    ambient_invariant,
    compute_constants,
    derived_skein_coefficients,
    minpoly_check,
    regular_invariant,
    skein_coefficients,
    skein_contexts,
    skein_residual,
)
from .models import build_model, mirror_model

_CAP_ENV = "VERTEXLINK_STRAND_CAP"


def _render_optional(value: ring.RingElem, variable: str) -> str | None:
    """Render in q or t when the exponents allow it, else None."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return ring.render(value, variable)
        except UserWarning:
            return None


def _best_render(value: ring.RingElem) -> str:
    for variable in ("t", "q"):
        text = _render_optional(value, variable)
        if text is not None:
            return text
    return ring.render(value, "s")


def _value_payload(value: ring.RingElem) -> dict:
    return {
        "s": ring.render(value, "s"),
        "q": _render_optional(value, "q"),
        "t": _render_optional(value, "t"),
    }


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _strand_cap(args, N: int) -> int:
    if getattr(args, "strand_cap", None) is not None:
        return args.strand_cap
    env = os.environ.get(_CAP_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise VertexLinkError(f"{_CAP_ENV} must be an integer, got {env!r}")
    return STRAND_CAP[N]


def _sign_value(args) -> int:
    return -1 if args.sign == "minus" else 1


# ------------------------------------------------------------ subcommands


def _cmd_invariant(args) -> int:
    m = build_model(args.model, _sign_value(args))
    word = parse_braid(args.braid, args.strands)
    cap = _strand_cap(args, m.N)
    if word.strands > cap:
        print(
            f"braid needs {word.strands} strands, above the cap {cap} "
            f"(raise with --strand-cap or {_CAP_ENV})",
            file=sys.stderr,
        )
        return 2
    if args.normalization == "ambient":
        value = ambient_invariant(word, m)
    else:
        value = regular_invariant(word, m)
    if args.json:
        _emit_json({
            "model": m.N,
            "sign": args.sign,
            "braid": list(word.letters),
            "strands": word.strands,
            "writhe": word.writhe,
            "normalization": args.normalization,
            "value": _value_payload(value),
        })
    else:
        print(f"model N={m.N} sign={args.sign}  braid {list(word.letters)}  "
              f"strands={word.strands}  writhe={word.writhe}")
        print(f"{args.normalization} invariant: {_best_render(value)}")
    return 0


def _verify_checks(m, include_all: bool) -> dict[str, tuple[bool, str]]:
    out: dict[str, tuple[bool, str]] = {}

    def from_report(prefix: str, rep) -> None:
        for name, ok in sorted(rep.results.items()):
            out[f"{prefix}.{name}"] = (ok, rep.witnesses.get(name, ""))

    from_report("axioms", check_axioms(m))
    from_report("markov", check_markov_conditions(m))
    if include_all:
        out["minpoly"] = (minpoly_check(m), "")
        try:
            compute_constants(m)
            out["constants"] = (True, "")
        except VertexLinkError as exc:
            out["constants"] = (False, str(exc))
        mir = mirror_model(m)
        from_report("mirror.axioms", check_axioms(mir))
        from_report("mirror.markov", check_markov_conditions(mir))
        out["mirror.minpoly"] = (minpoly_check(mir), "")
    return out


def _cmd_verify(args) -> int:
    m = build_model(args.model, _sign_value(args))
    checks = _verify_checks(m, args.all)
    ok_all = all(ok for ok, _ in checks.values())
    if args.json:
        _emit_json({
            "model": m.N,
            "sign": args.sign,
            "all": args.all,
            "passed": ok_all,
            "checks": {k: ok for k, (ok, _) in checks.items()},
            "witnesses": {k: w for k, (_, w) in checks.items() if w},
        })
    else:
        width = max(len(k) for k in checks)
        for name in sorted(checks):
            ok, witness = checks[name]
            line = f"{name:<{width}}  {'PASS' if ok else 'FAIL'}"
            if witness:
                line += f"  {witness}"
            print(line)
        print(f"{sum(ok for ok, _ in checks.values())}/{len(checks)} conditions hold")
    return 0 if ok_all else 1


def _matrix_payload(mat) -> dict[str, str]:
    return {f"{r},{c}": ring.render(v, "s") for (r, c), v in sorted(mat.entries.items())}


def _cmd_solve_m(args) -> int:
    m = build_model(args.model, _sign_value(args))
    r_hat = m.R * ring.invert_unit(m.Z)
    if args.discover:
        sol = solve_twist(r_hat)
    else:
        sol = solve_twist(r_hat, z=m.Z)
    ok = sol.uniqueness == 1
    if args.json:
        _emit_json({
            "model": m.N,
            "sign": args.sign,
            "discover": args.discover,
            "uniqueness": sol.uniqueness,
            "twin_consistent": sol.twin_consistent,
            "fitted_exponent": sol.fitted_exponent,
            "z_candidates": [ring.render(z, "s") for z in sol.z_candidates],
            "md_basis": [_matrix_payload(b) for b in sol.md_basis],
            "mu_basis": [_matrix_payload(b) for b in sol.mu_basis],
        })
    else:
        print(f"model N={m.N}: solution space dimension {sol.uniqueness}")
        if sol.fitted_exponent is not None:
            # Z = +-s^m, so Z^2 = q^m
            print(f"discovered Z^2 = q^{sol.fitted_exponent}")
        if sol.z_candidates:
            print("Z candidates:", ", ".join(ring.render(z, "s") for z in sol.z_candidates))
        for b in sol.md_basis:
            print("M basis element:")
            for (r, c), v in sorted(b.entries.items()):
                print(f"  [{r},{c}] = {ring.render(v, 's')}")
    return 0 if ok else 1


def _cmd_skein(args) -> int:
    m = build_model(args.model, _sign_value(args))
    fixed = skein_coefficients(m)
    derived = derived_skein_coefficients(m)
    tables_match = fixed == derived
    failures = sum(
        not skein_residual(m, ctx, i).is_zero()
        for ctx, i in skein_contexts(random.Random(args.seed), args.trials)
    )
    ok = tables_match and failures == 0
    if args.json:
        _emit_json({
            "model": m.N,
            "sign": args.sign,
            "coefficients": [
                {"power": k, "coefficient": ring.render(c, "s")} for k, c in fixed
            ],
            "tables_match": tables_match,
            "trials": args.trials,
            "failures": failures,
        })
    else:
        print(f"model N={m.N}: skein relation sum_k c_k R^k = 0 with")
        for k, c in fixed:
            print(f"  c[{k}] = {ring.render(c, 's')}")
        print(f"coefficient tables {'agree' if tables_match else 'DISAGREE'}; "
              f"{args.trials - failures}/{args.trials} random contexts exact")
    return 0 if ok else 1


def _cmd_tl(args) -> int:
    m = build_model(args.model, _sign_value(args))
    rows: list[tuple[str, bool, str]] = []
    rep = tlbracket.tl_relations_check(m, max_strands=args.max_strands)
    rows.append(("relations", rep.passed, f"n <= {args.max_strands}"))
    if m.N == 2:
        try:
            A, B = tlbracket.bracket_decompose_n2(m)
            rows.append(("bracket", True,
                         f"A = {ring.render(A, 's')}, B = {ring.render(B, 's')}"))
        except VertexLinkError as exc:
            rows.append(("bracket", False, str(exc)))
    if m.N == 3:
        rows.append(("dubrovnik", tlbracket.dubrovnik_check_n3(m), ""))
    pos, neg = tlbracket.curl_factors(m)
    rows.append(("curls", True,
                 f"positive {ring.render(pos, 's')}, negative {ring.render(neg, 's')}"))
    ok = all(r[1] for r in rows)
    if args.json:
        _emit_json({
            "model": m.N,
            "sign": args.sign,
            "checks": {name: passed for name, passed, _ in rows},
            "details": {name: detail for name, passed, detail in rows if detail},
        })
    else:
        for name, passed, detail in rows:
            line = f"{name:<10} {'PASS' if passed else 'FAIL'}"
            if detail:
                line += f"  {detail}"
            print(line)
    return 0 if ok else 1


def _cmd_uq(args) -> int:
    try:
        j = Fraction(args.j)
    except (ValueError, ZeroDivisionError):
        print(f"cannot read spin {args.j!r}", file=sys.stderr)
        return 2
    q_samples = tuple(args.q) if args.q else (1.2, 1.5, 2.0)
    rep = uqsl2.correspondence_report(j, q_samples=q_samples)
    ok = rep.ok()
    payload = {
        "j": str(j),
        "q_samples": list(q_samples),
        "algebra": rep.algebra,
        "casimir": rep.casimir,
        "truncation": rep.truncation,
        "w_conjugation": rep.wconj,
        "crossing_symmetry": rep.cs,
        "ratio_spread": rep.ratio_spread,
        "gauged_spread": rep.gauged_spread,
        "constant_dev": rep.constant_dev,
        "md_exact": rep.md_exact,
        "twist_exact": rep.twist_exact,
        "passed": ok,
        "passed_gauged": rep.ok_gauged(),
    }
    if args.json:
        _emit_json(payload)
    else:
        print(f"spin j = {j}, q samples {list(q_samples)}")
        print(f"  algebra residual      {rep.algebra:.2e}")
        print(f"  Casimir deviation     {rep.casimir:.2e}")
        print(f"  series truncation     {rep.truncation:.2e}")
        print(f"  w conjugation         {rep.wconj:.2e}")
        print(f"  crossing symmetry     {rep.cs:.2e}")
        print(f"  ratio spread          {rep.ratio_spread:.2e}")
        print(f"  gauged ratio spread   {rep.gauged_spread:.2e}")
        print(f"  w^t = q^j M_d exact   {rep.md_exact}")
        print(f"  twist equations exact {rep.twist_exact}")
        if ok:
            print("correspondence holds")
        elif rep.ok_gauged():
            print("plain proportionality FAILS at this spin; it holds only up "
                  "to a sign gauge (see gauged ratio spread)")
        else:
            print("correspondence FAILS")
    return 0 if ok else 1


def _cmd_selftest(args) -> int:
    return selftest.run(seed=args.seed, only=args.only, mutate=args.mutate)


# ---------------------------------------------------------------- parser


def _add_model_flags(p: argparse.ArgumentParser, with_sign: bool = True) -> None:
    p.add_argument("--model", type=int, choices=(2, 3, 4), required=True,
                   help="number of vertex states N")
    if with_sign:
        p.add_argument("--sign", choices=("plus", "minus"), default="plus",
                       help="overall sign branch of the crossing matrix")
    p.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vertexlink",
        description="Exact vertex-model link invariants of braid closures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariant", help="compute a link invariant of a braid closure")
    _add_model_flags(p)
    p.add_argument("--braid", required=True,
                   help="signed generator letters, e.g. \"1 1 1\"")
    p.add_argument("--strands", type=int, default=None,
                   help="strand count (default: smallest group the word fits)")
    p.add_argument("--normalization", choices=("regular", "ambient"), default="ambient")
    p.add_argument("--strand-cap", type=int, default=None,
                   help=f"override the per-model strand cap (env {_CAP_ENV})")
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("verify", help="run axiom and Markov condition checks")
    _add_model_flags(p)
    p.add_argument("--all", action="store_true",
                   help="also check minimal polynomial, constants and mirrors")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("solve-m", help="recover the crossing matrices from R")
    _add_model_flags(p)
    p.add_argument("--discover", action="store_true",
                   help="fit the normalization factor instead of assuming it")
    p.set_defaults(func=_cmd_solve_m)

    p = sub.add_parser("skein", help="print skein coefficients and test random contexts")
    _add_model_flags(p)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_skein)

    p = sub.add_parser("tl", help="Temperley-Lieb and bracket checks")
    _add_model_flags(p)
    p.add_argument("--max-strands", type=int, default=4)
    p.set_defaults(func=_cmd_tl)

    p = sub.add_parser("uq", help="quantum sl2 correspondence at one spin")
    p.add_argument("--j", required=True, help="spin, e.g. 1/2 or 1")
    p.add_argument("--q", type=float, action="append", default=None,
                   help="deformation sample, repeatable (default 1.2 1.5 2.0)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_uq)

    p = sub.add_parser("selftest", help="run the deterministic verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--only", default=None, metavar="CHECK",
                   help="run a single named check")
    p.add_argument("--mutate", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VertexLinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

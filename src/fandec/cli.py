"""Command-line front end.

Every subcommand prints a deterministic report (stable orders, canonical
JSON under --json) and maps failures onto fixed exit statuses: 0 success,
1 domain error, 2 parse error, 3 resource budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, Optional

from .errors import BudgetError, DomainError, ParseError
from .fankit import (
    blowup_at_cone,
    factorize,
    fan_to_dict,
    fan_to_json,
    hirzebruch,
    isomorphic,
    load_fan,
    product,
    projective_fan,
    reassemble,
    validate,
)
from .polys import Poly
from .recovery import bundle, realize, recover
from .squarezero import (
    _enumeration_states,
    closed_count_mod2,
    count_square_zero,
    factor_poincare,
    normalize,
    parse_product,
    poincare,
    product_manifold_profile,
    real_census,
    top_invariants,
)
from . import selftest as selftest_mod


_ERROR_PREFIXES = {1: "domain error", 2: "parse error", 3: "budget exceeded"}


def _emit_json(payload: object) -> None:
    print(json.dumps(payload, sort_keys=True))


def _check_digits(values: Iterable[int], what: str) -> None:
    """Refuse, as a domain error, an integer with more digits than Python
    will write out as text (``sys.get_int_max_str_digits``), in print and
    JSON alike."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return
    bound = 10**limit
    if any(abs(c) >= bound for c in values):
        raise DomainError(
            f"a {what} has more than {limit} digits, "
            "the interpreter's limit for writing an integer as text"
        )


def _writable(poly: Poly) -> Poly:
    """poly, unless a coefficient is too long to write out as text."""
    _check_digits(poly, "Poincare coefficient")
    return poly


def _poly_text(poly: Poly) -> str:
    _writable(poly)
    terms = []
    for k, c in enumerate(poly):
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            coeff = "" if c == 1 else str(c)
            terms.append(f"{coeff}x" if k == 1 else f"{coeff}x^{k}")
    return " + ".join(terms) if terms else "0"


def _matrix_rows(m) -> list[list[int]]:
    return [list(m.row(i)) for i in range(m.rows)]


def _cmd_fan_validate(args) -> int:
    fan = load_fan(args.file)
    report = validate(fan)
    verdict = "VALID (smooth complete)" if report.all_passed() else "INVALID"
    if args.json:
        _emit_json({"file": args.file, "checks": report.as_dict(), "verdict": verdict})
        return 0
    print(f"file: {args.file}")
    print(f"rays: {len(fan.rays)}")
    print(f"maximal cones: {len(fan.maximal_cones)}")
    for key, ok in report.as_dict().items():
        print(f"{key.replace('_', ' ')}: {'yes' if ok else 'no'}")
    print(f"verdict: {verdict}")
    return 0


def _cmd_fan_product(args) -> int:
    combined = product(load_fan(args.left), load_fan(args.right))
    print(fan_to_json(combined))
    return 0


def _cmd_fan_factor(args) -> int:
    fan = load_fan(args.file)
    result = factorize(fan)
    rebuilt_ok = reassemble(result).support_key() == fan.support_key()
    if args.json:
        _emit_json(
            {
                "blocks": [
                    {"sub_basis": [list(v) for v in b.sub_basis], "fan": fan_to_dict(b.factor)}
                    for b in result.blocks
                ],
                "change_of_basis": _matrix_rows(result.change_of_basis),
                "reassembles": rebuilt_ok,
            }
        )
        return 0
    print(f"blocks: {len(result.blocks)}")
    for i, block in enumerate(result.blocks, start=1):
        f = block.factor
        print(f"block {i}: dim {f.dim}")
        print(f"  rays: {', '.join(str(r) for r in f.rays)}")
        print(f"  maximal cones: {', '.join(str(c.ray_indices) for c in f.maximal_cones)}")
        print(f"  sub-basis columns: {', '.join(str(v) for v in block.sub_basis)}")
    print(f"change of basis rows: {_matrix_rows(result.change_of_basis)}")
    print(f"reassembly check: {'OK' if rebuilt_ok else 'FAIL'}")
    return 0


def _cmd_fan_iso(args) -> int:
    cert = isomorphic(load_fan(args.left), load_fan(args.right))
    if args.json:
        payload = {"isomorphic": cert is not None}
        if cert is not None:
            payload["matrix"] = _matrix_rows(cert)
        _emit_json(payload)
        return 0
    if cert is None:
        print("NOT ISOMORPHIC")
    else:
        print("ISOMORPHIC")
        print(f"matrix rows: {_matrix_rows(cert)}")
    return 0


def _cmd_fan_gen(args) -> int:
    kind = args.kind
    if kind == "hirzebruch":
        if args.param is None:
            raise ParseError("fan-gen hirzebruch requires an integer parameter A")
        fan = hirzebruch(args.param)
    elif kind == "proj":
        if args.param is None:
            raise ParseError("fan-gen proj requires an integer parameter N")
        fan = projective_fan(args.param)
    else:  # f0-blowup
        if args.param is not None:
            raise ParseError("fan-gen f0-blowup takes no parameter")
        f0 = hirzebruch(0)
        fan = blowup_at_cone(f0, f0.maximal_cones[0])
    print(fan_to_json(fan))
    return 0


def _cmd_mf_profile(args) -> int:
    pm = parse_product(args.descriptor)
    prof = product_manifold_profile(pm)
    if args.json:
        _emit_json(
            {
                "descriptor": pm.descriptor(),
                "complex_dim": pm.complex_dim,
                "b2": prof.b2,
                "b4": prof.b4,
                "labels": list(prof.labels),
                "products": {f"{i},{j}": list(v) for (i, j), v in sorted(prof.products.items())},
            }
        )
        return 0
    print(f"descriptor: {pm.descriptor()}")
    print(f"complex dim: {pm.complex_dim}")
    print(f"b2: {prof.b2}")
    print(f"b4: {prof.b4}")
    print(f"degree-2 labels: {', '.join(prof.labels) if prof.labels else '(none)'}")
    for (i, j), vec in sorted(prof.products.items()):
        print(f"{prof.labels[i]} * {prof.labels[j]} = {list(vec)}")
    return 0


def _cmd_mf_count(args) -> int:
    pm = parse_product(args.descriptor)
    _enumeration_states(sum(factor_poincare(f)[1] for f in pm.factors), args.mod)
    prof = product_manifold_profile(pm)
    count = count_square_zero(prof, args.mod, threads=args.threads)
    closed: Optional[int] = None
    if args.mod == 2:
        closed = sum(closed_count_mod2(f) for f in pm.factors)
    if args.json:
        payload: dict = {"descriptor": pm.descriptor(), "mod": args.mod, "count": count}
        if closed is not None:
            payload["closed_form"] = closed
            payload["match"] = count == closed
        _emit_json(payload)
        return 0
    if closed is not None:
        flag = "MATCH" if count == closed else "MISMATCH"
        print(f"{count} (closed form {closed}, {flag})")
    else:
        print(count)
    return 0


def _cmd_mf_census(args) -> int:
    pm = parse_product(args.descriptor)
    census = real_census(pm)
    if args.json:
        _emit_json({"descriptor": pm.descriptor(), "census": census.as_dict()})
        return 0
    for label, count in census.as_dict().items():
        print(f"{label} x {count}")
    print(f"total components: {census.total()}")
    return 0


def _cmd_mf_poincare(args) -> int:
    pm = parse_product(args.descriptor)
    poly = poincare(pm)
    if args.json:
        _emit_json({"descriptor": pm.descriptor(), "coefficients": list(_writable(poly))})
        return 0
    print(_poly_text(poly))
    return 0


def _cmd_mf_normalize(args) -> int:
    inv = top_invariants(args.p, args.q, args.r)
    nf = normalize(args.p, args.q, args.r)
    if args.json:
        _emit_json(
            {
                "input": {"p": args.p, "q": args.q, "r": args.r},
                "invariants": {"chi": inv.chi, "sigma": inv.sigma, "spin": inv.spin},
                "normal_form": str(nf),
            }
        )
        return 0
    print(
        f"input: p={args.p} q={args.q} r={args.r} "
        f"(chi={inv.chi}, sigma={inv.sigma}, spin={'yes' if inv.spin else 'no'})"
    )
    print(f"normal form: {nf}")
    return 0


def _cmd_recover(args) -> int:
    pm = parse_product(args.descriptor)
    b = bundle(pm)
    # both reports print every integer of the bundle, so refuse before recovering
    _writable(b.poincare_poly)
    _check_digits(b.class_mod2_counts.values(), "mod-2 class count")
    v = recover(b)
    verdict = "OK" if realize(v).factors == pm.factors else "FAIL"
    if args.json:
        _emit_json({"bundle": b.as_dict(), "recovered": v.as_dict(), "round_trip": verdict})
        return 0
    print(f"bundle: {b.to_text()}")
    print(f"recovered: {v.summary()}, {verdict}")
    return 0


def _cmd_selftest(args) -> int:
    names = args.only or None
    results = selftest_mod.run_all(names)
    if args.json:
        _emit_json(
            [
                {"name": r.name, "passed": r.passed, "detail": r.detail, "seconds": r.seconds}
                for r in results
            ]
        )
    else:
        print(selftest_mod.format_results(results))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fandec",
        description="Exact toric-fan factorization and square-zero invariant toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit canonical JSON")
        p.set_defaults(func=func)
        return p

    p = add("fan-validate", _cmd_fan_validate, "check a fan file for the smooth complete flags")
    p.add_argument("file")

    p = add("fan-product", _cmd_fan_product, "product of two fan files (as a fan JSON document)")
    p.add_argument("left")
    p.add_argument("right")

    p = add("fan-factor", _cmd_fan_factor, "indecomposable factor blocks of a fan file")
    p.add_argument("file")

    p = add("fan-iso", _cmd_fan_iso, "unimodular isomorphism certificate between two fan files")
    p.add_argument("left")
    p.add_argument("right")

    p = add("fan-gen", _cmd_fan_gen, "emit a built-in fan as a fan JSON document")
    p.add_argument("kind", choices=["hirzebruch", "proj", "f0-blowup"])
    p.add_argument("param", nargs="?", type=int)

    p = add("mf-profile", _cmd_mf_profile, "degree-2 generators and product table of a product")
    p.add_argument("descriptor")

    p = add("mf-count", _cmd_mf_count, "count square-zero classes of a product descriptor")
    p.add_argument("descriptor")
    p.add_argument("--mod", type=int, required=True, help="modulus (>= 2)")
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="has no effect: descriptors are counted by strata, and only "
        "enumeration runs in lanes",
    )

    p = add("mf-census", _cmd_mf_census, "real square-zero component census of a product")
    p.add_argument("descriptor")

    p = add("mf-poincare", _cmd_mf_poincare, "Poincare polynomial of a product descriptor")
    p.add_argument("descriptor")

    p = add("mf-normalize", _cmd_mf_normalize, "connected-sum normal form of (p, q, r)")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("r", type=int)

    p = add("recover", _cmd_recover, "invariant bundle and recovered multiset of a product")
    p.add_argument("descriptor")

    p = add("selftest", _cmd_selftest, "run the acceptance criteria and print a table")
    p.add_argument(
        "--only",
        action="append",
        choices=selftest_mod.CRITERION_NAMES,
        help="run a single criterion (repeatable)",
    )

    return parser


def run(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help (0) and usage errors (2)
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, BudgetError, DomainError) as exc:
        print(f"{_ERROR_PREFIXES[exc.exit_status]}: {exc}", file=sys.stderr)
        return exc.exit_status


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

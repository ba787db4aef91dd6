"""Batch command-line front end.

Subcommands: build-f (serialize the twisted standard complex), verify (run a
verification suite, emitting per-case verdicts and an append-only JSON-lines
certificate), hecke (evaluate small Kazhdan-Lusztig expressions), flatten
(flatten a cylindrical braid word), kl (expand a Kazhdan-Lusztig basis
element in the standard basis).

Output is deterministic byte-for-byte given the flags and seed.  The
environment variable AFFHECKE_OUT_DIR sets the default output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import traceback

from . import RefusedInput, braid, complexes, homalg, twist
from .hecke import HeckeElement, b_simple, kl_basis, term_key
from .rings import LaurentPoly
from .suites import descent_lemma_cases, ge_property_cases, proper_subsets
from .weyl import DEFAULT_LENGTH_CAP, ExtendedWeylElement, from_word

# largest n at which the exact bimodule complex is built and checked
BIMODULE_EXACT_MAX = 8


def _out_path(path, default_name):
    if path:
        return path
    base = os.environ.get("AFFHECKE_OUT_DIR", ".")
    return os.path.join(base, default_name)


def cmd_build_f(args):
    if args.n < 2:
        print(f"error: n must be at least 2, got {args.n}", file=sys.stderr)
        return 2
    if args.backend == "bimodule" and args.n > args.bimodule_cap:
        print(
            f"error: bimodule backend capped at n <= {args.bimodule_cap}",
            file=sys.stderr,
        )
        return 2
    f = complexes.build_F(args.n, args.backend)
    payload = f.to_json(args.n)
    text = json.dumps(payload, indent=1, sort_keys=True)
    out = _out_path(args.out, f"F_{args.n}_{args.backend}.json")
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(f"wrote {out} ({len(f.summands)} summands)")
    return 0


def _emit_certificate(args, record):
    path = _out_path(args.cert, "certificates.jsonl")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def _suite_d2(n, args):
    cases = []
    if n <= BIMODULE_EXACT_MAX:
        ok, _ = complexes.check_d2_exact(n)
        cases.append((f"bimodule d^2 = mu.delta at n={n}", ok))
    cases.append((f"sign-level d^2 cancellation at n={n}", complexes.check_d2_signs(n)))
    return cases


def _suite_phi_n2(n, args):
    if n != 2:
        raise RefusedInput(f"phi-n2 checks n = 2 only, got n={n}")
    return [(f"square {k}", True) for k in sorted(twist.verify_phi_squares_n2())]


# suite -> (n when --n is not given, run(n, args) -> [(case name, verdict)])
SUITES = {
    "d2": (3, _suite_d2),
    "wakimoto": (3, lambda n, args: [
        (f"wakimoto filtration n={n}", complexes.verify_wakimoto(n)),
    ]),
    "descent": (3, lambda n, args: descent_lemma_cases(n)),
    "tensorbi": (3, lambda n, args: [
        (f"I={sorted(I)}", complexes.tensorBI_object_GE(n, I)["verdict"] == "pass")
        for I in proper_subsets(n)
    ]),
    "crossover": (3, lambda n, args: [
        (f"I={sorted(I)}", complexes.verify_N_equals_M(n, I))
        for I in proper_subsets(n)
    ]),
    "homotopy-h": (3, lambda n, args: [
        (f"x1 commutation n={n}", complexes.verify_x1_commutation(n)),
    ]),
    "phi-n2": (2, _suite_phi_n2),
    "ge-props": (3, lambda n, args: ge_property_cases(seed=args.seed, count=args.count)),
}


def cmd_verify(args):
    default_n, run = SUITES[args.suite]
    if args.n is None:
        args.n = default_n
    summary = None
    try:
        cases = run(args.n, args)
    except Exception as exc:  # every input ends in a verdict
        refused = isinstance(exc, RefusedInput)  # needs no traceback, unlike a fault
        if not refused:
            traceback.print_exc()
        cases, failed = [], [f"{'ValueError' if refused else type(exc).__name__}: {exc}"]
        print(f"FAIL: {failed[0]}")
    else:
        failed = [name for name, ok in cases if not ok]
        for name, ok in cases:
            print(f"{'PASS' if ok else 'FAIL'}: {name}")
        summary = f"suite {args.suite}: {len(cases) - len(failed)}/{len(cases)} cases pass"
    _emit_certificate(
        args,
        {
            "theorem": args.suite,
            "n": args.n,
            "parameters": {"seed": args.seed},
            "steps": [name for name, _ in cases],
            "verdict": "pass" if not failed else f"fail: {failed[0]}",
        },
    )
    if summary:
        print(summary)
    return 0 if not failed else 1


def _parse_hecke_expr(n, text):
    """Tiny grammar: sums of products of b<i>, h<i>, w, w-, v, v-1, integers."""
    if "(" in text or ")" in text:
        raise ValueError(f"parentheses are not in the grammar: {text!r}")
    # w-, v-1, b<i> and h<i> (i may be negative), and a signed integer after
    # a space, * or +, are single terms; any other "-" is a binary or unary minus
    tokens = r"w-|v-1|[bh]-?[^\s*+-]*|(?<![^\s*+])-\d[^\s*+-]*|[^\s*+-]+|[-+*]"
    total = current = term_end = None
    sign = 1

    def flush():
        nonlocal total, current
        if current is not None:
            scaled = current.scale(LaurentPoly({0: sign})) if sign < 0 else current
            total = scaled if total is None else total + scaled
        current = None

    for match in re.finditer(tokens, text):
        tok = match.group()
        if tok in ("+", "-"):
            flush()
            sign = -1 if tok == "-" else 1
            continue
        if tok == "*":
            continue
        if match.start() == term_end:  # as in "v-10" or "w-b1"
            raise ValueError(f"no space or operator before {tok!r} in {text!r}")
        term_end = match.end()
        if tok.startswith("b"):
            factor = b_simple(n, int(tok[1:]) % n)
        elif tok.startswith("h"):
            factor = HeckeElement.std(ExtendedWeylElement.simple(n, int(tok[1:]) % n))
        elif tok in ("w", "w-"):
            factor = HeckeElement.std(ExtendedWeylElement.rotation(n, -1 if tok == "w-" else 1))
        elif tok in ("v", "v-1"):
            factor = HeckeElement.unit(n).scale(LaurentPoly.v(-1 if tok == "v-1" else 1))
        else:
            factor = HeckeElement.unit(n).scale(LaurentPoly({0: int(tok)}))
        current = factor if current is None else current * factor
    flush()
    if total is None:
        raise ValueError(f"empty expression {text!r}")
    return total


def _kl_expand(element):
    """Write a Hecke element in the Kazhdan-Lusztig basis, largest first."""
    rest = element
    parts = []
    while not rest.is_zero():
        w = max(rest.coeffs, key=lambda u: term_key(u)[0])
        coeff = rest.coefficient(w)
        rest = rest - kl_basis(w).scale(coeff)
        name = f"b({w})"
        parts.append(f"({coeff}) {name}")
    return " + ".join(parts) if parts else "0"


def cmd_hecke(args):
    try:
        value = _parse_hecke_expr(args.n, args.expr)
    except (ValueError, IndexError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    longest = max((w.length() for w in value.coeffs), default=0)
    if longest > DEFAULT_LENGTH_CAP:  # each b_w that _kl_expand subtracts lies below w
        print(f"error: length {longest} exceeds cap {DEFAULT_LENGTH_CAP}", file=sys.stderr)
        return 2
    print("standard basis:")
    print(value.serialize() if not value.is_zero() else "0")
    print("kazhdan-lusztig basis:")
    print(_kl_expand(value))
    return 0


def cmd_flatten(args):
    try:
        b = braid.parse(args.n, args.word)
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    print(str(braid.flatten(b)))
    return 0


def cmd_kl(args):
    try:
        w = from_word(args.n, args.word.split())
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    if w.length() > args.length_cap:
        print(f"error: length {w.length()} exceeds cap {args.length_cap}", file=sys.stderr)
        return 2
    print(kl_basis(w, args.length_cap).serialize())
    return 0


def cmd_load_verify(args):
    """Reload a serialized complex and re-check d^2 without rebuilding.

    The summands must be those of F_n for the file's n and backend (sign or
    bimodule); no morphism is built for the comparison.  Every input ends in
    a verdict: an unreadable or inconsistent file, such as truncated JSON or
    a differential entry naming no summand, is a FAIL with its reason, not a
    traceback.
    """
    try:
        return _load_verify(args.path)
    except Exception as exc:  # every input ends in a verdict
        if not isinstance(exc, ValueError):  # a file the reader refuses needs no traceback
            traceback.print_exc()
        print(f"FAIL: {type(exc).__name__}: {exc}")
        return 1


def _load_verify(path):
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    for field in ("n", "backend"):
        if data.get(field) is None:
            print(f'FAIL: missing field "{field}"')
            return 1
    n, backend = data["n"], data["backend"]
    if backend not in ("sign", "bimodule"):
        print(f"FAIL: check-file reads sign and bimodule files, not backend {backend!r}")
        return 1
    if type(n) is not int or n < 2:
        print("FAIL: n must be an int of at least 2")
        return 1
    # F_n has n 2^(n-1) summands B_X(k), one per proper X of Z/n and degree k
    # with X in P_k; the count goes before decoding (quadratic in n per term) and
    # P_n, and bounds n by its bit length before 2^(n-1) is formed
    size = len(data["summands"]) if isinstance(data.get("summands"), list) else None
    expected = n * 2 ** (n - 1) if n <= 64 else f"{n}*2^{n - 1}"
    differ = f"FAIL: summands differ from F_{n} ({size} loaded, {expected} expected)"
    if size is not None and (n - 1 >= size.bit_length() or n * 2 ** (n - 1) != size):
        print(differ)
        return 1
    p = homalg.Pseudocomplex.from_json(data)
    if {(s.label, s.shift, s.degree) for s in p.summands} != {
        (complexes.summand_label(n, X, backend), k, k)
        for k, layer in complexes.build_P(n).items()
        for X in layer
    }:
        print(differ)
        return 1
    if backend == "bimodule":
        ok, entries = complexes.check_d2_exact(n, p)
        if not ok:
            print(f"FAIL: mu differs from monodromy_map ({entries} mu entries)")
            return 1
        print(f"d^2 divisible by delta: PASS ({entries} mu entries)")
        return 0
    ok = complexes.check_d2_signs(n, p)
    print(f"sign-level d^2 on the loaded data: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(prog="affhecke")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build-f", help="build and serialize the standard complex")
    p_build.add_argument("--n", type=int, required=True)
    p_build.add_argument("--backend", choices=("sign", "bimodule"), default="sign")
    p_build.add_argument("--out", default=None)
    p_build.add_argument("--bimodule-cap", type=int, default=BIMODULE_EXACT_MAX)
    p_build.set_defaults(func=cmd_build_f)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=SUITES, required=True)
    p_verify.add_argument(
        "--n", type=int, default=None, help="default: 2 for phi-n2, 3 for the other suites"
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--count", type=int, default=100)
    p_verify.add_argument("--cert", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_hecke = sub.add_parser("hecke", help="evaluate a Hecke algebra expression")
    p_hecke.add_argument("--n", type=int, required=True)
    p_hecke.add_argument("--expr", required=True)
    p_hecke.set_defaults(func=cmd_hecke)

    p_flat = sub.add_parser("flatten", help="flatten a cylindrical braid word")
    p_flat.add_argument("--n", type=int, required=True)
    p_flat.add_argument("--word", required=True)
    p_flat.set_defaults(func=cmd_flatten)

    p_kl = sub.add_parser("kl", help="Kazhdan-Lusztig basis element of a word")
    p_kl.add_argument("--n", type=int, required=True)
    p_kl.add_argument("--word", required=True)
    p_kl.add_argument("--length-cap", type=int, default=DEFAULT_LENGTH_CAP)
    p_kl.set_defaults(func=cmd_kl)

    p_load = sub.add_parser("check-file", help="reload a complex and verify d^2")
    p_load.add_argument("path")
    p_load.set_defaults(func=cmd_load_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

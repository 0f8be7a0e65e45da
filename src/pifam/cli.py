"""Command-line surface: constructions, certificates, search, and reports.

Exit codes: 0 success, 1 input or validation failure or a failed
certificate check (CertificateError, reported as "error: ..."), 2 capacity
limit or out of memory (MemoryError, "error: out of memory").  A reader
that closes stdout early (`pifam ... | head -1`) gets exit 1 with nothing
more printed.
All human-facing indices are 1-based; all behavior is flag-driven.
Each command imports the library functions it calls when it runs, so a
process runs only the submodules its command uses (see `pifam`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .setsys import (
    CapacityError,
    CertificateError,
    ParameterError,
    family_from_dict,
    family_to_dict,
    mask_to_points,
    violations,
)

if TYPE_CHECKING:
    from .construct import HadamardMatrix


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)  # --help prints here
        except SystemExit as exc:  # argparse exits 2 on usage errors; remap to 1
            code = 0 if exc.code in (0, None) else 1
        else:
            code = args.func(args)
        sys.stdout.flush()  # a closed reader fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # as the signal module docs advise: send the rest to devnull so the
        # exit-time flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (CapacityError, MemoryError) as exc:  # the unwound call has freed what it held
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except (CertificateError, ValueError, OSError) as exc:  # ParameterError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pifam",
        description="Exact search, construction, and certification of maximum "
        "pairwise-independent event families on {1..n}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gmax", help="compute g(n) and f(n) with a witness family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=["search", "construct", "auto"], default="auto")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gmax)

    p = sub.add_parser("hadamard", help="emit a Hadamard matrix")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--method", choices=["sylvester", "paley", "auto"], default="auto")
    p.add_argument("--out", type=Path)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_hadamard)

    p = sub.add_parser("design", help="build or check 2-designs")
    dsub = p.add_subparsers(dest="design_command", required=True)
    d = dsub.add_parser("from-hadamard", help="symmetric design from a Hadamard matrix")
    _add_matrix_source(d)
    d.add_argument("--out", type=Path)
    d.set_defaults(func=_cmd_design_from_hadamard)
    d = dsub.add_parser("projective-plane", help="plane of prime order q")
    d.add_argument("--q", type=int, required=True)
    d.add_argument("--out", type=Path)
    d.set_defaults(func=_cmd_design_plane)
    d = dsub.add_parser("check", help="verify the design axioms of a file")
    d.add_argument("file", type=Path)
    d.set_defaults(func=_cmd_design_check)

    p = sub.add_parser("family", help="build or certify event families")
    fsub = p.add_subparsers(dest="family_command", required=True)
    f = fsub.add_parser("from-design", help="dualize a 2-design into a family")
    f.add_argument("file", type=Path)
    f.add_argument("--out", type=Path)
    f.set_defaults(func=_cmd_family_from_design)
    f = fsub.add_parser("from-hadamard", help="maximum family from a Hadamard matrix")
    _add_matrix_source(f)
    f.add_argument("--out", type=Path)
    f.set_defaults(func=_cmd_family_from_hadamard)
    f = fsub.add_parser("verify", help="check nonemptiness and pairwise independence")
    f.add_argument("file", type=Path)
    f.set_defaults(func=_cmd_family_verify)
    f = fsub.add_parser("gram", help="print the exact Gram/rank certificate")
    f.add_argument("file", type=Path)
    f.set_defaults(func=_cmd_family_gram)

    p = sub.add_parser("johnson", help="clique number of the r-subsets/s-intersection graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_johnson)

    p = sub.add_parser("conjecture", help="certify g(n) = n over multiples of four")
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(func=_cmd_conjecture)

    return parser


def _add_matrix_source(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--order", type=int, help="generate a matrix of this order")
    src.add_argument("--matrix", type=Path, help="read a matrix file (text or JSON)")


def _matrix_from_args(args: argparse.Namespace) -> HadamardMatrix:
    from .construct import hadamard_from_json, hadamard_from_text, hadamard_matrix

    if args.matrix is None:
        return hadamard_matrix(args.order)
    try:
        text = args.matrix.read_text()
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{args.matrix} is not a text file: {exc}") from exc
    if text.lstrip().startswith("["):
        return hadamard_from_json(_load_json(args.matrix, text))
    return hadamard_from_text(text)


def _load_json(path: Path, text: str | None = None):
    try:
        return json.loads(path.read_text() if text is None else text)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:  # deep nesting recurses
        raise ParameterError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an int past the digit limit: Python's own message takes 130 bytes
        raise ParameterError(f"{path} is not valid JSON: an integer has too many digits") from exc


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        out.write_text(text if text.endswith("\n") else text + "\n")
        print(f"wrote {out}")


def _cmd_gmax(args: argparse.Namespace) -> int:
    from .search import g_exact

    result = g_exact(args.n, args.method)
    witness = {"n": args.n, "events": [list(mask_to_points(m)) for m in result.witness]}
    if args.json:
        payload = {
            "n": args.n,
            "g": result.size,
            "f": result.size + 1,
            "optimal": result.optimal,
            "method": result.method,
            "nodes_explored": result.nodes_explored,
            "witness": witness,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"g({args.n}) = {result.size}")
        print(f"f({args.n}) = {result.size + 1}")
        print(f"optimal: {'yes' if result.optimal else 'no'} ({result.method})")
        print("witness family:")
        for points in witness["events"]:
            print("  {" + ",".join(map(str, points)) + "}")
    return 0


def _cmd_hadamard(args: argparse.Namespace) -> int:
    from .construct import hadamard_matrix, hadamard_to_json, hadamard_to_text

    h = hadamard_matrix(args.order, args.method)
    if args.format == "json":
        _emit(json.dumps(hadamard_to_json(h)), args.out)
    else:
        _emit(hadamard_to_text(h), args.out)
    return 0


def _cmd_design_from_hadamard(args: argparse.Namespace) -> int:
    from .construct import design_to_dict, hadamard_to_design

    design = hadamard_to_design(_matrix_from_args(args))
    _emit(json.dumps(design_to_dict(design), indent=2), args.out)
    return 0


def _cmd_design_plane(args: argparse.Namespace) -> int:
    from .construct import design_to_dict, projective_plane

    design = projective_plane(args.q)
    _emit(json.dumps(design_to_dict(design), indent=2), args.out)
    return 0


def _cmd_design_check(args: argparse.Namespace) -> int:
    from .construct import check_design, design_from_dict

    design = design_from_dict(_load_json(args.file))
    report = check_design(design)
    print(f"design: 2-({design.v},{design.k},{design.lam}), {design.b} blocks")
    print(f"symmetric (b = v): {'yes' if report.symmetric else 'no'}")
    if report.symmetric:
        note = "all equal lambda" if report.intersections_ok else "NOT all equal lambda"
        print(f"pairwise block intersections: {note}")
    if report.ok:
        print("PASS")
        return 0
    print(f"FAIL: {report.first_violation}")
    return 1


def _cmd_family_from_design(args: argparse.Namespace) -> int:
    from .construct import design_from_dict, dualize_design

    design = design_from_dict(_load_json(args.file))
    family = dualize_design(design)
    r = family.events[0].size
    lam = design.lam
    print(f"dualized 2-({design.v},{design.k},{design.lam}) design: "
          f"r = {r}, n = r^2/lambda = {r * r // lam}")
    _emit(json.dumps(family_to_dict(family), indent=2), args.out)
    return 0


def _cmd_family_from_hadamard(args: argparse.Namespace) -> int:
    from .construct import hadamard_family

    family = hadamard_family(_matrix_from_args(args))
    _emit(json.dumps(family_to_dict(family), indent=2), args.out)
    return 0


def _cmd_family_verify(args: argparse.Namespace) -> int:
    family = family_from_dict(_load_json(args.file))
    failures = list(violations(family))
    if failures:
        print(f"FAIL: {len(failures)} violation(s)")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"PASS: {len(family)} nonempty pairwise-independent events on "
          f"{{1..{family.space.n}}}")
    return 0


def _cmd_family_gram(args: argparse.Namespace) -> int:
    from .exactlin import gram_certify

    family = family_from_dict(_load_json(args.file))
    report = gram_certify(family)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def _cmd_johnson(args: argparse.Namespace) -> int:
    from .search import implied_f_bound, johnson_omega

    result = johnson_omega(args.n, args.r, args.s)
    bound = implied_f_bound(args.n, args.r, args.s, result.size)
    if args.json:
        payload = {
            "n": args.n,
            "r": args.r,
            "s": args.s,
            "f_lower_bound": bound,
            **result.to_dict(),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"omega({args.n},{args.r},{args.s}) = {result.size} "
              f"({'optimal' if result.optimal else 'lower bound'}, {result.method})")
        print("witness:")
        for mask in result.witness:
            print("  {" + ",".join(map(str, mask_to_points(mask))) + "}")
        if bound is not None:
            print(f"implies f({args.n}) >= {bound} (since n*s = r^2)")
    return 0


def _cmd_conjecture(args: argparse.Namespace) -> int:
    from .search import conjecture_sweep

    rows = conjecture_sweep(args.max)
    print(f"{'n':>4}  {'g(n)':>5}  {'method':<24}  verdict")
    for row in rows:
        g = "?" if row.g is None else str(row.g)
        method = row.method or "-"
        print(f"{row.n:>4}  {g:>5}  {method:<24}  {row.verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: classify, roots, weights, series, verify.

Input is a single JSON document:
    {"cartan": [[2,-1],[-1,2]], "lambda": ["3", "-5/2"], "labels": ["1","2"]}
with rationals as strings for end-to-end exactness.  Exit codes:
0 success/PASS, 1 verification FAIL, 2 input error, 3 method inapplicable,
4 budget exceeded, 141 (128 + SIGPIPE) stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys
from collections.abc import Sequence
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import comb
from operator import mul

from . import modweights, oracle, roots, series, verify
from .cartan import GCM, classify, parse_gcm, symmetrizable
from .errors import BudgetExceeded, InputError, KMError
from .weights import HighestWeight, Offset, neg

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

# Most offsets of height <= --height that one command may scan: every output
# truncated at H is picked from the C(H + n, n) offsets of rank n.
OFFSET_BUDGET = 10 ** 5

# The spellings of a `lambda` string; Fraction alone also takes "1_0", "1e2", " 1 ".
RATIONAL = re.compile(r"[+-]?(\d+(/\d+)?|\d*\.\d+)", re.ASCII)


def load_problem(path: str) -> tuple[GCM, HighestWeight | None]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read input document: {exc}") from None
    if not isinstance(doc, dict) or "cartan" not in doc:
        raise InputError("input must be a JSON object with a 'cartan' matrix")
    if extra := sorted(set(doc) - {"cartan", "lambda", "labels"}):
        raise InputError(f"unknown key {extra[0]!r} in the input document")
    if "labels" in doc and doc["labels"] is None:
        raise InputError("labels must be a list of strings, got None")
    g = parse_gcm(doc["cartan"], doc.get("labels"))
    lam = None
    if "lambda" in doc:
        if not isinstance(doc["lambda"], list):
            raise InputError("lambda must be a list of rationals")
        # A JSON float is already rounded to binary, so only exact spellings pass.
        if bad := [v for v in doc["lambda"] if type(v) not in (str, int)]:
            raise InputError(f"lambda entries must be strings or integers, got {bad[0]!r}")
        if bad := [v for v in doc["lambda"] if type(v) is str and not RATIONAL.fullmatch(v)]:
            raise InputError(f"bad rational in lambda: {bad[0]!r}")
        try:
            vals = [Fraction(v) for v in doc["lambda"]]
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational in lambda: {exc}") from None
        if len(vals) != g.n:
            raise InputError(f"lambda has {len(vals)} entries, expected {g.n}")
        lam = HighestWeight(tuple(vals))
    return g, lam


def _need_lambda(lam: HighestWeight | None) -> HighestWeight:
    if lam is None:
        raise InputError("this command requires a 'lambda' entry in the input")
    return lam


def _weight_set_json(
    args, lam: HighestWeight, g: GCM, ws: modweights.WeightSet
) -> dict[str, object]:
    members = sorted(ws.members)
    out: dict[str, object] = {
        "method": args.method,
        "height": args.height,
        "offsets": [list(c) for c in members],
        "pairings": _pairing_texts(lam, g, members),
    }
    if args.method == "hull":
        if args.depth is not None:
            out["depth"] = args.depth
        out["complete"] = ws.complete
    if args.method == "oracle":
        out["advisory"] = symmetrizable(g) is None
    return out


def _pairing_texts(lam: HighestWeight, g: GCM, members: list[Offset]) -> list[list[str]]:
    """str(pairing(lam, g, c, i)) for each member c and node i, from integers:
    for q_i = p/d in lowest terms the pairing is v/d, v = p - d (A c)_i, and
    gcd(v, d) = gcd(p, d) = 1, so v/d is in lowest terms too."""
    nodes = [(q.numerator, q.denominator, row) for q, row in zip(lam.q, g.a)]
    return [[str(p - d * sum(map(mul, row, c))) + (f"/{d}" if d > 1 else "")
             for p, d, row in nodes] for c in members]


def _default_projection(n: int) -> list[list[Fraction]]:
    if n == 1:
        return [[Fraction(1)], [Fraction(0)]]
    if n == 2:
        return [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    if n == 3:
        # Symmetric triangular projection of the three simple directions.
        return [
            [Fraction(1), Fraction(-1, 2), Fraction(-1, 2)],
            [Fraction(0), Fraction(7, 8), Fraction(-7, 8)],
        ]
    raise InputError(f"no default projection for rank {n}")


def emit_svg(g: GCM, ws: modweights.WeightSet, hull: modweights.HullModel) -> str:
    """Deterministic SVG: weight dots, projected hull polygon, ray arrows."""
    proj = _default_projection(g.n)

    def project(c: Sequence[int]) -> tuple[Fraction, ...]:
        # Weight lambda - sum c_i alpha_i drawn with lambda at the origin.
        return tuple(-sum(row[i] * c[i] for i in range(g.n)) for row in proj)

    dots = [project(c) for c in sorted(ws.members)]
    hull2d = _convex_hull_2d([project(v) for v in hull.vertices])
    # A ray is a weight-space direction; the offset grows along -r.
    rays = [project(neg(r)) for r in sorted(hull.rays)]

    scale = Fraction(40)
    pts = dots + hull2d + [(0, 0)]
    xs = [p[0] * scale for p in pts]
    ys = [-p[1] * scale for p in pts]
    pad = Fraction(30)
    minx, maxx = min(xs) - pad, max(xs) + pad
    miny, maxy = min(ys) - pad, max(ys) + pad

    def fmt(v: Fraction) -> str:
        return f"{float(v):.3f}"

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{fmt(minx)} {fmt(miny)} {fmt(maxx - minx)} {fmt(maxy - miny)}">'
    ]
    if len(hull2d) >= 2:
        path = " ".join(f"{fmt(x * scale)},{fmt(-y * scale)}" for x, y in hull2d)
        lines.append(
            f'<polygon points="{path}" fill="#c8d8f0" stroke="#4060a0" stroke-width="1"/>'
        )
    for dx, dy in rays:
        lines.append(
            f'<line x1="0" y1="0" x2="{fmt(dx * 3 * scale)}" y2="{fmt(-dy * 3 * scale)}" '
            'stroke="#a04040" stroke-width="1" stroke-dasharray="4 3"/>'
        )
    for x, y in dots:
        lines.append(
            f'<circle cx="{fmt(x * scale)}" cy="{fmt(-y * scale)}" r="3" fill="#202020"/>'
        )
    lines.append(
        '<circle cx="0" cy="0" r="4" fill="none" stroke="#202020" stroke-width="1.5"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _convex_hull_2d(
    pts: list[tuple[Fraction, Fraction]]
) -> list[tuple[Fraction, Fraction]]:
    """Strict vertices, counter-clockwise, by Andrew's monotone chain with exact tests."""
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(points) -> list:
        chain: list = []
        for p in points:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain[:-1]

    return half(pts) + half(reversed(pts))


def _emit(doc: object, out) -> None:
    out.write(_json_text(doc, "\n"))  # a second write, not a "+" copy: lower peak memory
    out.write("\n")


_JSON_CONSTANTS = {True: "true", False: "false", None: "null"}


def _json_text(v: object, newline: str) -> str:
    """json.dumps(v, indent=2, sort_keys=True) by str.join, one level per call, where
    `newline` is a line break plus the indent of v's own line."""
    if type(v) is int:
        return str(v)
    if type(v) is str:
        return encode_basestring_ascii(v)  # the ASCII escapes json.dumps writes
    if not isinstance(v, (dict, list, tuple)):
        return _JSON_CONSTANTS[v] if type(v) is bool or v is None else json.dumps(v)
    inner = newline + "  "
    items = ([encode_basestring_ascii(k) + ": " + _json_text(v[k], inner) for k in sorted(v)]
             if isinstance(v, dict) else [_json_text(x, inner) for x in v])
    ends = "{}" if isinstance(v, dict) else "[]"
    return ends[0] + inner + ("," + inner).join(items) + newline + ends[1] if items else ends


def _nonnegative_int(text: str) -> int:
    # ASCII digits only: int() would also take "1_0", " 4", "+4" and "\u0664".  At most
    # 640 digits, the least int digit limit Python admits, so int() cannot raise.
    digits = text.isascii() and text.isdigit()
    if digits and len(text) <= 640:
        return int(text)
    got = f"{len(text)} digits" if digits else repr(text)
    raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {got}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The whole parser tree, built once per process; parse_args keeps no state."""
    parser = argparse.ArgumentParser(prog="kmweights")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True)

    sub.add_parser("classify", parents=[common])

    p = sub.add_parser("roots", parents=[common])
    p.add_argument("--height", type=_nonnegative_int, required=True)
    p.add_argument("--kind", choices=["real", "imaginary"], default="real")

    p = sub.add_parser("weights", parents=[common])
    p.add_argument("--method", choices=["slice", "orbit", "hull", "oracle"],
                   default="slice")
    p.add_argument("--height", type=_nonnegative_int, required=True)
    p.add_argument("--depth", type=_nonnegative_int, default=None)
    p.add_argument("--format", choices=["json", "svg"], default="json")

    p = sub.add_parser("series", parents=[common])
    p.add_argument("--formula", choices=["wkw", "ab"], required=True)
    p.add_argument("--height", type=_nonnegative_int, required=True)

    p = sub.add_parser("verify", parents=[common])
    p.add_argument("--check", required=True,
                   choices=["cross", "wkw", "denominator", "macdonald",
                            "integrability"])
    p.add_argument("--height", type=_nonnegative_int, default=8)
    p.add_argument("--expect-fail", action="store_true")
    return parser


def run(argv: Sequence[str], stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            args = _parser().parse_args(argv)
    except SystemExit as exc:  # --help exits 0, a usage error 2
        return EXIT_OK if exc.code == 0 else EXIT_INPUT

    try:
        return _dispatch(args, stdout)
    except KMError as exc:
        print(f"{exc.kind}: {exc}", file=stderr)
        return exc.exit_code


def _dispatch(args, stdout) -> int:
    g, lam = load_problem(args.input)
    # The denominator check reads no height; every other height is checked here.
    height = getattr(args, "height", None)
    if height is not None and getattr(args, "check", None) != "denominator":
        count = comb(height + g.n, g.n)
        if count > OFFSET_BUDGET:
            raise BudgetExceeded(
                f"{count} offsets of height <= {height} at rank {g.n};"
                f" budget {OFFSET_BUDGET}"
            )

    if args.command == "classify":
        out = [
            {"nodes": [g.labels[i] for i in comp], "type": t.value}
            for comp, t in classify(g)
        ]
        _emit(out, stdout)
        return EXIT_OK

    if args.command == "roots":
        if args.kind == "real":
            found = roots.positive_real_up_to(g, args.height)
        else:
            found = roots.positive_imaginary_up_to(g, args.height)
        _emit([list(c) for c in sorted(found)], stdout)
        return EXIT_OK

    if args.command == "weights":
        lam = _need_lambda(lam)
        if args.format == "svg":
            _default_projection(g.n)  # refuse an undrawable rank before any work
        model = None
        if args.method == "hull" or args.format == "svg":
            model = modweights.hull_model(lam, g, args.height, args.depth)
        if args.method == "slice":
            ws = modweights.wt_simple_slice(lam, g, args.height)
        elif args.method == "orbit":
            ws = modweights.wt_simple_orbit(lam, g, args.height)
        elif args.method == "hull":
            ws = modweights.hull_weight_set(model, args.height)
        else:
            ws = oracle.oracle_weight_set(lam, g, args.height)
        if args.format == "svg":
            stdout.write(emit_svg(g, ws, model))
        else:
            _emit(_weight_set_json(args, lam, g, ws), stdout)
        return EXIT_OK

    if args.command == "series":
        lam = _need_lambda(lam)
        if args.formula == "wkw":
            s = series.wkw_sum(lam, g, args.height)
        else:
            s = series.atiyah_bott_sum(lam, g, args.height)
        _emit(verify.series_json(s.terms), stdout)
        return EXIT_OK

    # argparse admits only the five subcommands, so this one is "verify".
    if args.check == "denominator":
        report = verify.verify_denominator_bases(g)
    elif args.check == "macdonald":
        report = verify.verify_rank2_macdonald(g, args.height)
    elif args.check == "wkw":
        report = verify.verify_wkw_vs_weights(_need_lambda(lam), g, args.height)
    elif args.check == "integrability":
        report = verify.check_integrability_invariants(
            _need_lambda(lam), g, args.height
        )
    else:  # cross-formula set equality
        report = verify.verify_cross(_need_lambda(lam), g, args.height)
    _emit(report.to_json(), stdout)
    if report.passed:
        return EXIT_OK
    if report.expected_failure and args.expect_fail:
        return EXIT_OK
    return EXIT_FAIL


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:  # exit as SIGPIPE would, and leave no stdout to flush at exit
        code, sys.stdout = 141, None
    sys.exit(code)


if __name__ == "__main__":
    main()

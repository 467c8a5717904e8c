"""Command-line surface: classify, roots, weights, series, verify.

Input is a single JSON document:
    {"cartan": [[2,-1],[-1,2]], "lambda": ["3", "-5/2"], "labels": ["1","2"]}
with rationals as strings for end-to-end exactness.  Exit codes:
0 success/PASS, 1 verification FAIL, 2 input error, 3 method inapplicable,
4 budget or cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Any, Optional, Sequence

from . import modweights, oracle, roots, series, verify
from .cartan import GCM, classify, parse_gcm
from .errors import (
    BudgetExceeded,
    CapExceeded,
    FiniteType,
    InfiniteStabilizer,
    InvalidGCM,
    KMError,
    NotDominantIntegral,
    NotFiniteType,
    NotIntegrable,
    WrongRank,
)
from .weights import HighestWeight, fraction_str, pairing

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INAPPLICABLE = 3
EXIT_BUDGET = 4

_INAPPLICABLE = (InfiniteStabilizer, NotFiniteType, FiniteType, WrongRank,
                 NotDominantIntegral, NotIntegrable)


class InputError(Exception):
    pass


def load_problem(path: str) -> tuple[GCM, Optional[HighestWeight]]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read input document: {exc}") from None
    if not isinstance(doc, dict) or "cartan" not in doc:
        raise InputError("input must be a JSON object with a 'cartan' matrix")
    try:
        g = parse_gcm(doc["cartan"], doc.get("labels"))
    except InvalidGCM as exc:
        raise InputError(str(exc)) from None
    lam = None
    if "lambda" in doc:
        try:
            vals = [Fraction(str(v)) for v in doc["lambda"]]
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational in lambda: {exc}") from None
        if len(vals) != g.n:
            raise InputError(f"lambda has {len(vals)} entries, expected {g.n}")
        lam = HighestWeight(tuple(vals))
    return g, lam


def _need_lambda(lam: Optional[HighestWeight]) -> HighestWeight:
    if lam is None:
        raise InputError("this command requires a 'lambda' entry in the input")
    return lam


def _weight_set_json(
    lam: HighestWeight, g: GCM, ws: modweights.WeightSet, depth: Optional[int]
) -> dict[str, Any]:
    out: dict[str, Any] = {
        "method": ws.method,
        "height": ws.bound,
        "offsets": [list(c) for c in ws.sorted_members()],
        "pairings": [
            [fraction_str(pairing(lam, g, c, i)) for i in range(g.n)]
            for c in ws.sorted_members()
        ],
    }
    if depth is not None:
        out["depth"] = depth
    if ws.method == "hull":
        out["complete"] = ws.complete
    return out


def _series_json(s: series.TruncSeries) -> list[dict[str, Any]]:
    return [{"offset": list(c), "coefficient": v} for c, v in s.sorted_items()]


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


def emit_svg(
    lam: HighestWeight,
    g: GCM,
    ws: modweights.WeightSet,
    hull: modweights.HullModel,
    projection: Optional[Sequence[Sequence[Fraction]]] = None,
) -> str:
    """Deterministic SVG: weight dots, projected hull polygon, ray arrows."""
    proj = projection if projection is not None else _default_projection(g.n)
    if _matrix_rank2(proj) != min(2, g.n):
        raise InputError("projection must have full rank")

    def project(c: Sequence[int]) -> tuple[Fraction, Fraction]:
        # Weight lambda - sum c_i alpha_i drawn with lambda at the origin.
        x = -sum(proj[0][i] * c[i] for i in range(g.n))
        y = -sum(proj[1][i] * c[i] for i in range(g.n))
        return (x, y)

    dots = [project(c) for c in ws.sorted_members()]
    verts = [project(v) for v in sorted(hull.vertices)]
    hull2d = _convex_hull_2d(sorted(set(verts)))
    rays = []
    for r in sorted(hull.rays):
        # Ray direction in weight space; the offset grows along -r.
        dx = sum(proj[0][i] * r[i] for i in range(g.n))
        dy = sum(proj[1][i] * r[i] for i in range(g.n))
        rays.append((dx, dy))

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


def _matrix_rank2(proj: Sequence[Sequence[Fraction]]) -> int:
    n = len(proj[0])
    if any(proj[0][i] != 0 or proj[1][i] != 0 for i in range(n)):
        for i in range(n):
            for j in range(i + 1, n):
                if proj[0][i] * proj[1][j] - proj[0][j] * proj[1][i] != 0:
                    return 2
        return 1
    return 0


def _convex_hull_2d(
    pts: list[tuple[Fraction, Fraction]]
) -> list[tuple[Fraction, Fraction]]:
    """Andrew monotone chain with exact orientation tests."""
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _emit(doc: Any, out) -> None:
    json.dump(doc, out, indent=2, sort_keys=True)
    out.write("\n")


def run(argv: Sequence[str], stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    parser = argparse.ArgumentParser(prog="kmweights")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify")
    p.add_argument("--input", required=True)

    p = sub.add_parser("roots")
    p.add_argument("--input", required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--kind", choices=["real", "imaginary"], default="real")

    p = sub.add_parser("weights")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=["slice", "orbit", "hull", "oracle"],
                   default="slice")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--format", choices=["json", "svg"], default="json")

    p = sub.add_parser("series")
    p.add_argument("--input", required=True)
    p.add_argument("--formula", choices=["wkw", "ab"], required=True)
    p.add_argument("--height", type=int, required=True)

    p = sub.add_parser("verify")
    p.add_argument("--input", required=True)
    p.add_argument("--check", required=True,
                   choices=["cross", "wkw", "denominator", "macdonald",
                            "integrability"])
    p.add_argument("--height", type=int, default=8)
    p.add_argument("--expect-fail", action="store_true")

    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return EXIT_INPUT

    try:
        return _dispatch(args, stdout)
    except InputError as exc:
        print(f"input error: {exc}", file=stderr)
        return EXIT_INPUT
    except _INAPPLICABLE as exc:
        print(f"method inapplicable: {exc}", file=stderr)
        return EXIT_INAPPLICABLE
    except (CapExceeded, BudgetExceeded) as exc:
        print(f"budget exceeded: {exc}", file=stderr)
        return EXIT_BUDGET
    except KMError as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_INPUT


def _dispatch(args, stdout) -> int:
    g, lam = load_problem(args.input)

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
        if args.method == "slice":
            ws = modweights.wt_simple_slice(lam, g, args.height)
        elif args.method == "orbit":
            ws = modweights.wt_simple_orbit(lam, g, args.height)
        elif args.method == "hull":
            ws = modweights.wt_simple_hull(lam, g, args.height, args.depth)
        else:
            ws = oracle.oracle_weight_set(lam, g, args.height)
        if args.format == "svg":
            from .weights import integrability_set

            depth = args.depth if args.depth is not None else 2 * args.height + 4
            hull = modweights.hull_generators(
                lam, g, sorted(integrability_set(lam)), depth
            )
            stdout.write(emit_svg(lam, g, ws, hull))
        else:
            _emit(_weight_set_json(lam, g, ws, args.depth), stdout)
        return EXIT_OK

    if args.command == "series":
        lam = _need_lambda(lam)
        if args.formula == "wkw":
            s = series.wkw_sum(lam, g, args.height)
        else:
            s = series.atiyah_bott_sum(lam, g, args.height)
        _emit(_series_json(s), stdout)
        return EXIT_OK

    if args.command == "verify":
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
            report = _verify_cross(_need_lambda(lam), g, args.height)
        _emit(report.to_json(), stdout)
        if report.passed:
            return EXIT_OK
        if report.expected_failure and args.expect_fail:
            return EXIT_OK
        return EXIT_FAIL

    raise InputError(f"unknown command {args.command}")


def _verify_cross(lam: HighestWeight, g: GCM, height: int) -> verify.Report:
    """Set equality of the slice, hull, and (when applicable) orbit formulas."""
    ws_slice = modweights.wt_simple_slice(lam, g, height)
    ws_hull = modweights.wt_simple_hull(lam, g, height)
    details: dict = {"slice_size": len(ws_slice.members)}
    ok = ws_slice.members == ws_hull.members
    details["hull_equal"] = ws_hull.members == ws_slice.members
    try:
        ws_orbit = modweights.wt_simple_orbit(lam, g, height)
        details["orbit_equal"] = ws_orbit.members == ws_slice.members
        ok = ok and ws_orbit.members == ws_slice.members
    except InfiniteStabilizer:
        details["orbit_equal"] = None
    return verify.Report("cross", passed=ok, details=details)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""The benchmark's workloads: fixed operations and the checks on their outputs.

An operation is one in-process call to ``kmweights.cli.run`` on a JSON input
file, or, for multiplicities, a call to ``kmweights.oracle.simple_multiplicity``
over a whole weight set.  Every check compares an output with arithmetic from
``rootsys`` or with a property wt L(lambda) must have; where it uses a second
route of the program (slice, orbit, Atiyah-Bott), that call is made outside
the timed region and cached.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import kmweights.cli
import kmweights.oracle
from kmweights import HighestWeight, atiyah_bott_sum, parse_gcm, wt_simple_orbit, wt_simple_slice

import rootsys

MATRICES = {
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "A4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "B2": [[2, -1], [-2, 2]],
    "B3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "G2": [[2, -1], [-3, 2]],
    "aff_sl2": [[2, -2], [-2, 2]],
    "aff_rank3": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
    "hyperbolic": [[2, -3], [-3, 2]],
    "fig_right": [[2, -2, -1], [-2, 2, 0], [-1, 0, 2]],
}

HULL_DEPTH_FAULT = (
    "weights --method hull --depth 2 returns a depth-truncated subset of the "
    "weight set with exit 0 and no completeness flag"
)


@dataclass
class Op:
    """One operation: what to call, and the check its output must pass."""

    name: str
    case: str
    lam: Optional[tuple[str, ...]]
    argv: list[str]
    check: Callable[["Op", object, "Refs"], Optional[str]]
    kind: str  # "weights", "report", "series", "roots" or "mults"
    known_fault: Optional[str] = None
    height: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def a(self):
        return tuple(map(tuple, MATRICES[self.case]))

    @property
    def q(self):
        return [Fraction(x) for x in self.lam]

    def arg(self, flag):
        """The value given to a CLI flag of this operation."""
        return self.argv[self.argv.index(flag) + 1]

    def call(self):
        """Run the operation; the return value is what `check` inspects."""
        if self.kind == "mults":
            lam = HighestWeight.of(self.q)
            g = parse_gcm(self.a)
            box = self.extra["box"]
            mult = kmweights.oracle.simple_multiplicity
            return {c: mult(lam, g, c) for c in box}
        out = io.StringIO()
        rc = kmweights.cli.run(self.argv, stdout=out, stderr=io.StringIO())
        return rc, out.getvalue()


class Refs:
    """Reference results for the checks, computed once per run."""

    def __init__(self):
        self._memo = {}

    def _get(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def slice(self, op, h):
        lam, g = HighestWeight.of(op.q), parse_gcm(op.a)
        return self._get(("slice", op.case, op.lam, h),
                         lambda: set(wt_simple_slice(lam, g, h).members))

    def orbit(self, op, h):
        lam, g = HighestWeight.of(op.q), parse_gcm(op.a)
        return self._get(("orbit", op.case, op.lam, h),
                         lambda: set(wt_simple_orbit(lam, g, h).members))

    def atiyah_bott(self, op, h):
        lam, g = HighestWeight.of(op.q), parse_gcm(op.a)
        return self._get(("ab", op.case, op.lam, h),
                         lambda: dict(atiyah_bott_sum(lam, g, h).terms))

    def finite_set(self, op, h):
        return self._get(("finite", op.case, op.lam, h),
                         lambda: rootsys.finite_weight_set(op.a, op.q, h))

    def roots(self, op, h, kind):
        return self._get(("roots", op.case, h, kind),
                         lambda: rootsys.roots_up_to(op.a, h, kind))


def _dominant_finite(op) -> bool:
    """Finite type with dominant integral lambda: the classical theory applies."""
    return rootsys.finite_type(op.a) and len(rootsys.integrable_nodes(op.q)) == len(op.q)


def _stabilizer_finite(op) -> bool:
    j0 = [i for i in rootsys.integrable_nodes(op.q) if op.q[i] == 0]
    return rootsys.finite_type(tuple(tuple(op.a[i][j] for j in j0) for i in j0))


def _doc(result):
    rc, text = result
    return rc, json.loads(text) if text.strip() else None


def _set_faults(op, members, refs, h):
    """Checks every weight set shares: properties, then the independent sets."""
    fault = rootsys.weight_set_faults(op.a, op.q, h, members)
    if fault:
        return fault
    if _dominant_finite(op) and members != refs.finite_set(op, h):
        return "differs from the dominant-conjugate weight set"
    return None


# --- checks, one per kind of output -------------------------------------


def check_weights(op, result, refs):
    rc, doc = _doc(result)
    if rc != 0:
        return f"exit code {rc}"
    h = op.height
    members = {tuple(c) for c in doc["offsets"]}
    if doc["height"] != h or len(members) != len(doc["offsets"]):
        return "malformed weight-set document"
    for c, ps in zip(doc["offsets"], doc["pairings"]):
        if [Fraction(p) for p in ps] != [rootsys.pairing(op.a, op.q, c, i) for i in range(len(c))]:
            return f"wrong pairings at offset {c}"
    method = op.arg("--method")
    if "--depth" in op.argv:
        # A depth-limited hull is acceptable only if complete or flagged incomplete.
        if members != refs.slice(op, h) and doc.get("complete") is not False:
            return (f"{len(members)} of {len(refs.slice(op, h))} weights, "
                    "not flagged incomplete")
        return None
    fault = _set_faults(op, members, refs, h)
    if fault:
        return fault
    if method == "slice":
        if _stabilizer_finite(op) and members != refs.orbit(op, h):
            return "slice differs from orbit"
    elif members != refs.slice(op, h):
        return f"{method} differs from slice"
    if method == "oracle" and _dominant_finite(op):
        if members != set(refs.atiyah_bott(op, h)):
            return "oracle support differs from the Atiyah-Bott support"
    return None


def check_cross(op, result, refs):
    rc, doc = _doc(result)
    h = op.height
    if rc != 0 or doc["status"] != "PASS":
        return f"cross report {doc and doc['status']}, exit code {rc}"
    d = doc["details"]
    slice_set = refs.slice(op, h)
    want_orbit = True if _stabilizer_finite(op) else None
    if d["hull_equal"] is not True or d["orbit_equal"] is not want_orbit:
        return f"cross details {d}"
    if d["slice_size"] != len(slice_set):
        return "slice_size differs from the slice weight set"
    return _set_faults(op, slice_set, refs, h)


def _series_terms(items):
    return {tuple(t["offset"]): t["coefficient"] for t in items}


def check_series(op, result, refs):
    """Finite type, H >= ht(lambda - w0 lambda): the whole character is in view."""
    rc, doc = _doc(result)
    if rc != 0:
        return f"exit code {rc}"
    terms = _series_terms(doc)
    h = op.height
    if set(terms) != refs.finite_set(op, h):
        return "support differs from the dominant-conjugate weight set"
    if op.arg("--formula") == "wkw":
        return None if set(terms.values()) == {1} else "Weyl-group sum is not 0/1"
    return _mult_faults(op, terms)


def _mult_faults(op, mult):
    """Multiplicities of a finite-type module: Weyl dimension and W-invariance."""
    if mult.get((0,) * len(op.q)) != 1:
        return "multiplicity of lambda is not 1"
    if sum(mult.values()) != rootsys.weyl_dimension(op.a, op.q):
        return "multiplicities do not sum to the Weyl dimension"
    for c, m in mult.items():
        for i in range(len(c)):
            if mult.get(rootsys.reflect(op.a, op.q, c, i), 0) != m:
                return f"multiplicity at {c} is not s_{i}-invariant"
    return None


def check_mults(op, result, refs):
    h = op.height
    mult = {c: m for c, m in result.items() if m}
    if set(mult) != refs.finite_set(op, h):
        return "support differs from the dominant-conjugate weight set"
    if set(mult) != refs.slice(op, h):
        return "support differs from the slice weight set"
    if mult != refs.atiyah_bott(op, h):
        return "multiplicities differ from the Atiyah-Bott character"
    return _mult_faults(op, mult)


def check_report(op, result, refs):
    """verify --check denominator|wkw|macdonald|integrability."""
    rc, doc = _doc(result)
    check = op.arg("--check")
    d = doc["details"]
    if check == "wkw" and op.extra.get("trivial_affine"):
        # L(0) over affine sl2: the sum over the infinite stabilizer leaves
        # exactly sum_{k=1}^{H/2} e^{-k delta}.
        want = {(k, k): 1 for k in range(1, op.height // 2 + 1)}
        if rc != 0 or doc["status"] != "FAIL" or not doc["expected_failure"]:
            return f"expected failure not reported (exit {rc}, {doc['status']})"
        if _series_terms(d["discrepancy"]) != want:
            return "discrepancy is not sum_k e^{-k delta}"
        return None
    if rc != 0 or doc["status"] != "PASS":
        return f"{check} report {doc['status']}, exit code {rc}"
    if check == "denominator":
        if d["bases"] != rootsys.weyl_order(op.a):
            return "number of bases is not |W|"
        if d["roots"] != 2 * len(rootsys.positive_roots_and_coroots(op.a)):
            return "number of roots is wrong"
        if d["difference"]:
            return "denominator difference is not zero"
    elif check == "macdonald":
        rhs = _series_terms(d["rhs"])
        want = {c: 1 for c in refs.roots(op, op.height, "imaginary")}
        want[(0, 0)] = 1
        if rhs != want or d["difference"]:
            return "Macdonald right side is not 1 + sum over imaginary roots"
    elif check == "wkw":
        if d["finite_stabilizer"] is not _stabilizer_finite(op) or d["discrepancy"]:
            return "Weyl-group sum differs from the weight-set indicator"
    elif check == "integrability":
        if d["preserving"] != rootsys.integrable_nodes(op.q):
            return "preserving nodes differ from I_lambda"
    return None


def check_roots(op, result, refs):
    rc, doc = _doc(result)
    if rc != 0:
        return f"exit code {rc}"
    kind = op.arg("--kind")
    found = {tuple(c) for c in doc}
    if found != refs.roots(op, op.height, kind):
        return f"{kind} roots differ from the reflection-descent roots"
    if op.case == "aff_rank3" and kind == "imaginary":
        if found != {(k, k, k) for k in range(1, op.height // 3 + 1)}:
            return "aff_rank3 imaginary roots are not k delta, k <= H/3"
    return None


# --- workload builders ----------------------------------------------------


class Builder:
    """Writes the JSON inputs and assembles the operation lists."""

    def __init__(self, input_dir: Path):
        self.input_dir = input_dir
        input_dir.mkdir(parents=True, exist_ok=True)

    def input_path(self, case, lam):
        doc = {"cartan": MATRICES[case]}
        tag = case
        if lam is not None:
            doc["lambda"] = list(lam)
            tag += "_" + "_".join(x.replace("/", "d").replace("-", "m") for x in lam)
        path = self.input_dir / f"{tag}.json"
        text = json.dumps(doc)
        if not path.exists() or path.read_text() != text:
            path.write_text(text)
        return str(path)

    def cli(self, case, lam, words, check, kind, **extra):
        lam = tuple(lam.split(",")) if lam else None
        argv = [words[0], "--input", self.input_path(case, lam)] + words[1:]
        height = int(words[words.index("--height") + 1]) if "--height" in words else 0
        fault = extra.pop("known_fault", None)
        label = f"{case}({','.join(lam)}) " if lam else f"{case} "
        return Op(label + " ".join(words), case, lam, argv, check, kind,
                  known_fault=fault, height=height, extra=extra)

    def mults(self, case, lam):
        lam = tuple(lam.split(","))
        a, q = MATRICES[case], [Fraction(x) for x in lam]
        low = rootsys.lowest_offset(a, q)
        box = [c for c in rootsys.offsets_up_to(len(q), sum(low))
               if all(x <= y for x, y in zip(c, low))]
        return Op(f"{case}({','.join(lam)}) simple_multiplicity x{len(box)}", case, lam,
                  [], check_mults, "mults", height=sum(low), extra={"box": box})


def build(workload: str, input_dir: Path, quick: bool = False) -> list[Op]:
    """The operations of one pass.  `quick` shrinks every height for the self-test."""
    b = Builder(input_dir)

    def h(full, small):
        return str(small if quick else full)

    if workload == "cross_hull":
        cases = [
            ("aff_rank3", "1,0,0", 8), ("fig_right", "1,2,-1/2", 8), ("A3", "1,1,1", 8),
            ("hyperbolic", "1,1", 10), ("aff_rank3", "2,-3/2,1", 10),
            ("aff_rank3", "0,0,0", 10), ("G2", "1,1", 10), ("A3", "-1/2,2,0", 10),
        ]
        ops = [b.cli(c, lam, ["verify", "--check", "cross", "--height", h(H, 4)],
                     check_cross, "report") for c, lam, H in cases]
        ops.append(b.cli("aff_rank3", "1,0,0",
                         ["weights", "--method", "hull", "--height", "8", "--depth", "2"],
                         check_weights, "weights", known_fault=HULL_DEPTH_FAULT))
        return ops

    if workload == "oracle_truth":
        cases = [
            ("A2", "1,1", 8, 4), ("A2", "1,-7/2", 8, 4), ("aff_sl2", "1,0", 8, 4),
            ("hyperbolic", "1,1", 8, 4), ("A3", "1,1,1", 6, 3),
            ("aff_rank3", "1,0,0", 6, 3), ("fig_right", "1,2,-1/2", 6, 3),
        ]
        ops = [b.cli(c, lam, ["weights", "--method", "oracle", "--height", h(H, s)],
                     check_weights, "weights") for c, lam, H, s in cases]
        mults = [("A2", "1,1"), ("B2", "1,0")] if quick else [
            ("A2", "1,1"), ("A2", "2,1"), ("B2", "1,1"), ("G2", "0,1"), ("A3", "1,0,1")]
        return ops + [b.mults(c, lam) for c, lam in mults]

    if workload == "series_deep":
        ops = [
            b.cli("A3" if quick else "A4", None, ["verify", "--check", "denominator"],
                  check_report, "report"),
            b.cli("B2" if quick else "B3", None, ["verify", "--check", "denominator"],
                  check_report, "report"),
        ]
        for f in ("ab", "wkw"):
            ops.append(b.cli("A4", "1,0,0,1", ["series", "--formula", f, "--height", "10"],
                             check_series, "series"))
            ops.append(b.cli("B3", "1,1,0", ["series", "--formula", f, "--height", h(16, 16)],
                             check_series, "series"))
        ops += [
            b.cli("aff_rank3", "1,0,0", ["verify", "--check", "wkw", "--height", h(20, 6)],
                  check_report, "report"),
            b.cli("aff_sl2", "0,0",
                  ["verify", "--check", "wkw", "--height", h(30, 6), "--expect-fail"],
                  check_report, "report", trivial_affine=True),
            b.cli("aff_sl2", None, ["verify", "--check", "macdonald", "--height", h(40, 8)],
                  check_report, "report"),
            b.cli("hyperbolic", None, ["verify", "--check", "macdonald", "--height", h(40, 8)],
                  check_report, "report"),
        ]
        for case, lam, H in [("aff_rank3", "1,0,0", 20), ("fig_right", "1,2,-1/2", 20),
                             ("hyperbolic", "1,1", 30)]:
            for m in ("slice", "orbit"):
                ops.append(b.cli(case, lam,
                                 ["weights", "--method", m, "--height", h(H, 5)],
                                 check_weights, "weights"))
            ops.append(b.cli(case, lam, ["verify", "--check", "integrability",
                                         "--height", h(H, 5)], check_report, "report"))
        for case, kind, H in [("aff_rank3", "real", 16), ("aff_rank3", "imaginary", 16),
                              ("hyperbolic", "imaginary", 30), ("aff_sl2", "real", 30)]:
            ops.append(b.cli(case, None, ["roots", "--kind", kind, "--height", h(H, 6)],
                             check_roots, "roots"))
        return ops

    raise ValueError(f"unknown workload {workload!r}")

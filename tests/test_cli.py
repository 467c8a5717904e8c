import argparse
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kmweights
from kmweights import cli, modweights, roots, series, verify
from kmweights.cli import run
from kmweights.errors import (
    BudgetExceeded,
    Inapplicable,
    InputError,
    KMError,
)
from kmweights.weights import offsets_up_to, pairing

from conftest import small_gcms_and_weights


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_classify_command(tmp_path):
    path = write_problem(tmp_path, {"cartan": [[2, -2], [-2, 2]]})
    code, out, _ = invoke(["classify", "--input", path])
    assert code == 0
    assert json.loads(out) == [{"nodes": ["0", "1"], "type": "Affine"}]


def test_roots_command(tmp_path):
    path = write_problem(tmp_path, {"cartan": [[2, -2], [-2, 2]]})
    code, out, _ = invoke(
        ["roots", "--input", path, "--height", "3", "--kind", "real"]
    )
    assert code == 0
    assert json.loads(out) == [[0, 1], [1, 0], [1, 2], [2, 1]]


def test_weights_slice_sl2(tmp_path):
    path = write_problem(tmp_path, {"cartan": [[2]], "lambda": ["3"]})
    code, out, _ = invoke(
        ["weights", "--input", path, "--method", "slice", "--height", "10"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["offsets"] == [[0], [1], [2], [3]]
    assert doc["pairings"] == [["3"], ["1"], ["-1"], ["-3"]]
    assert doc["method"] == "slice"


def test_weights_output_sorted_and_deterministic(tmp_path):
    path = write_problem(
        tmp_path, {"cartan": [[2, -1], [-1, 2]], "lambda": ["1", "-7/2"]}
    )
    argv = ["weights", "--input", path, "--method", "hull", "--height", "6"]
    code1, out1, _ = invoke(argv)
    code2, out2, _ = invoke(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    offsets = json.loads(out1)["offsets"]
    assert offsets == sorted(offsets)


def test_weights_orbit_infinite_stabilizer_exit_3(tmp_path):
    path = write_problem(
        tmp_path, {"cartan": [[2, -2], [-2, 2]], "lambda": ["0", "0"]}
    )
    code, _, err = invoke(
        ["weights", "--input", path, "--method", "orbit", "--height", "6"]
    )
    assert code == 3
    assert "stabilizer" in err


def test_series_wkw(tmp_path):
    path = write_problem(tmp_path, {"cartan": [[2]], "lambda": ["3"]})
    code, out, _ = invoke(
        ["series", "--input", path, "--formula", "wkw", "--height", "5"]
    )
    assert code == 0
    assert json.loads(out) == [
        {"offset": [0], "coefficient": 1},
        {"offset": [1], "coefficient": 1},
        {"offset": [2], "coefficient": 1},
        {"offset": [3], "coefficient": 1},
    ]


def test_series_ab_inapplicable_exit_3(tmp_path):
    path = write_problem(
        tmp_path, {"cartan": [[2, -2], [-2, 2]], "lambda": ["1", "0"]}
    )
    code, _, _ = invoke(
        ["series", "--input", path, "--formula", "ab", "--height", "4"]
    )
    assert code == 3


def type_a(n, last=-1):
    """The Cartan matrix of A_n; last=-2 gives B_n ([[2, -1], [-2, 2]] is B2)."""
    a = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)]
         for i in range(n)]
    a[n - 1][n - 2] = last
    return a


E7 = [[2, 0, -1, 0, 0, 0, 0], [0, 2, 0, -1, 0, 0, 0], [-1, 0, 2, -1, 0, 0, 0],
      [0, -1, -1, 2, -1, 0, 0], [0, 0, 0, -1, 2, -1, 0],
      [0, 0, 0, 0, -1, 2, -1], [0, 0, 0, 0, 0, -1, 2]]


@pytest.mark.parametrize("doc,argv,count", [
    # |W| times the terms of P passes 10^6 while P is multiplied out.
    ({"cartan": type_a(5)}, ["verify", "--check", "denominator"],
     "720 Weyl group elements times 2376 terms of P after 17 of 25 factors"),
    ({"cartan": type_a(6)}, ["verify", "--check", "denominator"],
     "5040 Weyl group elements times 272 terms of P after 9 of 36 factors"),
    ({"cartan": type_a(5, last=-2)}, ["verify", "--check", "denominator"],
     "3840 Weyl group elements times 378 terms of P after 9 of 45 factors"),
    # |W(E7)| = 2,903,040, counted from Phi^+ before any element is built.
    ({"cartan": E7}, ["verify", "--check", "denominator"],
     "Weyl group has 2903040 elements; budget 100000"),
], ids=["A5-denominator", "A6-denominator", "B5-denominator", "E7-denominator"])
def test_finite_weyl_work_over_budget_exit_4(tmp_path, doc, argv, count):
    path = write_problem(tmp_path, doc)
    code, out, err = invoke([argv[0], "--input", path] + argv[1:])
    assert code == 4
    assert out == ""
    assert err.startswith("budget exceeded: ") and count in err


def test_verify_macdonald_pass(tmp_path):
    path = write_problem(tmp_path, {"cartan": [[2, -2], [-2, 2]]})
    code, out, _ = invoke(
        ["verify", "--input", path, "--check", "macdonald", "--height", "8"]
    )
    assert code == 0
    assert json.loads(out)["status"] == "PASS"


def test_verify_wkw_expected_failure_exit_codes(tmp_path):
    path = write_problem(
        tmp_path, {"cartan": [[2, -2], [-2, 2]], "lambda": ["0", "0"]}
    )
    code, out, _ = invoke(
        ["verify", "--input", path, "--check", "wkw", "--height", "6"]
    )
    assert code == 1
    assert json.loads(out)["expected_failure"] is True
    code, _, _ = invoke(
        ["verify", "--input", path, "--check", "wkw", "--height", "6",
         "--expect-fail"]
    )
    assert code == 0


def test_verify_cross(tmp_path):
    path = write_problem(
        tmp_path, {"cartan": [[2, -1], [-1, 2]], "lambda": ["1", "1"]}
    )
    code, out, _ = invoke(
        ["verify", "--input", path, "--check", "cross", "--height", "6"]
    )
    assert code == 0
    assert json.loads(out)["status"] == "PASS"


def _has_digit_limit():
    return bool(getattr(sys, "get_int_max_str_digits", lambda: 0)())


@pytest.mark.parametrize("raw", [
    b"{not json",
    b"\xff\xfe",
    b"[" * 100_000 + b"]" * 100_000,
    pytest.param(
        b'{"cartan": ' + b"9" * 5000 + b"}",
        marks=pytest.mark.skipif(not _has_digit_limit(), reason="no integer digit limit"),
    ),
], ids=["not-json", "not-utf8", "nested-too-deep", "long-integer"])
def test_malformed_input_exit_2(tmp_path, raw):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    code, out, err = invoke(["classify", "--input", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("input error: cannot read input document: ")


def test_utf8_input_read_under_an_ascii_locale(tmp_path):
    doc = {"cartan": [[2, -1], [-1, 2]], "labels": ["\u03b1", "b"]}
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    src = Path(kmweights.__file__).resolve().parent.parent
    main = "import sys; sys.path.insert(0, sys.argv.pop(1)); from kmweights.cli import main; main()"
    # -E and utf8=0 keep Python's UTF-8 mode off, so the C locale decodes as ASCII.
    done = subprocess.run(
        [sys.executable, "-E", "-X", "utf8=0", "-c", main, str(src),
         "classify", "--input", str(path)],
        capture_output=True, text=True, env={**os.environ, "LC_ALL": "C"},
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout) == [{"nodes": ["\u03b1", "b"], "type": "Finite"}]


def test_closed_stdout_exits_141_without_a_traceback(tmp_path):
    doc = {"cartan": [[2, -2, -1], [-2, 2, 0], [-1, 0, 2]], "lambda": ["1", "2", "-1/2"]}
    path = write_problem(tmp_path, doc)
    src = Path(kmweights.__file__).resolve().parent.parent
    main = "import sys; sys.path.insert(0, sys.argv.pop(1)); from kmweights.cli import main; main()"
    # About 90 kB of JSON, more than a pipe buffers, written after the read end is closed.
    argv = ["weights", "--input", path, "--method", "slice", "--height", "20"]
    proc = subprocess.Popen([sys.executable, "-c", main, str(src), *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (141, b"")


def test_gcm_axiom_violation_exit_2(tmp_path):
    path = write_problem(tmp_path, {"cartan": [[2, -1], [0, 2]]})
    code, _, err = invoke(["classify", "--input", path])
    assert code == 2
    assert "a[1][0]" in err


def test_svg_sl2_collinear_dots(tmp_path):
    path = write_problem(tmp_path, {"cartan": [[2]], "lambda": ["3"]})
    code, out, _ = invoke(
        ["weights", "--input", path, "--method", "slice", "--height", "10",
         "--format", "svg"]
    )
    assert code == 0
    assert out.startswith("<svg")
    assert out.count("<circle") == 5  # 4 weight dots + highest-weight marker
    # all dots on the x axis
    for line in out.splitlines():
        if 'r="3"' in line:
            assert 'cy="-0.000"' in line or 'cy="0.000"' in line


def test_svg_deterministic(tmp_path):
    doc = {
        "cartan": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
        "lambda": ["2", "0", "-1/2"],
    }
    path = write_problem(tmp_path, doc)
    argv = ["weights", "--input", path, "--method", "slice", "--height", "4",
            "--format", "svg"]
    _, out1, _ = invoke(argv)
    _, out2, _ = invoke(argv)
    assert out1 == out2
    assert "<polygon" in out1
    assert "<line" in out1  # rays along the non-integrable direction


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _extreme_points(pts):
    # p is a vertex exactly when no segment or nondegenerate triangle of the
    # other points contains it (Caratheodory's theorem in the plane).
    def on_segment(p, a, b):
        return _cross(a, b, p) == 0 and min(a, b) <= p <= max(a, b)

    def in_triangle(p, a, b, c):
        turns = [_cross(a, b, p), _cross(b, c, p), _cross(c, a, p)]
        return _cross(a, b, c) != 0 and (min(turns) >= 0 or max(turns) <= 0)

    def covered(p, others):
        return any(on_segment(p, a, b) for a, b in combinations(others, 2)) or any(
            in_triangle(p, a, b, c) for a, b, c in combinations(others, 3)
        )

    distinct = set(pts)
    return {p for p in distinct if not covered(p, distinct - {p})}


@st.composite
def _plane_points(draw):
    # Up to 9 small rational points, with repeats and collinear runs.
    coord = st.integers(-3, 3).map(lambda k: Fraction(k, 2))
    pts: list = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(["new", "repeat", "collinear"])) if len(pts) >= 2 else "new"
        if kind == "new":
            pts.append((draw(coord), draw(coord)))
        elif kind == "repeat":
            pts.append(draw(st.sampled_from(pts)))
        else:
            a, b = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
            t = Fraction(draw(st.integers(-2, 4)), 2)
            pts.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
    return pts


@given(_plane_points())
@settings(max_examples=300, deadline=None)
def test_convex_hull_2d_matches_extreme_points(pts):
    hull = cli._convex_hull_2d(pts)
    assert len(hull) == len(set(hull)) and set(hull) == _extreme_points(pts)
    if len(hull) >= 3:  # strict left turns all the way round
        assert all(_cross(hull[k - 2], hull[k - 1], hull[k]) > 0 for k in range(len(hull)))


def test_weights_hull_reports_completeness(tmp_path):
    path = write_problem(
        tmp_path, {"cartan": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], "lambda": ["1", "0", "0"]}
    )
    code, out, _ = invoke(
        ["weights", "--input", path, "--method", "hull", "--height", "8", "--depth", "2"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["complete"] is False
    assert doc["depth"] == 2
    path = write_problem(tmp_path, {"cartan": [[2, -1], [-1, 2]], "lambda": ["1", "1"]})
    code, out, _ = invoke(["weights", "--input", path, "--method", "hull", "--height", "4"])
    assert code == 0
    assert json.loads(out)["complete"] is True
    code, out, _ = invoke(
        ["weights", "--input", path, "--method", "slice", "--height", "4", "--depth", "3"]
    )
    assert code == 0
    assert not {"complete", "depth"} & set(json.loads(out))


def test_weights_oracle_advisory_flag(tmp_path):
    nonsym = write_problem(
        tmp_path,
        {"cartan": [[2, -1, -2], [-2, 2, -1], [-1, -2, 2]], "lambda": ["1", "0", "-1/2"]},
        "nonsym.json",
    )
    a2 = write_problem(tmp_path, {"cartan": [[2, -1], [-1, 2]], "lambda": ["1", "1"]})
    for path, advisory in ((nonsym, True), (a2, False)):
        code, out, _ = invoke(
            ["weights", "--input", path, "--method", "oracle", "--height", "3"]
        )
        assert code == 0
        assert json.loads(out)["advisory"] is advisory
    code, out, _ = invoke(["weights", "--input", a2, "--method", "slice", "--height", "3"])
    assert "advisory" not in json.loads(out)


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"cartan": [[2, -1.7], [-1, 2]]}, "integers"),
        ({"cartan": [[2, -1], [-1, 2]], "lambda": "12"}, "lambda"),
        ({"cartan": [[2, -1], [-1, 2]], "lambda": [0.50000000000000000001, "1"]}, "lambda"),
        ({"cartan": [[2, -1], [-1, 2]], "lambda": ["1", "1"], "labels": "xy"}, "labels"),
        ({"cartan": [], "lambda": []}, "non-empty"),
        ({"cartan": [[2, False], [False, 2]]}, "integers"),
        ({"cartan": [2, 2]}, "row"),
        ({"cartan": [[2, -1], [-1, 2]], "lambda": ["1", "1"], "labels": []}, "expected 2 labels, got 0"),
        ({"cartan": [[2, -1], [-1, 2]], "lambda": ["1", "1"], "labels": ["x", "x"]}, "labels must be distinct"),
        ({"cartan": [[2, -1], [-1, 2]], "lables": ["x", "y"]}, "unknown key 'lables'"),
        ({"cartan": [[2, -1], [-1, 2]], "labels": None}, "labels must be a list of strings, got None"),
        ([1, 2], "input must be a JSON object with a 'cartan' matrix"),
        ({"lambda": ["1"]}, "input must be a JSON object with a 'cartan' matrix"),
        ({"cartan": [[2, -1], [-1, 2]], "lambda": ["1"]}, "lambda has 1 entries, expected 2"),
        ({"cartan": [[2, -1], [-1, 2]], "lambda": ["1/0", "1"]}, "bad rational in lambda"),
        ({"cartan": [[2, -1], [-1, 2]], "lambda": ["x", "1"]}, "bad rational in lambda"),
        ({"cartan": [[2, -1], [-1, 2]], "lambda": ["1_0", "1"]}, "bad rational in lambda: '1_0'"),
        ({"cartan": [[2, -1], [-1, 2]], "lambda": ["1e2", "1"]}, "bad rational in lambda: '1e2'"),
        ({"cartan": [[2, -1], [-1, 2]], "lambda": [" 1 ", "1"]}, "bad rational in lambda: ' 1 '"),
        ({"cartan": [[2, -1], [-1, 2]], "lambda": ["1" * 5000, "1"]}, "bad rational in lambda"),
        ({"cartan": [[2, -1], [-1, 2]]}, "requires a 'lambda' entry"),
        ({"cartan": [[2, -1, 0], [-1, 2]]}, "row 0 has length 3, expected 2"),
        ({"cartan": [[2, -1], []]}, "row 1 has length 0, expected 2"),
        ({"cartan": [[2, 0], [-1]]}, "row 1 has length 1, expected 2"),
    ],
    ids=["float-entry", "lambda-string", "lambda-float", "labels-string", "empty", "bool-entry", "flat",
         "labels-empty", "labels-duplicate", "unknown-key", "labels-null", "not-object", "no-cartan",
         "lambda-length", "lambda-zero-denominator", "lambda-not-rational", "lambda-underscore",
         "lambda-exponent", "lambda-spaces", "lambda-digits-over-int-limit", "lambda-missing",
         "row-long", "row-empty", "row-short"],
)
def test_input_not_coerced_exit_2(tmp_path, doc, message):
    path = write_problem(tmp_path, doc)
    code, out, err = invoke(["weights", "--input", path, "--method", "slice", "--height", "2"])
    assert code == 2
    assert out == ""
    assert message in err


def test_lambda_spellings_parse_exactly(tmp_path):
    doc = {"cartan": [[2, 0, 0], [0, 2, 0], [0, 0, 2]], "lambda": ["-7/2", "+1", "0.5"]}
    _, lam = cli.load_problem(write_problem(tmp_path, doc))
    assert lam.q == (Fraction(-7, 2), Fraction(1), Fraction(1, 2))


def test_negative_height_exit_2(tmp_path):
    path = write_problem(tmp_path, {"cartan": [[2]], "lambda": ["3"]})
    for argv in (
        ["weights", "--input", path, "--method", "slice", "--height", "-3"],
        ["weights", "--input", path, "--method", "hull", "--height", "3", "--depth", "-1"],
        ["roots", "--input", path, "--height", "-1"],
    ):
        code, out, err = invoke(argv)
        assert code == 2
        assert out == ""
        assert "nonnegative" in err


NINES = "9" * 5000  # past Python's 4,300-digit limit on int("...")


@pytest.mark.parametrize("text", ["1_0", " 4", "4 ", "+4", "\u0664", "4.0", "0x4", "", "-0",
                                  pytest.param(NINES, id="5000_nines")])
@pytest.mark.parametrize("flag", ["--height", "--depth"])
def test_height_and_depth_take_ascii_digits_only(tmp_path, flag, text):
    path = write_problem(tmp_path, {"cartan": [[2]], "lambda": ["3"]})
    argv = ["weights", "--input", path, "--method", "hull", "--height", "3"]
    code, out, err = invoke(argv + [flag, text])
    assert (code, out) == (2, "")
    assert err.startswith("usage: ")
    got = "5000 digits" if text == NINES else repr(text)
    assert f"must be a nonnegative integer, got {got}" in err
    assert NINES not in err and "_nonnegative_int" not in err
    assert invoke(argv + [flag, "04"])[0] == 0


@pytest.mark.parametrize("flag", ["--height", "--depth"])
def test_long_height_and_depth_refused_without_an_int_digit_limit(tmp_path, flag):
    path = write_problem(tmp_path, {"cartan": [[2, -1], [-1, 2]], "lambda": ["1", "0"]})
    src = Path(kmweights.__file__).resolve().parent.parent
    main = "import sys; sys.path.insert(0, sys.argv.pop(1)); from kmweights.cli import main; main()"
    argv = ["weights", "--input", path, "--method", "hull", "--height", "3", flag]
    for text, code in ((NINES, 2), ("9" * 641, 2), ("0" * 639 + "4", 0)):
        # PYTHONINTMAXSTRDIGITS=0 lifts the interpreter's limit, so int() would take NINES.
        done = subprocess.run([sys.executable, "-c", main, str(src), *argv, text],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONINTMAXSTRDIGITS": "0"})
        assert done.returncode == code
        if code == 2:
            assert done.stderr.startswith("usage: ")
            assert f"must be a nonnegative integer, got {len(text)} digits" in done.stderr


json_docs = st.recursive(
    st.one_of(st.integers(), st.booleans(), st.none(), st.text()),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=24,
)


@given(json_docs)
@example({"\u00e9\"\n\x00\t": ["\u03b1", "\\", "\x1f", None, True, False, -3, 10 ** 30, ""],
          "": {}, "b": [], "a": [[]]})
@settings(max_examples=300, deadline=None)
def test_emit_writes_what_json_dumps_writes(doc):
    out = io.StringIO()
    cli._emit(doc, out)
    assert out.getvalue() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "argv,usage",
    [(["--help"], "usage: kmweights "), (["weights", "--help"], "usage: kmweights weights ")],
)
def test_help_exits_0_on_the_given_stdout(argv, usage):
    code, out, err = invoke(argv)
    assert code == 0
    assert out.startswith(usage)
    assert err == ""


def _fresh(argv):
    cli._parser.cache_clear()
    return invoke(argv)


def test_reused_parser_answers_like_a_fresh_one(tmp_path):
    a2 = write_problem(tmp_path, {"cartan": [[2, -1], [-1, 2]], "lambda": ["1", "1"]})
    hull = ["weights", "--input", a2, "--method", "hull", "--height", "4"]
    calls = [
        ["verify", "--input", a2, "--check", "denominator"],
        ["weights", "--input", a2, "--method", "slice", "--height", "500"],
        hull + ["--depth", "2"],
        hull,
        ["--help"],
        *([command, "--help"] for command in ("classify", "roots", "weights", "series", "verify")),
        ["roots", "--input", a2, "--height", "-1"],
        ["classify", "--input", a2],
    ]
    want = [_fresh(argv) for argv in calls]
    assert want[1][0] == 4  # C(502, 2) offsets exceed OFFSET_BUDGET
    cli._parser.cache_clear()
    assert [invoke(argv) for argv in calls] == want


def test_help_follows_columns_at_call_time(monkeypatch):
    invoke(["weights", "--help"])
    monkeypatch.setenv("COLUMNS", "40")
    narrow = invoke(["weights", "--help"])
    assert narrow == _fresh(["weights", "--help"])
    monkeypatch.setenv("COLUMNS", "200")
    assert invoke(["weights", "--help"]) != narrow


def test_parser_built_once_per_process(tmp_path, monkeypatch):
    path = write_problem(tmp_path, {"cartan": [[2]]})
    invoke(["classify", "--input", path])
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    assert invoke(["classify", "--input", path])[0] == 0
    assert built == []


def test_svg_hull_model_built_once(tmp_path, monkeypatch):
    calls = []
    build = modweights.hull_generators

    def spy(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(modweights, "hull_generators", spy)
    path = write_problem(tmp_path, {"cartan": [[2, -1], [-1, 2]], "lambda": ["1", "-7/2"]})
    for method in ("hull", "slice"):
        calls.clear()
        code, out, _ = invoke(
            ["weights", "--input", path, "--method", method, "--height", "4", "--format", "svg"]
        )
        assert code == 0 and out.startswith("<svg")
        assert len(calls) == 1


@pytest.mark.parametrize("error,code,prefix", [
    (KMError, 2, "error"),
    (InputError, 2, "input error"),
    (Inapplicable, 3, "method inapplicable"),
    (BudgetExceeded, 4, "budget exceeded"),
])
def test_each_error_type_sets_exit_code_and_prefix(monkeypatch, error, code, prefix):
    def fail(args, stdout):
        raise error("the message")

    monkeypatch.setattr(cli, "_dispatch", fail)
    assert invoke(["classify", "--input", "unread.json"]) == (
        code, "", f"{prefix}: the message\n"
    )


def test_svg_rank_checked_before_the_hull_is_built(tmp_path, monkeypatch):
    def spy(*args):
        raise AssertionError("hull model built for an undrawable rank")

    monkeypatch.setattr(modweights, "hull_model", spy)
    a3_1 = [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]]
    path = write_problem(tmp_path, {"cartan": a3_1, "lambda": ["1"] * 4})
    code, out, err = invoke(
        ["weights", "--input", path, "--method", "hull", "--height", "8", "--format", "svg"]
    )
    assert (code, out, err) == (2, "", "input error: no default projection for rank 4\n")


@pytest.mark.parametrize("argv,module,name", [
    (["roots", "--kind", "real"], roots, "positive_real_up_to"),
    (["weights", "--method", "slice"], modweights, "wt_simple_slice"),
    (["series", "--formula", "wkw"], series, "wkw_sum"),
    (["verify", "--check", "macdonald"], verify, "verify_rank2_macdonald"),
])
def test_height_over_offset_budget_refused_before_work(
    tmp_path, monkeypatch, argv, module, name
):
    def spy(*args):
        raise AssertionError(f"{name} ran past the offset budget")

    monkeypatch.setattr(module, name, spy)
    path = write_problem(tmp_path, {"cartan": [[2, -2], [-2, 2]], "lambda": ["1", "0"]})
    code, out, err = invoke(argv + ["--input", path, "--height", str(10 ** 20)])
    assert (code, out, err) == (4, "", (
        "budget exceeded: 5000000000000000000150000000000000000001 offsets of"
        " height <= 100000000000000000000 at rank 2; budget 100000\n"
    ))


@given(small_gcms_and_weights())
def test_pairing_texts_match_str_of_the_fraction(case):
    g, lam = case
    members = list(offsets_up_to(g.n, 4))
    assert cli._pairing_texts(lam, g, members) == [
        [str(pairing(lam, g, c, i)) for i in range(g.n)] for c in members
    ]

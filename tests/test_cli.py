import io
import json


from kmweights.cli import run


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


def test_malformed_input_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = invoke(["classify", "--input", str(path)])
    assert code == 2
    assert err


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
    code, out, _ = invoke(["weights", "--input", path, "--method", "slice", "--height", "4"])
    assert "complete" not in json.loads(out)

"""Golden CLI corpus: exit code, stdout and stderr of each subcommand, pinned.

Every corpus case (tests/conftest.py) runs the weight, series and verify
commands below at H = 6 (rank <= 2) or 4 (rank 3); every corpus matrix
runs the matrix-only commands at the same height.  The outputs live in
tests/golden/<matrix>.json.  A refactor must leave them byte-identical.
When an output is meant to change, regenerate them with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import io
import json
from functools import lru_cache
from pathlib import Path

import pytest

from kmweights.cli import run

from conftest import CORPUS_MATRICES, CORPUS_WEIGHTS

GOLDEN = Path(__file__).parent / "golden"

CASE_COMMANDS = [
    ["weights", "--method", "slice"],
    ["weights", "--method", "orbit"],
    ["weights", "--method", "hull"],
    ["weights", "--method", "oracle"],
    ["weights", "--method", "hull", "--depth", "2"],
    ["weights", "--format", "svg"],
    ["series", "--formula", "wkw"],
    ["series", "--formula", "ab"],
    ["verify", "--check", "cross"],
    ["verify", "--check", "wkw"],
    ["verify", "--check", "integrability"],
]

MATRIX_COMMANDS = [
    ["classify"],
    ["roots", "--kind", "real"],
    ["roots", "--kind", "imaginary"],
    ["verify", "--check", "denominator"],
    ["verify", "--check", "macdonald"],
]


def height(name):
    return 6 if len(CORPUS_MATRICES[name]) <= 2 else 4


def commands(name):
    """(key, lambda or None, argv without --input) for one corpus matrix."""
    h = ["--height", str(height(name))]
    for argv in MATRIX_COMMANDS:
        argv = argv + (h if argv[0] != "classify" else [])
        yield " ".join(argv), None, argv
    for qs in CORPUS_WEIGHTS[name]:
        for argv in CASE_COMMANDS:
            yield f"{','.join(qs)} {' '.join(argv + h)}", qs, argv + h


def invoke(directory, name, qs, argv):
    doc = {"cartan": CORPUS_MATRICES[name]}
    if qs is not None:
        doc["lambda"] = qs
    path = Path(directory) / "problem.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    code = run([argv[0], "--input", str(path)] + argv[1:], stdout=out, stderr=err)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@lru_cache(maxsize=None)
def load(name):
    return json.loads((GOLDEN / f"{name}.json").read_text())


CASES = [
    pytest.param(name, key, qs, argv, id=f"{name} {key}")
    for name in CORPUS_MATRICES
    for key, qs, argv in commands(name)
]


@pytest.mark.parametrize("name,key,qs,argv", CASES)
def test_golden(tmp_path, name, key, qs, argv):
    expected = load(name).get(key)
    assert expected is not None, f"no golden output for {name} {key}"
    assert invoke(tmp_path, name, qs, argv) == expected


def write_all():
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as directory:
        for name in CORPUS_MATRICES:
            outputs = {
                key: invoke(directory, name, qs, argv)
                for key, qs, argv in commands(name)
            }
            text = json.dumps(outputs, indent=1, sort_keys=True) + "\n"
            (GOLDEN / f"{name}.json").write_text(text)
            if directory in text:
                raise SystemExit(f"{name}: an output names the scratch directory")


if __name__ == "__main__":
    write_all()

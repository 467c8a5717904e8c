"""The value types as plain classes, and the modules a process start imports."""

import subprocess
import sys
from pathlib import Path

import pytest

import kmweights
from kmweights.cartan import GCM, parse_gcm
from kmweights.modweights import HullModel, WeightSet
from kmweights.series import LaurentElt, TruncSeries, finite_weyl_group
from kmweights.weights import HighestWeight
from kmweights.weyl import GroupElement, identity

# Loaded by `dataclasses` or `typing`, and by nothing the CLI needs.
HEAVY = ("dataclasses", "typing", "inspect", "ast")

START = """
import io, sys
sys.path.insert(0, sys.argv[1])
from kmweights.cli import run
code = run(["classify", "--input", sys.argv[2]], io.StringIO(), io.StringIO())
print(code, *[m for m in sys.argv[3:] if m in sys.modules])
"""


def test_cli_start_imports_neither_dataclasses_nor_typing(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text('{"cartan": [[2, -1], [-1, 2]]}')
    src = Path(kmweights.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-S", "-E", "-c", START, str(src), str(path), *HEAVY],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.split() == ["0"]


def test_gcm_labels_default_to_node_indices():
    a3 = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    assert GCM(a3).labels == ("0", "1", "2")
    assert GCM(a3, ("x", "y", "z")).labels == ("x", "y", "z")


def test_group_elements_are_equal_and_hashed_by_value():
    a2 = parse_gcm([[2, -1], [-1, 2]])
    elements, _ = finite_weyl_group(HighestWeight.of([1, 1]), a2)
    copies = [GroupElement(*w) for w in elements]
    assert len(set(elements + copies)) == 6
    assert identity(2) in set(copies)
    assert [w.length for w in elements] == [0, 1, 1, 2, 2, 3]


def test_weight_set_is_complete_by_default():
    assert WeightSet(frozenset({(0, 0)})).complete is True
    assert WeightSet(frozenset(), False).complete is False


def test_slot_classes_take_no_new_attributes():
    for value in (GCM(((2,),)), HighestWeight.of([1]), WeightSet(frozenset()),
                  TruncSeries(1, 2, {}), LaurentElt(1, {}),
                  HullModel(frozenset({(0,)}), frozenset(), True)):
        with pytest.raises(AttributeError):
            value.extra = None


def test_series_need_their_terms():
    with pytest.raises(TypeError):
        TruncSeries(1, 2)
    with pytest.raises(TypeError):
        LaurentElt(1)

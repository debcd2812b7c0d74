"""The fault matrix of ``tests/mutants.py``, replayed against its golden file."""

import json

import mutants


def test_fault_matrix():
    # every call passes on the unmodified package, and each one-line fault
    # gets, call by call, the verdicts that tests/golden/mutants.json records
    expected = json.loads(mutants.MATRIX.read_text())
    assert set(expected["none"].values()) == {"pass"}
    assert list(expected) == ["none", *mutants.FAULTS]
    got = mutants.matrix()
    for name, row in expected.items():
        assert got[name] == row, name

"""The byte-identity harness of ``tests/differential.py``, run on copies of
this tree's ``src``."""

import differential
import mutants


def _copy(tmp_path, fault=None):
    return mutants.faulted_copy(tmp_path / "src", fault)


def test_a_copy_of_the_tree_differs_in_no_call(tmp_path, capsys):
    assert differential.main([str(_copy(tmp_path)), "--calls=40"]) == 0
    out = capsys.readouterr().out
    assert "differs:" not in out
    assert out.splitlines()[-1].startswith("44 calls, 0 differ: ")


def test_a_fault_in_the_copy_differs(tmp_path, capsys):
    # the unsigned u-powers fail chain-stirling, which --all runs
    assert differential.main([str(_copy(tmp_path, mutants.FAULTS["u-powers-unsigned"])), "--calls=40"]) == 1
    out = capsys.readouterr().out
    assert "differs: verify --all --order=16 (exit 1 against 0)" in out

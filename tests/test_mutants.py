"""The mutation list of `tools/mutants.py` cannot rot: each entry's old text
occurs exactly once in its file, so a refactor that moves the code fails here."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = sys.modules["mutants"] = importlib.util.module_from_spec(_spec)  # for its dataclass
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_entry_edits_its_file_once(mutant):
    assert mutant.old != mutant.new
    assert all(os.path.isfile(os.path.join(mutants.ROOT, t)) for t in mutant.tests)
    assert mutants.mutated(mutant).count(mutant.new) >= 1


def test_entry_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))

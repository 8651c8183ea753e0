"""The mutant registry stays applicable to the tree it guards."""

from pathlib import Path

import mutants

ROOT = Path(__file__).resolve().parents[1]


def test_every_mutant_applies_once_and_names_existing_tests():
    # a stale entry would test nothing: its old text must occur exactly once
    # and change the file, and each named test must be defined where named
    for mutant in mutants.MUTANTS:
        text = (ROOT / mutant.file).read_text(encoding="utf-8")
        assert mutants.mutated(text, mutant) != text
        assert mutant.nodes
        for node in mutant.nodes:
            path, name = node.split("::")
            assert f"\ndef {name}(" in (ROOT / path).read_text(encoding="utf-8"), node

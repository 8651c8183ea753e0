"""Mutants of the package that the named tests must kill.

Each entry changes one exact text of one file, which must occur there
exactly once, so a mutant whose code has moved on fails loudly rather than
testing nothing.  Run from the repository root::

    python tests/mutants.py

It copies ``src``, ``tests`` and ``pyproject.toml`` to a temporary
directory, checks that every named test passes on the unchanged copy, then
applies each mutant in turn and runs ``pytest -x`` on its tests.  A mutant
is killed when a test fails; the run exits with status 1 if any mutant
survives, and with status 2 if an entry is stale, if a named test fails on
the unchanged copy, or if pytest cannot run a mutant's tests at all (a
node that is not collected, say).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    nodes: tuple[str, ...]  # pytest node ids, one of which must fail


OBJECTIVES = "src/resilient_tracking/objectives.py"
TEST_OBJECTIVES = "tests/test_objectives.py"
TEST_BATCHED = "tests/test_batched_enumeration.py"
TEST_WORLDS = "tests/test_worlds.py"
EXTENSIONS_BIT_IDENTICAL = (
    f"{TEST_OBJECTIVES}::test_expected_extensions_are_bit_identical_to_the_literal_construction"
)

MUTANTS = (
    Mutant(
        "expected extensions paint the base into row 0 only",
        OBJECTIVES,
        "painted = [(slice(None), *spans[tid]) for tid in base]",
        "painted = [(0, *spans[tid]) for tid in base]",
        (EXTENSIONS_BIT_IDENTICAL,),
    ),
    Mutant(
        "expected extensions score a block with a matrix product",
        OBJECTIVES,
        """\
                for row, tid in enumerate(block):
                    span_x, span_y = spans[tid]
                    covered[row, span_x, span_y] = 1.0
            except KeyError as missing:
                raise _missing_rect(missing.args[0]) from None
            values += np.vecdot(covered.reshape(len(block), weights.size), weights).tolist()
""",
        """\
                for row, tid in enumerate(block):
                    span_x, span_y = spans[tid]
                    covered[row, span_x, span_y] = 1.0
            except KeyError as missing:
                raise _missing_rect(missing.args[0]) from None
            values += (covered.reshape(len(block), weights.size) @ weights).tolist()
""",
        (EXTENSIONS_BIT_IDENTICAL,),
    ),
    Mutant(
        "expected extensions look the base up inside the candidate loop",
        OBJECTIVES,
        """\
        try:
            painted = [(slice(None), *spans[tid]) for tid in base]
        except KeyError as missing:
            raise _missing_rect(missing.args[0]) from None
        candidates = iter(candidates)
        rows = max(1, BLOCK_CELLS // max(1, weights.size))
        values = []
        while block := list(itertools.islice(candidates, rows)):
            covered = np.zeros((len(block), *self._shape))
""",
        """\
        candidates = iter(candidates)
        rows = max(1, BLOCK_CELLS // max(1, weights.size))
        values = []
        while block := list(itertools.islice(candidates, rows)):
            covered = np.zeros((len(block), *self._shape))
            try:
                painted = [(slice(None), *spans[tid]) for tid in base]
            except KeyError as missing:
                raise _missing_rect(missing.args[0]) from None
""",
        (f"{TEST_OBJECTIVES}::test_missing_rect_raises",),
    ),
    Mutant(
        "expected evaluate adds a repeated member's cells twice",
        OBJECTIVES,
        """\
            for tid in members:
                covered[spans[tid]] = 1.0
""",
        """\
            for tid in members:
                covered[spans[tid]] += 1.0
""",
        (f"{TEST_OBJECTIVES}::test_evaluate_all_is_bit_identical_to_evaluate",),
    ),
    Mutant(
        "coverage best extension keeps the last maximum",
        OBJECTIVES,
        """\
                if value > best:
                    position, best = i, value
""",
        """\
                if value >= best:
                    position, best = i, value
""",
        (f"{TEST_OBJECTIVES}::test_best_choices_are_the_first_optimum_of_evaluate_all",),
    ),
    Mutant(
        "coverage best removal keeps the last minimum",
        OBJECTIVES,
        """\
            if value < best:
                position, best = i, value
""",
        """\
            if value <= best:
                position, best = i, value
""",
        (f"{TEST_OBJECTIVES}::test_best_choices_break_exact_ties_by_first_position",),
    ),
    Mutant(
        "coverage masks packed big-endian",
        OBJECTIVES,
        'np.packbits(bits, axis=1, bitorder="little")',
        'np.packbits(bits, axis=1, bitorder="big")',
        (f"{TEST_OBJECTIVES}::test_packed_word_table_is_the_literal_int_packing",),
    ),
    Mutant(
        "a block names every basis from the first position of each menu run",
        OBJECTIVES,
        "ids.append(menu[i])",
        "ids.append(menu[0])",
        (f"{TEST_BATCHED}::test_chunked_grid_matches_the_whole_grid_and_the_oracles",),
    ),
    Mutant(
        "the kept grid is keyed by its menus alone",
        OBJECTIVES,
        "key = (cap, tuple(map(tuple, menus)))",
        "key = (0, tuple(map(tuple, menus)))",
        (f"{TEST_BATCHED}::test_a_one_block_grid_is_laid_out_once_per_cap",),
    ),
    Mutant(
        "a kept suffix can be written",
        OBJECTIVES,
        "suffix.flags.writeable = False",
        "pass",
        (f"{TEST_BATCHED}::test_a_kept_grid_cannot_be_written",),
    ),
    Mutant(
        "the gathered menu table can be written",
        OBJECTIVES,
        "rows.flags.writeable = False",
        "pass",
        (f"{TEST_BATCHED}::test_a_kept_grid_cannot_be_written",),
    ),
    Mutant(
        "a block reads the suffix one robot further on",
        OBJECTIVES,
        "suffix = suffixes[n - 1 - r]",
        "suffix = suffixes[n - 2 - r]",
        (f"{TEST_BATCHED}::test_batched_maxmin_matches_loop_and_oracle",),
    ),
    Mutant(
        "the curvature witness keeps the last robot of a tied ratio",
        "src/resilient_tracking/analysis.py",
        "lower = ratio < best",
        "lower = ratio <= best",
        (f"{TEST_BATCHED}::test_grid_witness_is_the_stacked_ratio_rule",),
    ),
    Mutant(
        "sampled targets drawn coordinate-major",
        "src/resilient_tracking/worlds.py",
        "random((num_targets, 2))",
        "random((2, num_targets)).T",
        (f"{TEST_WORLDS}::test_sample_instance_draws_what_uniform_draws",),
    ),
    Mutant(
        "an arena whose span overflows is sampled",
        "src/resilient_tracking/worlds.py",
        """\
    if not math.isfinite(width) or not math.isfinite(height):
        raise OverflowError("high - low range exceeds valid bounds")
""",
        "",
        (f"{TEST_WORLDS}::test_sample_instance_refuses_an_arena_whose_span_overflows",),
    ),
)


def mutated(text: str, mutant: Mutant) -> str:
    """``text`` with the mutant applied; a ValueError unless its old text occurs exactly once."""
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(
            f"mutant {mutant.name!r}: its old text occurs {count} times in {mutant.file}"
        )
    return text.replace(mutant.old, mutant.new)


def run_pytest(copy: Path, nodes) -> int:
    """The exit status of ``pytest -x`` on ``nodes`` in the copy, importing the copy's package."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *nodes]
    return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL).returncode


def main(root: Path) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(root / part, copy / part, ignore=ignore)
        shutil.copy2(root / "pyproject.toml", copy)
        sources = {m.file: (copy / m.file).read_text(encoding="utf-8") for m in MUTANTS}
        try:
            texts = [mutated(sources[m.file], m) for m in MUTANTS]
        except ValueError as stale:
            print(stale)
            return 2
        nodes = sorted({node for m in MUTANTS for node in m.nodes})
        if run_pytest(copy, nodes) != 0:
            print("the mutants' tests do not all pass on the unchanged tree")
            return 2
        status = 0
        for mutant, text in zip(MUTANTS, texts):
            path = copy / mutant.file
            path.write_text(text, encoding="utf-8")
            try:
                code = run_pytest(copy, mutant.nodes)
            finally:
                path.write_text(sources[mutant.file], encoding="utf-8")
            if code == 0:
                print(f"SURVIVED: {mutant.name}")
                status = max(status, 1)
            elif code == 1:
                print(f"killed: {mutant.name}")
            else:
                print(f"pytest exit status {code} on mutant {mutant.name!r}")
                status = 2
        return status


if __name__ == "__main__":
    sys.exit(main(Path(__file__).resolve().parents[1]))

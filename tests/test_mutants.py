"""The kept mutants of ``tests/mutants.py`` still fit the code: each snippet
occurs exactly once in its file, and each test meant to catch it exists."""

import subprocess
import sys

from helpers import ROOT, child_env
from mutants import MUTANTS


def test_every_mutant_applies_and_names_existing_tests():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert (ROOT / mutant.path).read_text().count(mutant.old) == 1, mutant.name
        assert mutant.tests and mutant.old != mutant.new, mutant.name
    wanted = {test for mutant in MUTANTS for test in mutant.tests}
    files = sorted({test.split("::")[0] for test in wanted})
    collect = [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *files]
    collected = subprocess.run(collect, cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True).stdout
    assert sorted(wanted - set(collected.splitlines())) == []

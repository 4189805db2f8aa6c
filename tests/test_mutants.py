"""The mutation run's table stays applicable to the code it mutates."""

import os

import mutants


def test_every_mutant_text_occurs_exactly_once():
    stale = []
    for path, old, new, tests in mutants.MUTANTS:
        with open(os.path.join(mutants.ROOT, path)) as f:
            if f.read().count(old) != 1 or old == new:
                stale.append((path, old))
        for test in tests:
            assert os.path.isfile(os.path.join(mutants.ROOT, test)), test
    assert not stale, stale

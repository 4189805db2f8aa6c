"""The mutation run's table stays applicable to the code it mutates."""

import os

import mutants


def test_every_mutant_text_occurs_exactly_once():
    # and each mutated file still compiles, so a mutant is killed by its
    # tests and not by a syntax error
    stale = []
    for path, old, new, tests in mutants.MUTANTS:
        with open(os.path.join(mutants.ROOT, path)) as f:
            text = f.read()
        if text.count(old) != 1 or old == new:
            stale.append((path, old))
        compile(text.replace(old, new), path, "exec")
        for test in tests:
            assert os.path.isfile(os.path.join(mutants.ROOT, test)), test
    assert not stale, stale

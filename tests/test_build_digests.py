"""Frozen coefficients of every canonical catalog name, built from a cold cache.

``build_digests.json`` maps each canonical name to the sha256 of its
coefficients at each size in ``SIZES``: the decimal values, one per line.
The sizes sit on both sides of 32 and 64, at 224 and past 1000, so a change
to any recipe, multiply, inverse or power shows here as a changed digest.

To re-record after a deliberate change of values::

    PYTHONPATH=src python tests/test_build_digests.py
"""

import hashlib
import json
from pathlib import Path

import pytest

import oracle
from qser import catalog

DIGESTS = Path(__file__).with_name("build_digests.json")

SIZES = (1, 31, 32, 33, 64, 224, 300, 1000, 1504)
NAMES = tuple(catalog._RECIPES)


def digest(coeffs) -> str:
    return hashlib.sha256("".join(f"{v}\n" for v in coeffs).encode()).hexdigest()


def cold_digests(name: str) -> dict:
    """Digest of the named series at each size, each built from a cold cache."""
    out = {}
    for n in SIZES:
        catalog.clear_cache()
        out[str(n)] = digest(catalog.build(name, n))
    catalog.clear_cache()
    return out


_DOC = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def test_digests_cover_every_canonical_name():
    assert tuple(_DOC) == NAMES
    assert all(tuple(map(int, d)) == SIZES for d in _DOC.values())


@pytest.mark.parametrize("name", NAMES)
def test_cold_build_matches_frozen_digest(name):
    assert cold_digests(name) == _DOC[name]


@pytest.mark.parametrize("linear,name", [(0, "G"), (1, "H")])
def test_oracle_sums_match_frozen_digest(linear, name):
    # the sum sides of the Rogers-Ramanujan identities, summed with no engine
    # code, equal the frozen theta recipes at every size
    assert {str(n): digest(oracle.rr_sum(linear, n)) for n in SIZES} == _DOC[name]


if __name__ == "__main__":
    doc = {name: cold_digests(name) for name in NAMES}
    DIGESTS.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(NAMES)} names x {len(SIZES)} sizes to {DIGESTS}")

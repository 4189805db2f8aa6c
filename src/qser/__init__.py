"""Exact q-series engine for the Rogers-Ramanujan continued fraction family.

Everything is computed over plain Python integers: truncated power series
arithmetic (:mod:`qser.series`), q-Pochhammer product and theta series
expansion (:mod:`qser.products`), a registry of named series built from them
(:mod:`qser.catalog`), and identity verification plus coefficient-sign
scanning (:mod:`qser.checks`). The ``qser`` command line lives in
:mod:`qser.cli`.
"""

from . import catalog, checks, products, series
from .catalog import *
from .checks import *
from .products import *
from .series import *

__version__ = "0.1.0"

__all__ = catalog.__all__ + checks.__all__ + products.__all__ + series.__all__ + ["__version__"]

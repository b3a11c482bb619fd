"""Exact Schubert polynomial calculator and zero-one classifier.

The package namespace is the union of the modules' `__all__` lists; the
command line (`zeroone.cli`) stays out of it.
"""

from .perms import *
from .poly import *
from .orthodontia import *
from .tableaux import *
from .weyl import *
from .classify import *

__version__ = "0.1.0"

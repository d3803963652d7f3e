"""NDP core models: GEMV unit, activation unit, per-DIMM core.

The command-level executor that validates :meth:`NDPCore.gemv_time` is
a test oracle and lives beside its tests (``tests/ndp_isa.py``).
"""

from .activation import ActivationUnit
from .core import NDPCore
from .gemv import GEMVUnit

__all__ = [
    "ActivationUnit",
    "GEMVUnit",
    "NDPCore",
]

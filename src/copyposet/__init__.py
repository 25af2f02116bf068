"""Executable theory of copies for countable permutation group actions.

Given a decidable presentation of a group acting on a countable set, the
library computes typesets and closures, constructs copies by constrained
back-and-forth, and certifies every construction against the membership
characterization at finite truncation depth.
"""

from .core import IN, OUT, UNKNOWN, FinitenessAnswer, Membership
from .errors import (
    CopyPosetError,
    ImpossibleConstructionError,
    InclusionContractError,
    PreconditionError,
    SearchBudgetError,
    UnknownStructureError,
    UnsupportedConstructionError,
)
from .structures import BUILTIN_IDS, all_structures, get_structure

__version__ = "0.1.0"

__all__ = [
    "IN", "OUT", "UNKNOWN", "FinitenessAnswer", "Membership",
    "BUILTIN_IDS", "all_structures", "get_structure",
    "CopyPosetError", "ImpossibleConstructionError",
    "InclusionContractError", "PreconditionError", "SearchBudgetError",
    "UnknownStructureError", "UnsupportedConstructionError",
    "__version__",
]

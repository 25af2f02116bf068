"""Executable theory of copies for countable permutation group actions.

Given a decidable presentation of a group acting on a countable set, the
library computes typesets and closures, constructs copies, and certifies
every construction against the membership characterization at finite
truncation depth.  Every built-in construction is a cut copy or a closed
form; the constrained back-and-forth search is kept for structures
without a cut, but no constructor reaches it on a built-in structure.
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

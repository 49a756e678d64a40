"""Feedback-shift-register analysis toolkit.

Circuit gadgets, register cycle machinery, sub-register and cascade
decomposition oracles, and builders that translate circuit satisfiability
into register irreducibility / indecomposability questions.
"""

from .circuit import Circuit, TruthTable
from .fsr import Cycle, CycleStructure, Fsr
from .lfsr import GF2Poly, LfsrFamily

__all__ = ["Circuit", "TruthTable", "Cycle", "CycleStructure", "Fsr",
           "GF2Poly", "LfsrFamily"]
__version__ = "0.1.0"

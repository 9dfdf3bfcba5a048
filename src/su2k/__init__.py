"""Exact and numeric computations for the level-k SU(2) anyon models.

The package computes the full recoupling data of the models (fusion rules,
R- and F-symbols, spins, quantum dimensions, S-matrix), verifies the
pentagon/hexagon axioms, builds braid-group representations on splitting-tree
bases, decides exactly whether the double-braiding gate set on the one-qubit
space generates a dense subgroup, and searches double-braid words that
approximate arbitrary one-qubit targets.
"""

from .cyclotomic import Cyc, cos_pi_fraction, min_poly_2cos, minimal_polynomial
from .errors import DomainError, IntegrityError
from .model import Model, get_model
from .braids import BraidWord, SplittingBasis, enumerate_basis, evaluate_word
from .universality import Certificate, certificate, witnesses
from .synth import SearchConfig, SynthResult, synthesize

__version__ = "0.1.0"

__all__ = [
    "BraidWord",
    "Certificate",
    "Cyc",
    "DomainError",
    "IntegrityError",
    "Model",
    "SearchConfig",
    "SplittingBasis",
    "SynthResult",
    "certificate",
    "cos_pi_fraction",
    "enumerate_basis",
    "evaluate_word",
    "get_model",
    "min_poly_2cos",
    "minimal_polynomial",
    "synthesize",
    "witnesses",
    "__version__",
]

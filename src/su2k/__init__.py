"""Exact and numeric computations for the level-k SU(2) anyon models.

The package computes the full recoupling data of the models (fusion rules,
R- and F-symbols, spins, quantum dimensions, S-matrix), verifies the
pentagon/hexagon axioms, builds braid-group representations on splitting-tree
bases, decides exactly whether the double-braiding gate set on the one-qubit
space generates a dense subgroup, and searches double-braid words that
approximate arbitrary one-qubit targets.

The exported names load their home module on first access (PEP 562), so
``import su2k`` or a CLI run pays only for the layers it uses.
"""

import importlib

__version__ = "0.1.0"

_HOME = {
    "BraidWord": "braids",
    "Certificate": "universality",
    "Cyc": "cyclotomic",
    "DomainError": "errors",
    "IntegrityError": "errors",
    "Model": "model",
    "SearchConfig": "synth",
    "SplittingBasis": "braids",
    "SynthResult": "synth",
    "certificate": "universality",
    "cos_pi_fraction": "cyclotomic",
    "enumerate_basis": "braids",
    "evaluate_word": "braids",
    "get_model": "model",
    "synthesize": "synth",
    "witnesses": "universality",
}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

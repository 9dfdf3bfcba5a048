"""Exception types and limits shared across the package."""

#: Largest level a Model is built for, checked before any table is allocated.
#: Every command that builds a model needs at least (k+1)^2 exact S-matrix
#: entries (model, verify), over 4*10^9 stored integers at this level, so no
#: run above it can finish.  Synth and universality build no model, but their
#: qubit generators hold phi(4(k+2)) coefficients per entry over a 4(k+2)-row
#: power table, so they refuse the same levels.
MAX_LEVEL = 1 << 16


class DomainError(ValueError):
    """An operation was asked about labels outside its admissible domain."""


class IntegrityError(RuntimeError):
    """An internal consistency check failed; indicates an implementation bug."""

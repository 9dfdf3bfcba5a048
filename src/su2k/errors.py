"""Exception types and limits shared across the package."""

#: Largest level a Model is built for, checked before any table is allocated.
#: Every command that builds a model needs at least (k+1)^2 exact S-matrix
#: entries, over 4*10^9 stored integers at this level, so no model run above
#: it can finish (verify has the tighter MAX_VERIFY_LEVEL).  Synth and
#: universality build no model, but their qubit generators hold phi(4(k+2))
#: coefficients per entry over a 4(k+2)-row power table, so they refuse the same levels.
MAX_LEVEL = 1 << 16

#: Largest level verify runs: its axiom checks read a zero-extended F table of (k+1)^6
#: doubles, which fits in 2 GiB up to here (1.95 GB; 2.47 GB at k = 25).
MAX_VERIFY_LEVEL = 24

#: Most bits verify's float route takes: at k = 4 it runs about 1 s at 4096 bits and 115 s at
#: 100,000, so a mistyped --precision or $SU2K_PRECISION is refused rather than left running.
MAX_PRECISION = 4096


class DomainError(ValueError):
    """An operation was asked about labels outside its admissible domain."""


class IntegrityError(RuntimeError):
    """An internal consistency check failed; indicates an implementation bug."""


def require_f_table(k: int) -> None:
    """Refuse a level above MAX_VERIFY_LEVEL before its F table is allocated."""
    if k > MAX_VERIFY_LEVEL:
        raise DomainError(f"verifying level {k} needs an F table of {8 * (k + 1) ** 6} bytes; "
                          f"levels above {MAX_VERIFY_LEVEL} (2 GiB) are refused")

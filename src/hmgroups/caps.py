"""Resource limits: each is defined in LIMITS, checked by `check` before the
work it bounds starts, and reported as one CapExceeded that names it.  The
limits are process-wide; `override` changes some of them for a block."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

LIMITS = {
    "enumeration": 4096,   # order of a group realized element by element
    "closure": 2_000_000,  # elements of a generator closure
    "table": 4096,         # order of a group whose multiplication table is built
    "subgroups": 200,      # order of a group whose subgroup lattice is enumerated
    "iso": 256,            # order of each group an isomorphism search compares
    "factor_work": 4_000_000,  # Pollard rho steps spent factoring one number
}


@dataclass(frozen=True)
class Huge:
    """A size known only to be at least 2^bits, too large to build."""
    bits: int


class CapExceeded(RuntimeError):
    """A request above a limit, refused before the work started; `check` sets
    `name`, `limit` and `requested`, and a bare message also constructs one."""

    def __init__(self, message: str | None = None, *, name: str | None = None,
                 limit: int | None = None, requested: int | Huge | None = None,
                 subject: str = ""):
        if message is None:
            hint = ("; raise the cap or use a coprime product / closed-form expression"
                    if name == "enumeration" else "")
            message = (f"{subject} has order {size_text(requested)}, "
                       f"above the {name} cap {limit}{hint}")
        super().__init__(message)
        self.name, self.limit, self.requested = name, limit, requested


def size_text(size: int | Huge) -> str:
    """`size` in full below 10^50, else as "> 10^k" with 10^k below it.

    str() refuses integers of over 4300 digits, so a huge size is named by
    a power of ten, 10^k with k <= bits * log10(2)."""
    if isinstance(size, int) and size < 10 ** 50:
        return str(size)
    bits = size.bits if isinstance(size, Huge) else size.bit_length() - 1
    return f"> 10^{bits * 3010299956 // 10 ** 10}"


def check(name: str, requested: int | Huge, subject: str) -> None:
    """Raise CapExceeded if `requested`, the size of `subject`, exceeds `name`."""
    limit = LIMITS[name]
    if (requested.bits >= limit.bit_length() if isinstance(requested, Huge)
            else requested > limit):
        raise CapExceeded(name=name, limit=limit, requested=requested, subject=subject)


@contextmanager
def override(**limits: int):
    """Set some limits for the duration of a block, then restore them all."""
    if not limits.keys() <= LIMITS.keys():
        raise KeyError(f"unknown limits {sorted(limits.keys() - LIMITS.keys())}")
    saved = dict(LIMITS)
    LIMITS.update(limits)
    try:
        yield
    finally:
        LIMITS.update(saved)

"""Exception types shared across the package, and the resource bounds.

Every bound of a ResourceLimitError (CLI exit 4) lives here, and a module
reads ``errors.<BOUND>`` when it checks, never a copy, so patching this
module moves every check.  A caller keeps its comparison and its charge
formula; past the bound it calls ``refuse``, which words every refusal.
"""

from typing import NoReturn

MAX_FIELD_ORDER = 1 << 16  # q = p**s, so every field table stays a few MB
MAX_PRIME_POWER = 1 << 16  # p**m of the subfield, and so every jet order
DEFAULT_BOX_LIMIT = 10**8  # a work charge: factoring, jets, probes, parsing, word boxes
DEFAULT_TUPLE_LIMIT = 10**6  # representative tuples of one decision
DEFAULT_GROUP_LIMIT = 100_000  # listed elements: groups, representatives, terms, scans


class InputError(ValueError):
    """Malformed user input: a bad expression, instance file or flag value,
    or an element that must be a unit at a modulus place and is not."""


class ResourceLimitError(RuntimeError):
    """A configured search or enumeration bound was exceeded."""


class InternalCheckError(RuntimeError):
    """Two independent computations of the same fact disagreed.

    Raised only when a redundant cross-check fails; it always indicates a
    bug in this package, never bad input.
    """


def refuse(what: str, amount: int, bound: int) -> NoReturn:
    """Stop a run whose amount of something is past its bound."""
    raise ResourceLimitError(f"{what} {amount} exceeds the configured bound {bound}")

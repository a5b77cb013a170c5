"""Exception hierarchy shared by all shiftk modules."""


class ShiftError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ShiftError):
    """Malformed or inconsistent input (presentation, point, move descriptor)."""


class AlphabetMismatchError(ValidationError):
    """A word or point uses letters outside the presentation's alphabet."""


class ResourceCapError(ShiftError):
    """A configured size cap (contexts, words, subset graph) was exceeded."""


class ConsistencyError(ShiftError):
    """An internal invariant that must hold by theory was violated.

    This is always a bug (in this package or in its inputs' validation),
    never a legitimate run-time condition; it is raised loudly instead of
    being patched over.
    """


class StraddleError(ConsistencyError):
    """A symbol moved one equivalence class into two coarser classes."""

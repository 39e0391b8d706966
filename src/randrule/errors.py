"""Exception types shared across the package."""

from contextlib import contextmanager


class InputError(ValueError):
    """Raised when caller-supplied data violates a documented precondition."""


class UnsupportedEvidenceError(InputError):
    """Raised when evidence falls outside the support of every class density, or cannot be scored (nan).

    The posterior is undefined at such points; callers get an explicit error
    instead of NaN.
    """


@contextmanager
def allocation(n: int, what: str):
    """Turn numpy's refusal of arrays ``n`` long into an InputError that names the size."""
    try:
        yield
    except (MemoryError, ValueError) as exc:
        raise InputError(f"cannot allocate arrays for {n} {what}: {exc}") from exc

"""Input validation helpers used across the library.

All helpers raise :class:`repro.exceptions.ValidationError` (or
:class:`ConfigurationError` where the problem is structural) with messages that
name the offending argument, so failures surface close to the API boundary
rather than deep inside the combinatorial machinery.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.exceptions import ConfigurationError, ValidationError

__all__ = [
    "check_positive_int",
    "check_non_negative_int",
    "check_in_range",
    "check_divides",
    "check_permutation",
    "check_permutation_array",
    "check_permutation_stack",
    "check_probability",
    "check_type",
]


def check_type(value: Any, types: type | tuple[type, ...], name: str) -> Any:
    """Ensure ``value`` is an instance of ``types``; return it unchanged."""
    if not isinstance(value, types):
        raise ValidationError(
            f"{name} must be of type {types!r}, got {type(value).__name__}"
        )
    return value


def check_positive_int(value: Any, name: str) -> int:
    """Ensure ``value`` is an ``int`` (not bool) strictly greater than zero."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value <= 0:
        raise ValidationError(f"{name} must be positive, got {value}")
    return value


def check_non_negative_int(value: Any, name: str) -> int:
    """Ensure ``value`` is an ``int`` (not bool) greater than or equal to zero."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValidationError(f"{name} must be non-negative, got {value}")
    return value


def check_in_range(value: int, low: int, high: int, name: str) -> int:
    """Ensure ``low <= value < high``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if not (low <= value < high):
        raise ValidationError(f"{name} must be in [{low}, {high}), got {value}")
    return value


def check_divides(divisor: int, dividend: int, context: str) -> None:
    """Ensure ``divisor`` divides ``dividend`` exactly."""
    if divisor <= 0:
        raise ConfigurationError(f"{context}: divisor must be positive, got {divisor}")
    if dividend % divisor != 0:
        raise ConfigurationError(
            f"{context}: {divisor} does not divide {dividend}"
        )


def check_permutation(pi: Sequence[int], n: int | None = None) -> list[int]:
    """Validate that ``pi`` is a permutation of ``{0, ..., len(pi) - 1}``.

    Parameters
    ----------
    pi:
        Candidate permutation given as a sequence of destination indices.
    n:
        Expected length; if given, ``len(pi)`` must equal ``n``.

    Returns
    -------
    list[int]
        A defensive copy of the permutation as a plain list of ints.
    """
    values = [int(x) for x in pi]
    if n is not None and len(values) != n:
        raise ValidationError(
            f"permutation has length {len(values)}, expected {n}"
        )
    size = len(values)
    seen = [False] * size
    for image in values:
        if not (0 <= image < size):
            raise ValidationError(
                f"permutation entry {image} out of range [0, {size})"
            )
        if seen[image]:
            raise ValidationError(f"permutation repeats the image {image}")
        seen[image] = True
    return values


def check_permutation_array(pi: Sequence[int], n: int | None = None) -> np.ndarray:
    """Vectorized :func:`check_permutation` returning an ``int64`` array.

    Same contract and messages — the validation path of the array-native
    router front end.  Valid input takes whole-array range and ``bincount``
    checks instead of the per-entry Python loop; invalid input is handed to
    :func:`check_permutation`, which names the first offender in input order.
    """
    try:
        values = np.asarray(pi, dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as error:
        raise ValidationError(f"permutation is not integer-valued: {error}") from None
    if values.ndim != 1:
        raise ValidationError(
            f"permutation must be one-dimensional, got shape {values.shape}"
        )
    if n is not None and values.size != n:
        raise ValidationError(
            f"permutation has length {values.size}, expected {n}"
        )
    size = values.size
    if ((values < 0) | (values >= size)).any() or (
        np.bincount(values, minlength=size) > 1
    ).any():
        # Invalid: the scalar check raises for the first offender in input
        # order, so both validators name the same entry.
        check_permutation(values.tolist())
    return values


def check_permutation_stack(pis: Any, n: int | None = None) -> np.ndarray:
    """Validate a ``(B, n)`` stack of permutations; returns an ``int64`` array.

    Batched :func:`check_permutation_array`: every row must be a permutation
    of ``{0, ..., n-1}``.  Violations raise :func:`check_permutation`'s
    message for the first invalid row.
    """
    try:
        values = np.asarray(pis, dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as error:
        raise ValidationError(f"permutation is not integer-valued: {error}") from None
    if values.ndim != 2:
        raise ValidationError(
            f"permutation stack must be two-dimensional, got shape {values.shape}"
        )
    batch, size = values.shape
    if n is not None and size != n:
        raise ValidationError(
            f"permutation has length {size}, expected {n}"
        )
    out_of_range = (values < 0) | (values >= size)
    counts = np.bincount(
        (
            np.arange(batch, dtype=np.int64)[:, None] * size
            + np.where(out_of_range, 0, values)
        ).ravel(),
        minlength=batch * size,
    ).reshape(batch, size)
    invalid = out_of_range.any(axis=1) | (counts > 1).any(axis=1)
    if invalid.any():
        check_permutation(values[int(np.argmax(invalid))].tolist())
    return values


def check_probability(value: float, name: str) -> float:
    """Ensure ``value`` lies in the closed interval [0, 1]."""
    value = float(value)
    if not (0.0 <= value <= 1.0):
        raise ValidationError(f"{name} must be in [0, 1], got {value}")
    return value

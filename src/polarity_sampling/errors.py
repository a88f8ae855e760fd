"""Exception hierarchy shared across the package, and the readers that raise it."""

import json
import math
import numbers
import operator
import reprlib

import numpy as np


class PolarityError(Exception):
    """Base class for all package errors."""


class InputError(PolarityError, ValueError):
    """Bad argument: dimension mismatch, non-finite values, out-of-range k, ..."""


class ValidationError(PolarityError):
    """A model or pool file cannot be read or parsed, or violates an invariant."""


class ConfigError(PolarityError):
    """Experiment configuration is inconsistent or refers to missing resources."""


class StateError(PolarityError):
    """Operation called on an object in the wrong state (e.g. incomplete atlas)."""


class ScaleError(PolarityError):
    """Problem size exceeds what the exact desk-scale oracles support."""


def finite_array(value, what, error):
    """``value`` as a float64 array, or ``error`` naming ``what`` unless it
    holds only finite numbers (bools, strings and nulls are not numbers)."""
    try:
        array = np.asarray(value)
    except ValueError as exc:
        raise error(f"{what} is not an array of numbers ({exc})") from exc
    # numpy reads a bool among numbers as a number, so each entry is looked at
    entries = () if isinstance(value, np.ndarray) else np.asarray(value, dtype=object).flat
    if (array.dtype.kind not in "iuf" or not np.all(np.isfinite(array))
            or any(isinstance(entry, (bool, np.bool_)) for entry in entries)):
        raise error(f"{what} must hold finite numbers")
    return array.astype(np.float64)


# a document field's kinds, as error messages name them
_KINDS = {float: "a finite number", int: "an integer", dict: "an object",
          list: "a list", str: "a string"}


def _as_kind(value, kind):
    """``value`` as ``kind``, or None when it is not one (no bool is a number)."""
    if isinstance(value, bool):
        return None
    if kind is int:
        try:
            return operator.index(value)
        except TypeError:
            return None
    if kind is float:
        try:   # an int past the float range overflows
            number = float(value) if isinstance(value, numbers.Real) else math.nan
        except OverflowError:
            return None
        return number if math.isfinite(number) else None
    return value if isinstance(value, kind) else None


def read_field(value, kind, what, error, least=None, row_bytes=None):
    """``value`` as a document field of ``kind``, or ``error`` naming ``what``.

    A number (``float``) is an int or float whose float is finite, and comes
    back as that float.  An integer (``int``) is what ``operator.index``
    takes, so numpy integers pass, and comes back as an int.  Neither is a
    bool.  A ``dict``, ``list`` or ``str`` comes back as it is, and
    ``[kind]`` is a list of that kind.  The value must be at least ``least``,
    and given ``row_bytes``, that many rows of that many bytes must fit one
    numpy array.
    """
    if isinstance(kind, list):
        return [read_field(entry, kind[0], f"{what} entry", error)
                for entry in read_field(value, list, what, error)]
    checked = _as_kind(value, kind)
    if checked is None:
        raise error(f"{what} must be {_KINDS[kind]}, got {reprlib.repr(value)}")
    if least is not None and checked < least:
        raise error(f"{what} must be at least {least}, got {checked}")
    if row_bytes is not None and checked > np.iinfo(np.intp).max // row_bytes:
        raise error(f"{what}={checked} rows of {row_bytes} bytes exceed any array")
    return checked


def read_bytes(path, error):
    """The bytes of the file at ``path``, or ``error`` if it cannot be read
    (missing, a directory, no permission)."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from exc


def parse_json(data, path, error):
    """The JSON document in ``data``, bytes read from ``path``, or ``error`` if
    they do not parse (not UTF-8; a parse error names its line and column; an
    integer of over 4300 digits does not parse)."""
    try:
        return json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise error(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:   # not UTF-8, or an integer too long
        raise error(f"cannot read {path}: {exc}") from exc


def read_json(path, error):
    """The parsed JSON document at ``path``, or ``error`` if the file cannot be
    read or parsed."""
    return parse_json(read_bytes(path, error), path, error)

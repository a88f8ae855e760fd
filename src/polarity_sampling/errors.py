"""Exception hierarchy shared across the package, and the readers that raise it."""

import json

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


class SamplingTimeout(PolarityError):
    """Online rejection sampling stalled.

    Attributes:
        rejections: number of rejected candidates before giving up.
        acceptance_rate: empirical acceptance-rate estimate at the time of failure.
    """

    def __init__(self, rejections, acceptance_rate):
        self.rejections = rejections
        self.acceptance_rate = acceptance_rate
        super().__init__(
            f"rejection sampling stalled after {rejections} rejections "
            f"(estimated acceptance rate {acceptance_rate:.3e})"
        )


def finite_array(value, what, error):
    """``value`` as a float64 array, or ``error`` naming ``what`` unless it
    holds only finite numbers (bools, strings and nulls are not numbers)."""
    try:
        array = np.asarray(value)
    except ValueError as exc:
        raise error(f"{what} is not an array of numbers ({exc})") from exc
    if array.dtype.kind not in "iuf" or not np.all(np.isfinite(array)):
        raise error(f"{what} must hold finite numbers")
    return array.astype(np.float64)


def read_json(path, error):
    """The parsed JSON document at ``path``, or ``error`` if the file cannot be
    read (missing, a directory, no permission, not UTF-8) or parsed; a parse
    error names its line and column."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise error(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"cannot read {path}: {exc}") from exc

"""Exception types shared across the toolkit, and its integer, real and array rules.

checked_int takes every count, size, index and seed: a Python or numpy
integer at its bound passes unchanged; anything else, an integral float
included, raises InvalidParameter.  Nothing is truncated or hashed.
checked_real takes every level, threshold and shape parameter: a Python
or numpy real that its rule accepts passes unchanged; anything else, a
numeric string included, raises InvalidParameter, and NaN fails every
comparison, so every bounded rule refuses it.  A rule is an (ok, bound)
pair, named *_RULE in the module that owns it; the CLI builds the flag
type from the same pair.
checked_array takes every array: one of booleans, integers or floats,
with the dimensions asked for, comes back as a new float64 array;
anything else, numeric strings, None, objects, complex numbers and
ragged sequences included, raises InvalidParameter giving its type,
dtype and shape.  Bounds on the values stay with each caller.
"""
from numbers import Integral, Real

import numpy as np


class CorrstatError(Exception):
    """Base class for all toolkit errors."""


class ParseError(CorrstatError):
    def __init__(self, message, row=None, col=None):
        super().__init__(message)
        self.row = row
        self.col = col


class DuplicateTicker(CorrstatError):
    def __init__(self, ticker):
        super().__init__(f"duplicate ticker {ticker!r}")
        self.ticker = ticker


class DomainError(CorrstatError):
    pass


class ZeroVariance(CorrstatError):
    def __init__(self, ticker, window=None):
        loc = f" in window {window}" if window is not None else ""
        super().__init__(f"zero variance for {ticker!r}{loc}")
        self.ticker = ticker
        self.window = window


class InsufficientData(CorrstatError):
    pass


class InsufficientSamples(CorrstatError):
    pass


class NumericsError(CorrstatError):
    def __init__(self, message, error_estimate=None):
        super().__init__(message)
        self.error_estimate = error_estimate


class NotPositiveDefinite(CorrstatError):
    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class NotSymmetric(CorrstatError):
    pass


class NotNormalized(CorrstatError):
    pass


class IllPosed(CorrstatError):
    def __init__(self, n_assets, n_obs):
        super().__init__(
            f"minimum-variance problem needs more observations than assets, "
            f"got N={n_assets}, T={n_obs}"
        )
        self.n_assets = n_assets
        self.n_obs = n_obs


class InvalidParameter(CorrstatError):
    pass


def checked_int(what, value, low):
    """value when it is an integer >= low, else InvalidParameter naming what."""
    if isinstance(value, Integral) and value >= low:
        return value
    bound = "a non-negative integer" if low == 0 else f"an integer >= {low}"
    raise InvalidParameter(f"{what} must be {bound}, got {value!r}")


def checked_real(what, value, ok, bound):
    """value when it is a real number ok accepts, else InvalidParameter naming what and bound."""
    if isinstance(value, Real) and ok(value):
        return value
    raise InvalidParameter(f"{what} must be {bound}, got {value!r}")


def checked_array(what, value, ndim=None):
    """value as a new C-order float64 array when it holds only real numbers and
    has ndim dimensions (any, when None), else InvalidParameter naming what."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged sequence
        got = f"a ragged {type(value).__name__}"
    else:
        if arr.dtype.kind in "biuf" and ndim in (None, arr.ndim):
            return arr.astype(np.float64, order="C")
        got = f"{type(value).__name__} of dtype {arr.dtype} and shape {arr.shape}"
    dims = "an array" if ndim is None else f"a {ndim}-d array"
    raise InvalidParameter(f"{what} must be {dims} of real numbers, got {got}")

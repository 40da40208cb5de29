"""Exception types shared across the toolkit, and its type, collection, integer, real, array
and matrix rules.

An error is its type and one message line; it carries no other fields.

checked_type takes every argument that must be one of the toolkit's own
types (a panel, a law's parameters, a snapshot, a truth) or a callable:
anything else, None included, raises InvalidParameter naming the argument,
the type it must be (each type, when it may be one of several) and the type
it is, before any attribute is read.
checked_items takes every collection argument: its items come back as a
tuple (a string's characters); a value that is not iterable or, given a
count, does not hold exactly that many items (at most count + 1 are read,
so an endless iterator is refused) raises InvalidParameter naming it.
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
dtype and shape.  Finiteness is the rule's, not each caller's: the
first NaN or infinite entry raises DomainError naming it and its index,
before any arithmetic.  Other bounds on the values stay with each caller.
checked_symmetric takes every symmetric matrix, covariance and
correlation included: checked_array's finite 2-d array, refused with
InvalidParameter unless square and at least 1 x 1, and with NotSymmetric
(the one asymmetry error) where max |m - m.T| > 1e-12 max(1, max |entry|).
It returns the matrix's exact symmetric part, so a Cholesky factor or an
eigh, which read one triangle, and a solve or w'Cw, which read both, see
one matrix; no caller symmetrizes by hand.
"""
from itertools import islice
from numbers import Integral, Real

import numpy as np


class CorrstatError(Exception):
    """Base class for all toolkit errors."""


class ParseError(CorrstatError):
    pass


class DuplicateTicker(CorrstatError):
    pass


class DomainError(CorrstatError):
    pass


class ZeroVariance(CorrstatError):
    pass


class InsufficientData(CorrstatError):
    pass


class InsufficientSamples(CorrstatError):
    pass


class NumericsError(CorrstatError):
    pass


class NotPositiveDefinite(CorrstatError):
    pass


class NotSymmetric(CorrstatError):
    pass


class NotNormalized(CorrstatError):
    pass


class IllPosed(CorrstatError):
    pass


class InvalidParameter(CorrstatError):
    pass


def checked_type(what, value, cls):
    """value when it is a cls (or one of a tuple of them), else InvalidParameter naming what
    and each type."""
    if isinstance(value, cls):
        return value
    names = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
    raise InvalidParameter(f"{what} must be of type {names}, got {type(value).__name__}")


def checked_items(what, value, count=None, bound="a collection"):
    """value's items as a tuple, exactly count of them if given, else InvalidParameter."""
    try:
        items = iter(value)
    except TypeError:  # not iterable
        raise InvalidParameter(f"{what} must be {bound}, got {value!r}") from None
    items = tuple(islice(items, None if count is None else count + 1))  # ends an endless one
    if count not in (None, len(items)):
        raise InvalidParameter(f"{what} must be {bound}, got {value!r}")
    return items


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
    """value as a new C-order float64 array when it holds only finite real numbers and has
    ndim dimensions (any, when None), else InvalidParameter, or DomainError at a NaN or inf."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged sequence
        got = f"a ragged {type(value).__name__}"
    else:
        if arr.dtype.kind in "biuf" and ndim in (None, arr.ndim):
            with np.errstate(over="ignore"):  # a longdouble beyond float64 is refused as inf
                arr = arr.astype(np.float64, order="C")
            if np.isfinite(arr).all():
                return arr
            at = tuple(int(k) for k in np.argwhere(~np.isfinite(arr))[0])
            raise DomainError(f"{what} has non-finite entry {arr[at]} at {at}")
        got = f"{type(value).__name__} of dtype {arr.dtype} and shape {arr.shape}"
    dims = "an array" if ndim is None else f"a {ndim}-d array"
    raise InvalidParameter(f"{what} must be {dims} of real numbers, got {got}")


def checked_symmetric(what, value):
    """The symmetric part of checked_array(what, value, 2) when it is square, at least 1 x 1
    and symmetric within 1e-12 max(1, max |entry|), else the error naming what and the fault."""
    mat = checked_array(what, value, 2)
    if mat.shape[0] != mat.shape[1] or not mat.size:
        raise InvalidParameter(f"{what} must be square and at least 1 x 1, got shape {mat.shape}")
    # halved first, so neither the gap nor the part can overflow; the half gap
    # is exactly antisymmetric, so its max is its largest |entry|
    half = 0.5 * mat
    gap, bound = 2.0 * float((half - half.T).max()), 1e-12 * max(1.0, float(np.abs(mat).max()))
    if gap > bound:
        raise NotSymmetric(f"{what} asymmetry {gap:.3e} exceeds {bound:.3e}")
    return half + half.T if gap else mat

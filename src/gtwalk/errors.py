"""Exception types shared across the package, and the number rule of the
values their checks refuse."""

import math


class GtwalkError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(GtwalkError, ValueError):
    """Bad argument: non-finite coordinates, base-point mismatch, etc.;
    ``key`` names the refused parameter where a config key of that name
    sets it, so the config parser can name the key."""

    def __init__(self, message: str = "", key: str | None = None):
        super().__init__(message)
        self.key = key


class DegenerateGeodesic(GtwalkError, ValueError):
    """A geodesic between coincident endpoints was requested."""


class UnsupportedOperation(GtwalkError, NotImplementedError):
    """The model does not support this operation (e.g. numeric-chart distance)."""


class SingularConfiguration(GtwalkError, ArithmeticError):
    """A normalization factor vanished (e.g. conjugate-point crossing)."""


class ConfigError(GtwalkError, ValueError):
    """Experiment configuration is malformed; message names the key path."""


def is_number(value) -> bool:
    """A finite JSON number: an int or a float, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def check_json_type(key: str, value, kind: type) -> None:
    """Refuse a value not of JSON type ``kind``, naming ``key``: int takes
    an integer, float a finite number (``is_number``) and bool true or
    false; a bool is no number, and bool("false") is True."""
    ok, what = {int: (isinstance(value, int) and not isinstance(value, bool),
                      "an integer"),
                float: (is_number(value), "a finite number"),
                bool: (isinstance(value, bool), "true or false")}[kind]
    if not ok:
        raise InvalidInput(f"must be {what}, not {value!r}", key=key)

"""Unit expressions shared by parameter files and the schedule DSL.

Couplings and detunings are angular frequencies in rad/s, durations are in
seconds. Human-facing files write them as short expressions instead of raw
floats:

    2pi*50 MHz      -> 2*pi*50e6 rad/s
    4.4e8 rad/s     -> 4.4e8
    3 ns            -> 3e-9 s
    0.15 us         -> 1.5e-7 s

The ``2pi*`` prefix is what turns an ordinary frequency into an angular one;
a frequency unit without it is rejected so nobody silently loses a factor of
2*pi.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal

__all__ = [
    "TWO_PI",
    "two_pi_mhz",
    "parse_frequency",
    "parse_time",
    "seconds_to_ns",
]

TWO_PI = 2.0 * math.pi

_FREQUENCY_SCALE = {"ghz": 1e9, "mhz": 1e6, "khz": 1e3, "hz": 1.0}
_TIME_EXPONENT = {"s": 0, "ms": -3, "us": -6, "ns": -9, "ps": -12}

_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_FREQ_RE = re.compile(rf"^(2pi\*)?\s*({_NUMBER})\s*([a-zA-Z/]+)?$")
_TIME_RE = re.compile(rf"^({_NUMBER})\s*([a-zA-Z]+)?$")


def two_pi_mhz(value: float) -> float:
    """Angular frequency in rad/s for ``value`` megahertz."""
    return TWO_PI * value * 1e6


def parse_frequency(text: str) -> float:
    """Parse an angular-frequency expression into rad/s.

    Accepted forms: ``2pi*<number> <GHz|MHz|kHz|Hz>`` and
    ``<number> rad/s``. A bare number, a frequency unit without the
    ``2pi*`` prefix, or a value that overflows a float raises ValueError.
    """
    match = _FREQ_RE.match(text.strip())
    if match is None:
        raise ValueError(f"malformed frequency expression: {text!r}")
    prefix, number, unit = match.groups()
    value = float(number)
    if unit is None:
        raise ValueError(f"frequency expression lacks a unit: {text!r}")
    unit_key = unit.lower()
    if unit_key == "rad/s":
        if prefix:
            raise ValueError(f"2pi* prefix is not meaningful for rad/s: {text!r}")
        return _finite(value, text)
    if unit_key in _FREQUENCY_SCALE:
        if not prefix:
            raise ValueError(
                f"frequency in {unit} needs the 2pi* prefix to fix the angular convention: {text!r}"
            )
        return _finite(TWO_PI * value * _FREQUENCY_SCALE[unit_key], text)
    raise ValueError(f"unknown frequency unit {unit!r} in {text!r}")


def parse_time(text: str) -> float:
    """Parse a duration expression (``3 ns``, ``0.15 us``) into seconds; an overflow raises ValueError."""
    match = _TIME_RE.match(text.strip())
    if match is None:
        raise ValueError(f"malformed duration expression: {text!r}")
    number, unit = match.groups()
    if unit is None:
        raise ValueError(f"duration lacks a unit suffix: {text!r}")
    unit_key = unit.lower()
    if unit_key not in _TIME_EXPONENT:
        raise ValueError(f"unknown time unit {unit!r} in {text!r}")
    # scale in decimal before the single binary rounding, so "3 ns" hits
    # the same double as the literal 3e-9 (3.0 * 1e-9 lands one ulp off)
    return _finite(float(Decimal(number).scaleb(_TIME_EXPONENT[unit_key])), text)


def _finite(value: float, text: str) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} overflows a float")
    return value


def seconds_to_ns(value_s: float) -> float:
    """Exact decimal rescale s -> ns (one binary rounding), for display."""
    return float(Decimal(repr(float(value_s))).scaleb(9))

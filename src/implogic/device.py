"""Device-level model of a bipolar metal-oxide memristor.

A device is described by a static parameter set (switching-threshold ranges
and ON/OFF read conductances), a binary logic state with an analog
degradation scale, and an I-V law that is either ohmic per state or a
sinh-shaped nonlinearity per state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "Logic",
    "LinearIV",
    "SinhIV",
    "MemristorSpec",
    "DeviceState",
    "ThresholdSample",
    "current",
    "iv",
    "iv_params",
    "read_conductance",
    "nominal_thresholds",
    "decode_bit",
    "sinh_iv_from_conductances",
    "bottom_device_spec",
    "top_device_spec",
    "ideal_device_spec",
    "PARTIAL_RESET_FACTOR",
    "READ_VOLTAGE",
]

READ_VOLTAGE = 0.1
# One partial-reset event multiplies the conductance scale by this factor.
PARTIAL_RESET_FACTOR = 0.7


class Logic(Enum):
    OFF = 0
    ON = 1


def check_finite(obj) -> None:
    """Raise ValueError naming the first non-finite numeric field of a dataclass."""
    for name, value in vars(obj).items():
        if isinstance(value, (float, int, np.floating)) and not math.isfinite(value):
            raise ValueError(f"{type(obj).__name__}.{name} must be finite, got {value!r}")


_JSON_KINDS = {dict: "an object", list: "an array", str: "a string", float: "a number"}


def _check_json(value, kind: type, what: str):
    """Return a value parsed from JSON if it has the JSON type ``kind``
    (dict, list, str, or float for any number but a boolean, returned as a
    float); otherwise raise ValueError naming ``what``."""
    if kind is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ValueError(f"{what} must be {_JSON_KINDS[kind]}, got {type(value).__name__}")
    try:
        return float(value) if kind is float else value
    except OverflowError:  # an integer literal beyond the float range
        raise ValueError(f"{what} is out of the float range") from None


@dataclass(frozen=True)
class LinearIV:
    """Ohmic branch per state: I = G * V."""

    kind: str = field(default="linear", init=False)


@dataclass(frozen=True)
class SinhIV:
    """Per-state I(V) = a * sinh(b * V); odd and strictly increasing.

    The small-signal slope a*b must match the declared read conductance of
    the owning spec to within 1%.
    """

    a_on: float
    b_on: float
    a_off: float
    b_off: float
    kind: str = field(default="sinh", init=False)

    def __post_init__(self):
        check_finite(self)
        for name in ("a_on", "b_on", "a_off", "b_off"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"SinhIV.{name} must be > 0")


def sinh_iv_from_conductances(g_on: float, g_off: float,
                              b_on: float, b_off: float) -> SinhIV:
    """Build a sinh I-V whose zero-bias slopes equal the read conductances."""
    return SinhIV(a_on=g_on / b_on, b_on=b_on, a_off=g_off / b_off, b_off=b_off)


@dataclass(frozen=True)
class MemristorSpec:
    """Static per-device parameters.

    Voltages are in volts (set thresholds positive, reset thresholds
    negative, with v_reset_max the more negative guaranteed-full-reset
    level); conductances in siemens.
    """

    v_set_min: float
    v_set_max: float
    v_reset_min: float
    v_reset_max: float
    g_on: float
    g_off: float
    iv_model: LinearIV | SinhIV = field(default_factory=LinearIV)

    def __post_init__(self):
        check_finite(self)
        if not 0.0 < self.v_set_min <= self.v_set_max:
            raise ValueError("require 0 < v_set_min <= v_set_max")
        if not self.v_reset_max <= self.v_reset_min < 0.0:
            raise ValueError("require v_reset_max <= v_reset_min < 0")
        if not 0.0 < self.g_off < self.g_on:
            raise ValueError("require 0 < g_off < g_on")
        if isinstance(self.iv_model, SinhIV):
            for slope, g in ((self.iv_model.a_on * self.iv_model.b_on, self.g_on),
                             (self.iv_model.a_off * self.iv_model.b_off, self.g_off)):
                if abs(slope - g) > 0.01 * g:
                    raise ValueError(
                        "sinh small-signal slope deviates more than 1% from "
                        f"the declared read conductance ({slope:.4g} vs {g:.4g})")

    @property
    def v_set_star(self) -> float:
        return 0.5 * (self.v_set_max + self.v_set_min)

    @property
    def set_half_width(self) -> float:
        return 0.5 * (self.v_set_max - self.v_set_min)

    def to_json(self) -> dict:
        out = {
            "v_set_min": self.v_set_min,
            "v_set_max": self.v_set_max,
            "v_reset_min": self.v_reset_min,
            "v_reset_max": self.v_reset_max,
            "g_on": self.g_on,
            "g_off": self.g_off,
        }
        if isinstance(self.iv_model, SinhIV):
            out["iv"] = {"kind": "sinh", "a_on": self.iv_model.a_on,
                         "b_on": self.iv_model.b_on, "a_off": self.iv_model.a_off,
                         "b_off": self.iv_model.b_off}
        else:
            out["iv"] = {"kind": "linear"}
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "MemristorSpec":
        obj = _check_json(obj, dict, "device spec")
        iv = _check_json(obj.get("iv", {"kind": "linear"}), dict, "iv")
        if iv.get("kind", "linear") == "linear":
            model: LinearIV | SinhIV = LinearIV()
        elif iv["kind"] == "sinh":
            model = SinhIV(*(_check_json(iv[k], float, f"iv.{k}")
                             for k in ("a_on", "b_on", "a_off", "b_off")))
        else:
            raise ValueError(f"unknown iv kind {iv.get('kind')!r}")
        return cls(*(_check_json(obj[k], float, k) for k in (
            "v_set_min", "v_set_max", "v_reset_min", "v_reset_max", "g_on", "g_off")),
            iv_model=model)


@dataclass(frozen=True)
class DeviceState:
    """Binary logic state plus a conductance scale in (0, 1].

    The scale multiplies the nominal state conductance and models partial
    reset (a degraded ON/OFF ratio). Any ideal write or complete switching
    event restores scale 1.
    """

    logic: Logic = Logic.OFF
    conductance_scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.conductance_scale <= 1.0:
            raise ValueError("conductance_scale must be in (0, 1]")


ON = DeviceState(Logic.ON)
OFF = DeviceState(Logic.OFF)


@dataclass(frozen=True)
class ThresholdSample:
    """One cycle's realized switching thresholds."""

    v_set: float
    v_reset_onset: float
    v_reset_full: float

    def __post_init__(self):
        if self.v_reset_full > self.v_reset_onset:
            raise ValueError("v_reset_full must be <= v_reset_onset")


def iv_params(spec: MemristorSpec, state: DeviceState) -> tuple[float, ...]:
    """The parameters of ``spec``'s I-V law in ``state``, with the
    conductance scale folded in: (a, b, a*b) of a sinh device, (g,) of an
    ohmic one. Arrays of such entries, one per point, describe a grid of
    devices for ``iv``."""
    on = state.logic is Logic.ON
    model = spec.iv_model
    if isinstance(model, SinhIV):
        a = state.conductance_scale * (model.a_on if on else model.a_off)
        b = model.b_on if on else model.b_off
        return (a, b, a * b)
    return (state.conductance_scale * (spec.g_on if on else spec.g_off),)


def iv(params: tuple, v, slope: bool = True, out: tuple = (None, None)):
    """The one I-V law: (current, dI/dV) at drop v for the parameters of
    ``iv_params``, or the current alone when ``slope`` is False; the
    parameters and v may be floats or arrays that broadcast together, and
    take the same numpy ufuncs, so a float gives the bits of the same array
    entry. Sinh: a*sinh(b*v) and (a*b)*cosh(b*v), with b*v formed once;
    ohmic: g*v and g. Both are odd in v. Where sinh or cosh overflows, the
    result saturates to inf with numpy's warning.

    ``out`` is numpy's ``out`` for the current and the slope: None
    allocates, an array of the result's shape receives it (b*v goes to the
    slope's buffer first), and either gives the same bits. An ohmic device
    returns g as its slope and leaves that buffer alone."""
    i_out, di_out = out
    if len(params) == 1:
        g, = params
        i = np.multiply(g, v, i_out)
        return (i, g) if slope else i
    a, b, ab = params
    bv = np.multiply(b, v, di_out)
    i = np.multiply(a, np.sinh(bv, i_out), i_out)
    return (i, np.multiply(ab, np.cosh(bv, di_out), di_out)) if slope else i


def current(spec: MemristorSpec, state: DeviceState, v):
    """Device current at voltage drop v (a float or an array): ``iv`` at
    the state's parameters, saturating to inf with numpy's warning."""
    return iv(iv_params(spec, state), v, slope=False)


def read_conductance(spec: MemristorSpec, state: DeviceState) -> float:
    """Static conductance I(v)/v at v = ``READ_VOLTAGE``."""
    return current(spec, state, READ_VOLTAGE) / READ_VOLTAGE


def decode_bit(spec: MemristorSpec, state: DeviceState) -> int:
    """Read out a logic bit: 1 if the read conductance is above the
    geometric mean of the ON and OFF conductances, else 0."""
    return int(read_conductance(spec, state) > math.sqrt(spec.g_on * spec.g_off))


def nominal_thresholds(spec: MemristorSpec) -> ThresholdSample:
    """Midpoint thresholds used when cycle-to-cycle variation is disabled."""
    return ThresholdSample(
        v_set=spec.v_set_star,
        v_reset_onset=0.5 * (spec.v_reset_min + spec.v_reset_max),
        v_reset_full=spec.v_reset_max,
    )


def bottom_device_spec(iv_model: LinearIV | SinhIV | None = None) -> MemristorSpec:
    """Measured bottom-level device: set range 1.1-1.9 V, 115/10 uS read."""
    return MemristorSpec(v_set_min=1.1, v_set_max=1.9, v_reset_min=-1.5,
                         v_reset_max=-2.2, g_on=115e-6, g_off=10e-6,
                         iv_model=iv_model or LinearIV())


def top_device_spec(iv_model: LinearIV | SinhIV | None = None) -> MemristorSpec:
    """Measured top-level device: set range 0.7-1.6 V, 125/5 uS read."""
    return MemristorSpec(v_set_min=0.7, v_set_max=1.6, v_reset_min=-1.5,
                         v_reset_max=-2.2, g_on=125e-6, g_off=5e-6,
                         iv_model=iv_model or LinearIV())


def ideal_device_spec(v_set: float = 1.5, g_on: float = 115e-6,
                      g_off: float = 10e-6) -> MemristorSpec:
    """Zero-variation device with a sharp set threshold; handy for logic
    verification where every correct step must succeed."""
    return MemristorSpec(v_set_min=v_set, v_set_max=v_set, v_reset_min=-1.5,
                         v_reset_max=-2.2, g_on=g_on, g_off=g_off)

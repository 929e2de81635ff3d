"""Joint spectral amplitudes of the two-photon probe.

Two probe families are supported:

* uncorrelated Gaussian pairs,
      psi(ws, wl) = exp(-[(ws-wsc)^2 + (wl-wlc)^2] / (2 sigma^2)),
* frequency-entangled pairs from downconversion, a Gaussian pump
  envelope times the crystal phase-mismatch factor,
      psi(ws, wl) = exp(-(ws+wl-wp)^2 / (2 sigma_p^2)) * exp(-kappa^2),
      kappa = (ws - wsc) Ts/2 + (wl - wlc) Tl/2.

Signal frequencies are stored as detunings from the |0> -> |1>
transition; idler frequencies from an arbitrary idler origin.  The pump
center lives in the same shifted coordinates, so energy matching reads
omega_sc + omega_lc = omega_p.  Everything is in units of gamma.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import GridTooCoarse, ValidationError

#: A sampling step must resolve the narrowest amplitude feature by this factor.
RESOLVE_FACTOR = 10.0
#: Default grids sample that feature this many times per width instead.
DEFAULT_STEP_FACTOR = 20.0
#: Default grids extend this many widths from the center.
DEFAULT_SPAN_WIDTHS = 6.0
#: Most points a grid may hold, checked before any allocation; about 100x
#: the 9301-point scans of the shipped configs.
MAX_GRID_POINTS = 1_000_000
#: Fewest intervals a grid may have, so its half-width spans at least 5 steps.
MIN_GRID_INTERVALS = 10
#: A row is evaluated where its exponent E is at most this; exp(-E) is 0.0 above 745.14.
UNDERFLOW_EXPONENT = 750.0


class JsaKind(enum.Enum):
    UNCORRELATED_GAUSSIAN = "uncorrelated"
    ENTANGLED_SPDC = "entangled"


@dataclass(frozen=True)
class BiphotonAmplitude:
    """Descriptor of one two-photon joint spectral amplitude.

    ``scale`` multiplies the raw amplitude (the default construction
    peaks at 1).
    """

    kind: JsaKind
    omega_sc: float = 0.0
    omega_lc: float = 0.0
    sigma: float = 1.0
    omega_p: Optional[float] = None
    sigma_p: float = 1.0
    t_s: float = 0.0
    t_l: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.omega_p is None and self.kind is not JsaKind.UNCORRELATED_GAUSSIAN:
            # Energy matching unless the caller overrides the pump center.
            object.__setattr__(self, "omega_p", self.omega_sc + self.omega_lc)
        for name in ("omega_sc", "omega_lc", "sigma", "omega_p", "sigma_p", "t_s", "t_l", "scale"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):  # omega_p may be None
                raise ValidationError(f"{name} must be finite")
        if not (self.sigma > 0):
            raise ValidationError("sigma > 0")
        if not (self.sigma_p > 0):
            raise ValidationError("sigma_p > 0")
        if self.t_s < 0 or self.t_l < 0:
            raise ValidationError("t_s >= 0 and t_l >= 0")

    @classmethod
    def uncorrelated(cls, omega_sc=0.0, omega_lc=0.0, sigma=1.0, scale=1.0):
        return cls(
            JsaKind.UNCORRELATED_GAUSSIAN,
            omega_sc=omega_sc,
            omega_lc=omega_lc,
            sigma=sigma,
            scale=scale,
        )

    @classmethod
    def entangled(
        cls, omega_sc=0.0, omega_lc=0.0, sigma_p=1.0, t_s=0.0, t_l=0.0,
        omega_p=None, scale=1.0,
    ):
        return cls(
            JsaKind.ENTANGLED_SPDC,
            omega_sc=omega_sc,
            omega_lc=omega_lc,
            sigma_p=sigma_p,
            t_s=t_s,
            t_l=t_l,
            omega_p=omega_p,
            scale=scale,
        )

    def feature_widths(self) -> list[float]:
        """Characteristic widths (units of gamma) of every amplitude feature.

        The first is the envelope width: ``sigma`` for the uncorrelated kind,
        ``sigma_p`` for the entangled kind, which adds 1/t_s and 1/t_l for nonzero delays.
        """
        if self.kind is JsaKind.UNCORRELATED_GAUSSIAN:
            widths = [self.sigma]
        else:
            widths = [self.sigma_p]
            if self.t_s > 0:
                widths.append(1.0 / self.t_s)
            if self.t_l > 0:
                widths.append(1.0 / self.t_l)
        return widths


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform, endpoint-inclusive sampling grid on one frequency axis.

    Grids compare and hash by center, half-width and step; ``points``
    follows from them and takes no part.
    """

    center: float
    half_width: float
    step: float
    points: np.ndarray = field(compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).copy()
        if not (self.step > 0):
            raise ValidationError("step > 0")
        if pts.ndim != 1 or pts.size < MIN_GRID_INTERVALS + 1:
            raise ValidationError(f"grid needs at least {MIN_GRID_INTERVALS} intervals")
        diffs = np.diff(pts)
        if not np.allclose(diffs, self.step, rtol=1e-9, atol=1e-12):
            raise ValidationError("points must be uniformly spaced by step")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @classmethod
    def build(cls, center: float, half_width: float, max_step: float) -> "FrequencyGrid":
        """Uniform grid over [center-hw, center+hw] with step <= max_step."""
        if not (max_step > 0 and half_width > 0):
            raise ValidationError("half_width > 0 and max_step > 0")
        intervals = 2.0 * half_width / max_step
        _check_point_count(intervals, half_width, max_step)
        return cls._spanning(center, half_width, max(MIN_GRID_INTERVALS, math.ceil(intervals)))

    def halved_step(self) -> "FrequencyGrid":
        """Same span, twice the intervals; the original points are kept exactly."""
        intervals = 2 * (self.points.size - 1)
        _check_point_count(intervals, self.half_width, self.step / 2.0)
        return FrequencyGrid._spanning(self.center, self.half_width, intervals)

    @classmethod
    def _spanning(cls, center: float, half_width: float, intervals: int) -> "FrequencyGrid":
        """``intervals`` equal steps over [center - half_width, center + half_width]."""
        step = 2.0 * half_width / intervals
        points = center + np.linspace(-half_width, half_width, intervals + 1)
        return cls(center=center, half_width=half_width, step=step, points=points)


def _check_point_count(intervals: float, half_width: float, step: float) -> None:
    """Reject a grid of ``intervals`` steps before its points are allocated."""
    if intervals + 1 > MAX_GRID_POINTS:
        raise ValidationError(
            f"grid of half-width {half_width:g} and step {step:g} needs more "
            f"than the {MAX_GRID_POINTS} points allowed"
        )


def _require_resolving(amp: BiphotonAmplitude, grid: FrequencyGrid) -> None:
    """Raise GridTooCoarse unless the step resolves the narrowest width, capped at 1."""
    limit = min(1.0, *amp.feature_widths()) / RESOLVE_FACTOR
    if grid.step > limit * (1.0 + 1e-12):
        raise GridTooCoarse(
            f"grid step {grid.step:g} exceeds {limit:g} needed to resolve the amplitude"
        )


def jsa_value(amp: BiphotonAmplitude, omega_s, omega_l):
    """Real joint spectral amplitude at (omega_s, omega_l); accepts arrays."""
    ws = np.asarray(omega_s, dtype=float)
    wl = np.asarray(omega_l, dtype=float)
    if amp.kind is JsaKind.UNCORRELATED_GAUSSIAN:
        expo = ((ws - amp.omega_sc) ** 2 + (wl - amp.omega_lc) ** 2) / (
            2.0 * amp.sigma**2
        )
    else:
        pump = ((ws + wl - amp.omega_p) ** 2) / (2.0 * amp.sigma_p**2)
        kappa = (ws - amp.omega_sc) * (amp.t_s / 2.0) + (wl - amp.omega_lc) * (
            amp.t_l / 2.0
        )
        expo = pump + kappa**2
    return amp.scale * np.exp(-expo)


def row_support(
    amp: BiphotonAmplitude, grid_s: FrequencyGrid, omega_l, floor: float = 0.0
) -> slice:
    """Slice of grid_s.points outside which |psi(., omega_l)| is below ``floor`` (or 0.0).

    At a fixed idler both kinds are scale * exp(-E), E = curv * (d - mu)^2
    + c0 in the signal detuning d.  The slice holds the points with E <=
    min(UNDERFLOW_EXPONENT, ln(|scale| / floor)) and one more on each side;
    all if the closed form overflows.  The default floor 0.0 keeps every
    nonzero value; a zero scale with a positive floor gives an empty slice.
    """
    wl = float(omega_l)
    limit = UNDERFLOW_EXPONENT
    if floor > 0.0:
        if amp.scale == 0.0:
            return slice(0, 0)
        limit = min(limit, math.log(abs(amp.scale)) - math.log(floor))
    try:
        if amp.kind is JsaKind.UNCORRELATED_GAUSSIAN:
            curv, mu = 0.5 / amp.sigma**2, amp.omega_sc
            c0 = curv * (wl - amp.omega_lc) ** 2
        else:  # (d - a)^2 / (2 sigma_p^2) + (r (d - omega_sc) + k)^2
            pump, r = 0.5 / amp.sigma_p**2, amp.t_s / 2.0
            a, k = amp.omega_p - wl, (wl - amp.omega_lc) * (amp.t_l / 2.0)
            curv = pump + r * r
            mu = (pump * a + r * (r * amp.omega_sc - k)) / curv
            c0 = pump * (mu - a) ** 2 + (r * (mu - amp.omega_sc) + k) ** 2
        if c0 > limit:
            return slice(0, 0)
        reach = math.sqrt((limit - c0) / curv)
    except ArithmeticError:  # overflow or division by zero
        return slice(None)
    if not math.isfinite(mu + reach):  # nan from inf - inf or inf / inf
        return slice(None)
    first, last = np.searchsorted(grid_s.points, [mu - reach, mu + reach], side="right")
    return slice(max(int(first) - 1, 0), int(last) + 1)


def jsa_row(amp: BiphotonAmplitude, grid_s: FrequencyGrid, omega_l: float, floor: float = 0.0):
    """``(support, row)``: psi(., omega_l) sampled on its ``row_support`` slice of grid_s.

    ``floor`` is the smallest |psi| the caller needs (see ``row_support``).
    Raises GridTooCoarse unless grid_s resolves amp.
    """
    _require_resolving(amp, grid_s)
    support = row_support(amp, grid_s, omega_l, floor)
    return support, jsa_value(amp, grid_s.points[support], omega_l)


def default_grid(
    amp: BiphotonAmplitude, gamma: float, lambdas: Sequence[float] = ()
) -> FrequencyGrid:
    """Signal grid sized to the amplitude and the dressed lines (see default_grid_parameters)."""
    return FrequencyGrid.build(*default_grid_parameters(amp, gamma, lambdas))


def default_grid_parameters(
    amp: BiphotonAmplitude, gamma: float, lambdas: Sequence[float] = ()
) -> tuple[float, float, float]:
    """Center, half-width and largest step of ``default_grid``.

    The center is the amplitude's signal center.  Half-width covers
    DEFAULT_SPAN_WIDTHS times the larger of the envelope width and gamma,
    extended so every dressed eigenvalue is covered with a 6-gamma margin.
    The step resolves the narrowest feature (and gamma) DEFAULT_STEP_FACTOR times.
    """
    if not (gamma > 0):
        raise ValidationError("gamma > 0")
    widths = amp.feature_widths()
    half_width = DEFAULT_SPAN_WIDTHS * max(widths[0], gamma)
    for lam in lambdas:
        half_width = max(half_width, abs(float(lam)) + DEFAULT_SPAN_WIDTHS * gamma)
    step = min(gamma, *widths) / DEFAULT_STEP_FACTOR
    return amp.omega_sc, half_width, step

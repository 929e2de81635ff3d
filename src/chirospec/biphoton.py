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

from .errors import ValidationError

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

    ``intervals`` equal steps span [center - half_width, center + half_width].
    ``step`` and the read-only ``points`` derive from these three fields, so
    grids that compare and hash equal have equal points.  ``intervals`` is an
    int of at least MIN_GRID_INTERVALS with at most MAX_GRID_POINTS points,
    checked before any allocation; the points must come out uniform.
    """

    center: float
    half_width: float
    intervals: int
    step: float = field(init=False, compare=False)
    points: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        center, half_width, n = float(self.center), float(self.half_width), self.intervals
        if not isinstance(n, int) or n < MIN_GRID_INTERVALS:  # a bool is below the minimum
            raise ValidationError(f"grid needs an int of at least {MIN_GRID_INTERVALS} intervals")
        if n + 1 > MAX_GRID_POINTS:
            raise ValidationError(f"grid needs more than the {MAX_GRID_POINTS} points allowed")
        step = 2.0 * half_width / n
        ends = (center - half_width, center + half_width)
        if not (0.0 < step < math.inf and math.isfinite(ends[0]) and math.isfinite(ends[1])):
            raise ValidationError("grid needs finite center +- half_width and a step > 0")
        points = center + np.linspace(-half_width, half_width, n + 1)
        if not np.allclose(np.diff(points), step, rtol=1e-6, atol=0.0):
            raise ValidationError(f"steps of {step:g} are not uniform near {center:g}")
        points.flags.writeable = False
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "points", points)

    def __reduce__(self):  # a pickle or copy holds the fields and rebuilds read-only points
        return FrequencyGrid, (self.center, self.half_width, self.intervals)

    @classmethod
    def build(cls, center: float, half_width: float, max_step: float) -> "FrequencyGrid":
        """Uniform grid over [center-hw, center+hw] with step <= max_step."""
        if not (max_step > 0 and half_width > 0):
            raise ValidationError("half_width > 0 and max_step > 0")
        intervals = 2.0 * half_width / max_step
        if not intervals + 1 <= MAX_GRID_POINTS:  # also inf and nan, which math.ceil rejects
            raise ValidationError(
                f"grid of half-width {half_width:g} and step {max_step:g} needs more "
                f"than the {MAX_GRID_POINTS} points allowed"
            )
        return cls(center, half_width, max(MIN_GRID_INTERVALS, math.ceil(intervals)))

    def halved_step(self) -> "FrequencyGrid":
        """Same span, twice the intervals; the original points are kept exactly."""
        return FrequencyGrid(self.center, self.half_width, 2 * self.intervals)


def resolved_width(amp: BiphotonAmplitude) -> float:
    """Width a signal grid must resolve: the narrowest amplitude feature, capped at 1."""
    return min(1.0, *amp.feature_widths())


def require_step_resolves(grid: FrequencyGrid, width: float, name: str) -> None:
    """Raise ValidationError unless the grid's step resolves ``width`` RESOLVE_FACTOR times.

    The one resolution check; ``name`` names the width in the message, and
    the 1e-12 slack lets a step that rounds just above its limit pass.
    """
    limit = width / RESOLVE_FACTOR
    if grid.step > limit * (1.0 + 1e-12):
        raise ValidationError(f"grid step {grid.step:g} exceeds {limit:g} needed to resolve {name}")


def jsa_value(amp: BiphotonAmplitude, omega_s, omega_l):
    """Real JSA at (omega_s, omega_l); takes arrays, and is 0.0 where its exponent overflows."""
    ws = np.asarray(omega_s, dtype=float)
    wl = np.asarray(omega_l, dtype=float)
    with np.errstate(all="ignore"):  # an overflow or x / 0 is inf, inf / inf NaN: callers check
        if amp.kind is JsaKind.UNCORRELATED_GAUSSIAN:  # s * s is inf where s**2 raises
            expo = (ws - amp.omega_sc) ** 2 + (wl - amp.omega_lc) ** 2
            expo /= 2.0 * (amp.sigma * amp.sigma)
        else:
            pump = ((ws + wl - amp.omega_p) ** 2) / (2.0 * (amp.sigma_p * amp.sigma_p))
            kappa = (ws - amp.omega_sc) * (amp.t_s / 2.0) + (wl - amp.omega_lc) * (amp.t_l / 2.0)
            expo = pump + kappa**2
    return amp.scale * np.exp(-expo)


def row_gaussian(amp: BiphotonAmplitude, omega_l) -> Optional[tuple[float, float, float]]:
    """(curv, mu, c0) of the row scale exp(-(curv (d - mu)^2 + c0)); None if the algebra fails.

    It holds all three finite with curv > 0, or c0 = inf for a row that underflows everywhere.
    """
    wl = float(omega_l)
    try:
        if amp.kind is JsaKind.UNCORRELATED_GAUSSIAN:
            curv, mu = 0.5 / amp.sigma**2, amp.omega_sc
            gaussian = curv, mu, curv * (wl - amp.omega_lc) ** 2
        else:  # (d - a)^2 / (2 sigma_p^2) + (r (d - omega_sc) + k)^2
            pump, r = 0.5 / amp.sigma_p**2, amp.t_s / 2.0
            a, k = amp.omega_p - wl, (wl - amp.omega_lc) * (amp.t_l / 2.0)
            curv = pump + r * r
            mu = (pump * a + r * (r * amp.omega_sc - k)) / curv
            gaussian = curv, mu, pump * (mu - a) ** 2 + (r * (mu - amp.omega_sc) + k) ** 2
    except ArithmeticError:
        return None
    return gaussian if gaussian[2] == math.inf or all(map(math.isfinite, gaussian)) else None


def row_support(grid_s: FrequencyGrid, gaussian, depth: float = math.inf) -> slice:
    """Slice of grid_s.points outside which the ``gaussian`` row is below e^-depth of its grid peak.

    E_top is the least exponent E = curv (d - mu)^2 + c0 on the grid, at the
    point nearest mu.  The slice holds the points with E <= min(UNDERFLOW_EXPONENT,
    E_top + depth) and one more each side, keeping the row's grid peak; all
    points if ``gaussian`` is None.  Depth inf keeps every nonzero value.
    """
    if gaussian is None:
        return slice(None)
    curv, mu, c0 = gaussian
    points = grid_s.points
    first = float(points[0])  # Python floats: an overflow is inf, never a warning
    nearest = round((max(first, min(mu, float(points[-1]))) - first) / grid_s.step)
    near = float(points[min(nearest, points.size - 1)])
    limit = min(UNDERFLOW_EXPONENT, curv * ((near - mu) * (near - mu)) + c0 + depth)
    if c0 > limit:
        return slice(0, 0)
    reach = math.sqrt((limit - c0) / curv)
    if not math.isfinite(mu + reach):  # a tiny curv
        return slice(None)
    first, last = np.searchsorted(points, [mu - reach, mu + reach], side="right")
    return slice(max(int(first) - 1, 0), int(last) + 1)


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
    The step resolves gamma and ``resolved_width`` DEFAULT_STEP_FACTOR times,
    so the grid passes ``require_step_resolves`` for both.
    """
    if not (gamma > 0):
        raise ValidationError("gamma > 0")
    widths = amp.feature_widths()
    half_width = DEFAULT_SPAN_WIDTHS * max(widths[0], gamma)
    for lam in lambdas:
        half_width = max(half_width, abs(float(lam)) + DEFAULT_SPAN_WIDTHS * gamma)
    step = min(gamma, resolved_width(amp)) / DEFAULT_STEP_FACTOR
    return amp.omega_sc, half_width, step

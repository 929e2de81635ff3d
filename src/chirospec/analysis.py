"""Enantiomer distinguishability: line-shape signatures, metrics, regime maps.

A transmission curve is reduced to a scale-invariant signature (signs of
its significant extrema, sign changes between them, sign at the global
extremum).  Two enantiomers count as distinguishable when their
signatures differ or when the relative L2 distance of their curves
exceeds a threshold.  Sweeping the crystal delay scale T0 and the idler
detector frequency yields a regime map whose nonzero labels mark the
working regions of the entanglement-assisted scheme.
"""

from __future__ import annotations

import bisect
import math
import os
from contextlib import closing
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from .biphoton import BiphotonAmplitude, FrequencyGrid
from .errors import ValidationError
from .model import DriveConfig, NoiseParams, dressed_pair
from .spectrum import TransmissionKernel, full_curves

#: An extremum counts as significant above this fraction of the curve maximum.
EXTREMUM_REL_THRESHOLD = 0.05
#: Relative L2 distance above which two curves count as distinguishable.
DISCRIMINABILITY_THRESHOLD = 0.2
#: Curves whose maximum magnitude stays below this are treated as flat.
FLAT_CURVE_FLOOR = 1e-14
#: Ratio of crystal delays to the sweep scale T0: t_s = 2.4 T0, t_l = 2.5 T0.
SWEEP_T_S_RATIO = 2.4
SWEEP_T_L_RATIO = 2.5

MIN_CURVE_POINTS = 16
#: ``compare_pair`` rescales below this larger norm; above it, squares lost to
#: underflow move a sum of up to 2**20 squares by under 2**-55 of its value.
NORM_RESCALE_FLOOR = 2.0**-500


@dataclass(frozen=True)
class LineShapeSignature:
    """Scale-invariant shape label of one transmission curve."""

    extrema_signs: tuple[int, ...]
    zero_crossings: int
    dominant_sign: int

    def compact(self) -> str:
        """Short text form, e.g. '+-|1|-'; '0' for the null signature."""
        if not self.extrema_signs:
            return "0"
        signs = "".join("+" if s > 0 else "-" for s in self.extrema_signs)
        dom = "+" if self.dominant_sign > 0 else "-"
        return f"{signs}|{self.zero_crossings}|{dom}"


def classify_lineshape(values: np.ndarray) -> LineShapeSignature:
    """Extract the line-shape signature of a curve's values.

    Local extrema are the points where the sign of the slope changes,
    ignoring zero slopes; a plateau's extremum sits at its last index.
    Extrema are kept when their magnitude reaches EXTREMUM_REL_THRESHOLD
    times the curve maximum; their signs are recorded in scan order and the
    sign changes between consecutive significant extrema are counted.
    The global-magnitude extremum always counts (so monotone curves
    still classify).  Flat curves return the null signature.  Raises
    ValidationError unless ``values`` is finite, 1-D and MIN_CURVE_POINTS long.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValidationError(f"a curve must be a 1-D array, got shape {v.shape}")
    if v.size < MIN_CURVE_POINTS:
        raise ValidationError(
            f"line shapes need >= {MIN_CURVE_POINTS} scan points, got {v.size}"
        )
    magnitude = np.abs(v)
    global_idx = int(magnitude.argmax())
    peak = float(magnitude[global_idx])
    if not math.isfinite(peak):  # argmax stops at the first NaN, if any
        raise ValidationError("a curve must have finite values")
    if peak < FLAT_CURVE_FLOOR:
        return LineShapeSignature(extrema_signs=(), zero_crossings=0, dominant_sign=0)
    if global_idx + 1 < v.size and v[global_idx + 1] == v[global_idx]:  # to a plateau's end
        global_idx += int(np.argmin(np.append(v[global_idx + 1:] == v[global_idx], False)))

    # Slopes from two comparisons: for finite values a slope is 0 only where
    # two values are equal, as distinct doubles never differ by 0 and an
    # overflowing difference keeps its sign.  Zero slopes (plateaus, and the
    # -0.0 tails outside a JSA row's support) never make or break a turn: a
    # turn is a nonzero slope whose direction differs from the previous
    # nonzero slope's, and its extremum sits where that slope starts.
    later, earlier = v[1:], v[:-1]
    rising = later > earlier
    slopes = (rising | (later < earlier)).nonzero()[0]
    rising = rising[slopes]
    extrema = slopes[1:][rising[1:] != rising[:-1]].tolist()
    if global_idx not in extrema:
        bisect.insort(extrema, global_idx)
    cut = EXTREMUM_REL_THRESHOLD * peak
    signs = [1 if x > 0 else -1 for x in v[extrema].tolist() if abs(x) >= cut]
    return LineShapeSignature(
        extrema_signs=tuple(signs),
        zero_crossings=sum(a != b for a, b in zip(signs, signs[1:])),
        dominant_sign=1 if v[global_idx] > 0 else -1,
    )


def compare_pair(
    values_l: np.ndarray, values_r: np.ndarray
) -> tuple[LineShapeSignature, LineShapeSignature, float, bool]:
    """Signatures, distance metric in [0, 1] and verdict of one curve pair.

    Both curves must be sampled on one grid, as those of one ``curve_pair``
    call are, or on one slice of it, as the support-length curves of one
    ``TransmissionKernel.curves`` call are; arrays carry no grid, so only
    their shapes are compared.  Each curve is classified once, and
    metric = min(1, ||P_L - P_R||_2 / max(||P_L||_2, ||P_R||_2));
    the pair is distinguishable when the signatures differ or the metric
    reaches DISCRIMINABILITY_THRESHOLD.  Where the larger norm overflows
    (values above ~1e154) or falls below NORM_RESCALE_FLOOR, both curves are
    first scaled by the power of two that brings their larger peak into
    [0.5, 1); that rounds only values that end subnormal, so the metric does
    not depend on the curves' scale.
    """
    if np.shape(values_l) != np.shape(values_r):
        raise ValidationError("curves to compare must have the same shape")
    sig_l = classify_lineshape(values_l)
    sig_r = classify_lineshape(values_r)
    with np.errstate(over="ignore"):
        biggest = max(np.linalg.norm(values_l), np.linalg.norm(values_r))
        if not NORM_RESCALE_FLOOR <= biggest < np.inf:
            peak = max(np.max(np.abs(values_l)), np.max(np.abs(values_r)))
            exponent = np.frexp(peak)[1]  # 0 for two zero curves
            values_l, values_r = np.ldexp(values_l, -exponent), np.ldexp(values_r, -exponent)
            biggest = max(np.linalg.norm(values_l), np.linalg.norm(values_r))
        # overflows only where the distance exceeds biggest: metric 1
        distance = np.linalg.norm(values_l - values_r)
    metric = float(min(1.0, distance / biggest)) if biggest > 0.0 else 0.0
    return sig_l, sig_r, metric, sig_l != sig_r or metric >= DISCRIMINABILITY_THRESHOLD


def discrimination_window(
    lambda_l: float, lambda_r: float, gamma: float
) -> tuple[tuple[float, float], ...]:
    """Pinned detunings where the zero-bandwidth spectra have opposite signs.

    Returns the set as disjoint, sorted, nonempty open intervals ``(lo, hi)``.

    The sign of each enantiomer's spectrum flips on the circle
    |lambda - dpl| = gamma, so the opposite-sign set is the symmetric
    difference of (lambda_L - gamma, lambda_L + gamma) and
    (lambda_R - gamma, lambda_R + gamma); boundary points excluded.
    Intervals that are empty in floating point are dropped: equal lambdas,
    or lambdas closer than the resolution of the shifted endpoints.
    """
    if not (gamma > 0):
        raise ValidationError("gamma > 0")
    a, b = sorted((float(lambda_l), float(lambda_r)))
    if a + gamma <= b - gamma:  # the rounded endpoints decide, so no two intervals overlap
        intervals = ((a - gamma, a + gamma), (b - gamma, b + gamma))
    else:
        intervals = ((a - gamma, b - gamma), (a + gamma, b + gamma))
    return tuple((lo, hi) for lo, hi in intervals if lo < hi)


@dataclass(frozen=True)
class RegimeMap:
    """Grid of interned signature-pair labels over (T0, idler frequency).

    labels[i, j] belongs to t0_axis[i] x omega_l_axis[j]; label 0 is
    reserved for indistinguishable cells.  The legend maps each nonzero
    label to its (left, right) signature pair.
    """

    t0_axis: np.ndarray
    omega_l_axis: np.ndarray
    labels: np.ndarray
    legend: dict[int, tuple[LineShapeSignature, LineShapeSignature]]

    def __post_init__(self):
        for name, dtype in (("t0_axis", float), ("omega_l_axis", float), ("labels", int)):
            array = np.array(getattr(self, name), dtype=dtype)  # a read-only copy
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        if self.labels.shape != (self.t0_axis.size, self.omega_l_axis.size):
            raise ValidationError("labels table must match the axes")


def curve_pair(
    cfg: DriveConfig,
    amp: BiphotonAmplitude,
    noise: NoiseParams,
    omega_l_bar: float,
    scan_s: FrequencyGrid,
) -> tuple[np.ndarray, np.ndarray]:
    """Left- and right-handed curves of one drive: read-only values on scan_s.points."""
    kernel = TransmissionKernel(dressed_pair(cfg), noise, scan_s)
    return full_curves(scan_s, *next(kernel.curves(amp, [omega_l_bar])))


def sweep_amplitude(amp_template: BiphotonAmplitude, t0: float) -> BiphotonAmplitude:
    """Template amplitude with crystal delays set to t_s=2.4*T0, t_l=2.5*T0."""
    return replace(
        amp_template,
        t_s=SWEEP_T_S_RATIO * t0,
        t_l=SWEEP_T_L_RATIO * t0,
    )


# Shared state of one pool worker, installed once by the pool initializer.
_WORKER: dict = {}


def _init_worker(func, context):
    _WORKER["task"] = (func, context)


def _run_in_worker(job):
    func, context = _WORKER["task"]
    return func(context, job)


def pool_workers(threads: Optional[int], job_count: int) -> int:
    """Workers ``run_jobs`` runs ``job_count`` jobs on: at most one per job and per core."""
    return min(threads or 1, job_count, os.cpu_count() or 1)


def run_jobs(func, context, jobs: list, threads: Optional[int]) -> Iterator:
    """Yield ``func(context, job)`` per job in job order, on a worker pool if threads > 1.

    The pool has at most one worker per job and one per core; with one
    worker the jobs run in process one at a time, and ``multiprocessing``
    is not imported.  The pool uses the platform's default start method.
    The context (a prepared kernel, axes) reaches each worker once, through
    the pool initializer; only jobs and results are pickled.  A job that
    raises ends the iteration with its exception; the pool is terminated
    when the generator ends, fails or is closed.
    """
    workers = pool_workers(threads, len(jobs))
    if workers <= 1:
        for job in jobs:
            yield func(context, job)
        return
    import multiprocessing

    with multiprocessing.get_context().Pool(
        processes=workers, initializer=_init_worker, initargs=(func, context)
    ) as pool:
        yield from pool.imap(_run_in_worker, jobs)


def _row_result(context, t0: float) -> list:
    """The ``compare_pair`` result of every idler of one T0 row, from one kernel ``curves`` call.

    The curves are compared on the row's support, except one shorter than
    MIN_CURVE_POINTS: that is compared on full rows (``full_curves``).
    """
    kernel, amp_template, omega_l_axis = context
    results = []
    for support, *pair in kernel.curves(sweep_amplitude(amp_template, t0), omega_l_axis):
        if pair[0].size < MIN_CURVE_POINTS:
            pair = full_curves(kernel.grid, support, *pair)
        results.append(compare_pair(*pair))
    return results


def regime_map(
    cfg: DriveConfig,
    amp_template: BiphotonAmplitude,
    noise: NoiseParams,
    t0_grid: Sequence[float],
    omega_l_grid: Sequence[float],
    scan_s: FrequencyGrid,
    threads: Optional[int] = None,
) -> RegimeMap:
    """Label every (T0, idler frequency) cell by its signature pair.

    One job is one T0 row, and rows may be evaluated by a worker pool
    (``threads`` > 1) that gets the kernel and axes once per worker.  Rows
    arrive in order and their labels are interned as each arrives, in
    row-major first-encounter order, so the result is identical for any
    thread count.
    """
    t0_axis = np.asarray(list(t0_grid), dtype=float)
    omega_l_axis = np.asarray(list(omega_l_grid), dtype=float)
    if t0_axis.size == 0 or omega_l_axis.size == 0:
        raise ValidationError("sweep axes must be nonempty")

    kernel = TransmissionKernel(dressed_pair(cfg), noise, scan_s, cut=True)
    context = (kernel, amp_template, omega_l_axis.tolist())
    labels = np.zeros((t0_axis.size, omega_l_axis.size), dtype=int)
    interned: dict[tuple[LineShapeSignature, LineShapeSignature], int] = {}
    with closing(run_jobs(_row_result, context, t0_axis.tolist(), threads)) as rows:
        for i, row in enumerate(rows):
            for j, (sig_l, sig_r, _, distinguishable) in enumerate(row):
                if distinguishable:
                    labels[i, j] = interned.setdefault((sig_l, sig_r), len(interned) + 1)
    legend = {label: key for key, label in interned.items()}

    return RegimeMap(
        t0_axis=t0_axis, omega_l_axis=omega_l_axis, labels=labels, legend=legend
    )

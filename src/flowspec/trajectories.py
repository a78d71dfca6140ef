"""Euler-Maruyama sampling of the underlying stochastic flow.

The integrator marches ``phi <- phi - A(phi) dt + sqrt(eps dt) xi`` with
independent standard-normal increments per path and step.  Every path owns a
counter-based generator spawned from one seed, so results are bit-identical
for a fixed seed regardless of how many paths run.  Positions are stored
wrapped into the fundamental domain together with integer winding numbers,
from which unwrapped trajectories are reconstructed exactly.  The store is
time-major, (n_stored, n_paths, dim), so each step writes one contiguous row
(and the increments come from one reused, time-major noise buffer);
``TrajectoryEnsemble`` exposes it through transposed views of shape
(n_paths, n_stored, dim).

Estimators:

* ``stationary_histogram``   — occupation density after a 20% burn-in;
* ``autocorrelation_decay``  — complex autocovariance of an observable,
  fitted for a decay rate and an oscillation frequency (the slow eigenvalue
  of the evolution operator seen from sample paths); it streams over blocks
  of whole paths, so its memory scales with one block, not the ensemble.
  A fixed pool of two worker threads (``_WORKERS``, not a setting) computes
  the blocks, each on half the block budget, so the two in flight hold
  about what one full block would; the main thread adds their partial sums
  in block order, so the result does not depend on thread timing or the
  host's core count.  A custom ``observable`` is therefore called from
  worker threads.

Moments such as the mean squared displacement are array reductions of
``TrajectoryEnsemble.unwrapped()``.
"""

from __future__ import annotations

import warnings
from concurrent import futures
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .exceptions import (
    CapacityError,
    InsufficientSamplesError,
    StabilityWarning,
    UnfittableDecayError,
    UnsupportedMeshError,
    ValidationError,
)
from .models import ModelSpec

__all__ = [
    "TrajectoryEnsemble",
    "HistogramResult",
    "DecayFit",
    "simulate_sde",
    "stationary_histogram",
    "tv_distance_to_density",
    "autocorrelation_decay",
]

_BURN_IN_FRACTION = 0.2
_MIN_HISTOGRAM_SAMPLES = 10_000
_QUAD_POINTS = 33  # trapezoid nodes per histogram bin in the TV reference mass
_CHUNK_SCALARS = 4_000_000  # noise buffer budget (doubles)
_FFT_BLOCK_SCALARS = 1_000_000  # autocovariance block budget (complex scalars)
_WORKERS = 2  # autocovariance blocks in flight; numpy ufuncs and FFTs release the GIL


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Stored sample paths: wrapped positions plus winding counts.

    ``positions`` has shape (n_paths, n_stored, dim) with every coordinate
    in [0, period); ``windings`` holds the integer number of full turns, so
    ``positions + windings * periods`` is the exact unwrapped trajectory.
    Both are transposed views of time-major stores, not C-contiguous.
    """

    positions: np.ndarray
    windings: np.ndarray
    dt: float
    store_every: int
    n_steps: int
    seed: int
    epsilon: float
    periods: Tuple[float, ...]
    model_name: str

    @property
    def n_paths(self) -> int:
        return self.positions.shape[0]

    @property
    def n_stored(self) -> int:
        return self.positions.shape[1]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_stored) * (self.dt * self.store_every)

    def unwrapped(self) -> np.ndarray:
        return self.positions + self.windings * np.asarray(self.periods)


def _default_initial(n_paths: int, periods: Tuple[float, ...]) -> np.ndarray:
    """Deterministic uniform spread (golden-ratio stagger on extra axes)."""
    dim = len(periods)
    u = (np.arange(n_paths) + 0.5) / n_paths
    cols = [u * periods[0]]
    golden = 0.6180339887498949
    for axis in range(1, dim):
        cols.append(((u + axis * golden * np.arange(n_paths)) % 1.0) * periods[axis])
    return np.column_stack(cols)


def simulate_sde(
    model: ModelSpec,
    dt: float,
    steps: int,
    n_paths: int,
    seed: int,
    store_every: int = 1,
    initial: Optional[np.ndarray] = None,
) -> TrajectoryEnsemble:
    """Integrate the model's drift under its own noise level.

    Parameters
    ----------
    model : ModelSpec
        Supplies the continuum drift, the noise level, and the domain.
    dt, steps, n_paths, seed : float, int, int, int
        Step size, step count, ensemble size, and the single seed from which
        every per-path stream is spawned.
    store_every : int
        Keep every this-many-th step (the initial state is always kept).
    initial : ndarray, optional
        Start positions, shape (n_paths, dim); defaults to a deterministic
        uniform spread over the domain.

    A stability warning is emitted when dt exceeds the heuristic threshold
    0.1 * eps / max|A|^2 for the drift-dominated regime.  A path store that
    numpy refuses to allocate raises the capacity error before any step.
    """
    if dt <= 0 or not np.isfinite(dt):
        raise ValidationError(f"step size must be positive, got {dt}")
    if steps < 1 or n_paths < 1 or store_every < 1 or seed < 0:
        raise ValidationError(
            f"steps, n_paths, store_every must be >= 1 and seed >= 0, got "
            f"({steps}, {n_paths}, {store_every}, {seed})"
        )
    eps = model.noise.epsilon
    dim = model.mesh.dimension
    periods = tuple(float(L) for L in model.mesh.lengths)
    vmax = model.flow.max_speed()
    if eps > 0 and vmax > 0 and dt > 0.1 * eps / vmax**2:
        warnings.warn(
            f"dt = {dt:.3g} exceeds the stability heuristic "
            f"0.1*eps/max|A|^2 = {0.1 * eps / vmax ** 2:.3g}",
            StabilityWarning, stacklevel=2,
        )

    if initial is None:
        x = _default_initial(n_paths, periods)
    else:
        x = np.array(initial, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.shape != (n_paths, dim):
            raise ValidationError(
                f"initial positions must have shape ({n_paths}, {dim})"
            )

    n_stored = steps // store_every + 1
    chunk_steps = max(1, min(steps, _CHUNK_SCALARS // (n_paths * dim)))
    try:
        # time-major: every stored step and every noise row is one contiguous row
        positions = np.empty((n_stored, n_paths, dim))
        windings = np.empty((n_stored, n_paths, dim), dtype=np.int32)
        noise = np.empty((chunk_steps, n_paths, dim))
    except (ValueError, MemoryError) as exc:
        raise CapacityError(
            f"cannot store {n_paths} paths x {n_stored} states x {dim} axes: {exc}"
        ) from exc
    periods_arr = np.asarray(periods)

    def store(slot, state):
        turns = np.floor(state / periods_arr)
        windings[slot] = turns
        positions[slot] = state - turns * periods_arr

    store(0, x)
    gens = [np.random.Generator(np.random.Philox(child))
            for child in np.random.SeedSequence(seed).spawn(n_paths)]
    amp = np.sqrt(eps * dt)

    done = 0
    slot = 1
    while done < steps:
        m = min(chunk_steps, steps - done)
        for p, g in enumerate(gens):
            noise[:m, p, :] = g.standard_normal((m, dim))
        for t in range(m):
            a = np.asarray(model.drift(x[:, 0] if dim == 1 else x), dtype=float)
            x = x - a.reshape(x.shape) * dt + amp * noise[t]
            done += 1
            if done % store_every == 0:
                store(slot, x)
                slot += 1

    return TrajectoryEnsemble(
        positions=positions.transpose(1, 0, 2),
        windings=windings.transpose(1, 0, 2),
        dt=float(dt),
        store_every=int(store_every),
        n_steps=int(steps),
        seed=int(seed),
        epsilon=float(eps),
        periods=periods,
        model_name=model.name,
    )


# ----------------------------------------------------------------------
# occupation statistics
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HistogramResult:
    bin_edges: np.ndarray
    density: np.ndarray
    counts: np.ndarray
    n_samples: int
    period: float


def stationary_histogram(ensemble: TrajectoryEnsemble, bins: int = 64) -> HistogramResult:
    """Normalized occupation histogram after discarding the first 20%.

    Requires a 1-dimensional domain and at least 10^4 post-burn-in samples.
    """
    if ensemble.positions.shape[2] != 1:
        raise UnsupportedMeshError("occupation histograms are 1-dimensional")
    if bins < 2:
        raise ValidationError(f"need at least 2 bins, got {bins}")
    start = int(np.ceil(_BURN_IN_FRACTION * ensemble.n_stored))
    # in memory order: a view of the time-major store, not a copy
    samples = ensemble.positions[:, start:, 0].ravel(order="K")
    if samples.size < _MIN_HISTOGRAM_SAMPLES:
        raise InsufficientSamplesError(
            f"{samples.size} samples after burn-in; at least "
            f"{_MIN_HISTOGRAM_SAMPLES} are needed for a stable histogram"
        )
    period = ensemble.periods[0]
    counts, edges = np.histogram(samples, bins=bins, range=(0.0, period))
    width = period / bins
    density = counts / (samples.size * width)
    return HistogramResult(edges, density, counts, int(samples.size), float(period))


def tv_distance_to_density(hist: HistogramResult,
                           density_fn: Callable[[np.ndarray], np.ndarray]) -> float:
    """Total variation between the histogram and a (possibly unnormalized)
    reference density, with the reference integrated bin by bin
    (``_QUAD_POINTS`` trapezoid nodes per bin)."""
    trapz = getattr(np, "trapezoid", None) or np.trapz
    masses = np.empty(len(hist.counts))
    for b in range(len(hist.counts)):
        xs = np.linspace(hist.bin_edges[b], hist.bin_edges[b + 1], _QUAD_POINTS)
        masses[b] = trapz(np.asarray(density_fn(xs), dtype=float), xs)
    masses /= masses.sum()
    empirical = hist.counts / hist.n_samples
    return float(0.5 * np.sum(np.abs(empirical - masses)))


# ----------------------------------------------------------------------
# autocorrelation fit
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    rate: float
    frequency: float
    window: Tuple[float, float]
    n_lags: int
    c0: float
    dt: float


def _ensemble_autocovariance(positions: np.ndarray, observable):
    """Path-averaged C(tau), tau < T, and per-path means for (paths, T, dim) positions.

    Wiener-Khinchin: |FFT|^2 is summed over blocks of whole paths, then inverted once.
    The blocks run on a fixed pool of ``_WORKERS`` threads; the main thread adds
    their partial sums in block order, so the result does not depend on timing.
    """
    n_paths, t_len = positions.shape[:2]
    nfft = 1 << int(np.ceil(np.log2(2 * t_len)))
    # the budget is shared by the blocks in flight
    block = max(1, _FFT_BLOCK_SCALARS // nfft // _WORKERS)
    starts = range(0, n_paths, block)

    def block_sums(a):
        paths = positions[a:a + block]
        # the observable gets a path-major copy, freed before the FFT: both
        # then run along contiguous rows
        series = np.asarray(observable(np.ascontiguousarray(paths)), dtype=complex)
        if series.shape != paths.shape[:2]:
            raise ValidationError("observable must map (paths, times, dim) to (paths, times)")
        f = np.fft.fft(series, n=nfft, axis=1)
        return (f.real**2 + f.imag**2).sum(axis=0), series.mean(axis=1)

    power, means = np.zeros(nfft), np.empty(n_paths, dtype=complex)
    with futures.ThreadPoolExecutor(max_workers=_WORKERS) as pool:
        for a, (part, block_means) in zip(starts, pool.map(block_sums, starts)):
            power += part
            means[a:a + block] = block_means
    # path mean of sum_t O(t+tau) O*(t), normalized by the overlap count
    return np.fft.ifft(power)[:t_len] / n_paths / (t_len - np.arange(t_len)), means


def autocorrelation_decay(
    ensemble: TrajectoryEnsemble,
    observable: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    fit_window: Optional[Tuple[float, float]] = None,
    burn_in_fraction: float = 0.0,
) -> DecayFit:
    """Fit rate and frequency of the observable's autocovariance decay.

    The observable is a state function applied to blocks of whole paths,
    (paths, times, dim) -> (paths, times), so estimator memory scales with
    the block, not the ensemble; two worker threads call it at once, so it
    must be thread-safe.  It must have zero stationary mean
    (default: the first harmonic ``exp(i phi)``); the ensemble should start
    from the stationary distribution so no burn-in is discarded by default;
    ``burn_in_fraction``, in [0, 1), drops that share of every path's start.
    ``fit_window`` restricts the fit to lags within [t_lo, t_hi] (in time
    units); without it the fit runs from the first lag until |C| drops to
    a tenth of |C(0)|.  Raises when the window leaves fewer than five lags
    or the signal sits below the ensemble noise floor.
    """
    if observable is None:
        if ensemble.positions.shape[2] != 1:
            raise ValidationError(
                "the default observable is 1-dimensional; pass one explicitly"
            )
        period = ensemble.periods[0]

        def observable(pos):
            return np.exp(2j * np.pi * pos[..., 0] / period)

    if not 0 <= burn_in_fraction < 1:
        raise ValidationError(f"burn_in_fraction must lie in [0, 1), got {burn_in_fraction}")
    # keep one sample, so that a burn-in near 1 fails as a too-short window
    start = min(int(np.ceil(burn_in_fraction * ensemble.n_stored)), ensemble.n_stored - 1)
    corr, means = _ensemble_autocovariance(ensemble.positions[:, start:, :], observable)
    dt_s = ensemble.dt * ensemble.store_every
    c0 = float(np.abs(corr[0]))
    if c0 == 0.0:
        raise UnfittableDecayError("the observable vanishes on every sample")
    # ensemble noise floor: path-to-path spread of the mean observable
    floor = float(np.abs(means).std() / np.sqrt(len(means)))

    mag = np.abs(corr)
    if fit_window is None:
        below = np.nonzero(mag < 0.1 * c0)[0]
        i_lo, i_hi = 1, int(below[0]) if len(below) else len(corr) // 2
    else:
        t_lo, t_hi = fit_window
        i_lo = max(1, int(np.ceil(t_lo / dt_s)))
        i_hi = min(len(corr) - 1, int(np.floor(t_hi / dt_s)))
    if i_hi - i_lo < 5:
        raise UnfittableDecayError(
            f"fit window [{i_lo}, {i_hi}] leaves fewer than five lags"
        )
    window_mag = mag[i_lo:i_hi]
    if np.median(window_mag) <= 3.0 * floor:
        raise UnfittableDecayError(
            f"autocovariance magnitude {np.median(window_mag):.3g} is below "
            f"the ensemble noise floor {floor:.3g}"
        )
    lags = np.arange(i_lo, i_hi) * dt_s
    rate = -np.polyfit(lags, np.log(window_mag), 1)[0]
    phase = np.unwrap(np.angle(corr[i_lo:i_hi]))
    frequency = -np.polyfit(lags, phase, 1)[0]
    return DecayFit(
        rate=float(rate),
        frequency=float(frequency),
        window=(float(lags[0]), float(lags[-1])),
        n_lags=int(i_hi - i_lo),
        c0=c0,
        dt=float(dt_s),
    )

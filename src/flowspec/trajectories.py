"""Euler-Maruyama sampling of the underlying stochastic flow.

The integrator marches ``phi <- phi - A(phi) dt + sqrt(eps dt) xi``: it
steps along -A for the flow ``A = model.drift``, with independent
standard-normal increments per path and step.  Every path owns a
counter-based generator spawned from one seed, so results are bit-identical
for a fixed seed regardless of how many paths run.  ``simulate_sde`` stores
one array, the float64 unwrapped states, time-major, (n_stored, n_paths,
dim), so each step copies one contiguous row; each path draws its increments
into its own row of one reused, path-major noise buffer (n_paths, chunk,
dim) of at most ``_CHUNK_SCALARS`` doubles (4.2 MB: 780 steps of 672
paths), so that the store, not the noise, sets a run's peak.
``TrajectoryEnsemble`` exposes the store through a transposed view of shape
(n_paths, n_stored, dim).

One block loop (``_estimates``) makes every estimate in one pass.  It reads
a time-major unwrapped store in as few path blocks as the
``_PATH_BLOCK_SCALARS`` budget allows, each of the same whole sub-blocks
(``_path_block``: 2,000 paths of 4,001 states are 672 + 672 + 656), and a
fixed pool of two worker threads (``_WORKERS``, not a setting) reads each
block in sub-blocks of ``_fft_block`` whole paths, each copied path-major and
wrapped once in the copy (``turns = floor(s / periods)``), read by both
estimates:

* ``stationary_histogram``   — occupation density after a 20% burn-in, each
  sub-block's counts handed back as its non-empty bins (``_bin_counts``);
* ``autocorrelation_decay``  — complex autocovariance of an observable,
  fitted for a decay rate and an oscillation frequency (the slow eigenvalue
  of the evolution operator seen from sample paths), from FFT power sums.

Sub-blocks of at least one path share the ``_FFT_BLOCK_SCALARS`` budget (8
paths each at 4,001 states), about 28 bytes per scalar (3.6 MB) for the
default observable, which is built in place, as are the power sums.  At
most ``2 * _WORKERS`` are in flight; the main thread adds their integer
counts, power sums and per-path means in sub-block order, so no bit depends
on the block size, thread timing or the host's core count.

Both hand the loop views of the stored ensemble, which it never writes.  A
1-dimensional run's ``simulate`` task (``_streamed_estimates``) hands it a
sampler instead: each block is one ``simulate_sde`` call, which may warn,
spawning the next children of one shared ``SeedSequence``, freed before the
next is read.  So a run reports what the library calls give on the stored
ensemble, bit for bit, and its memory does not grow with the path count.

Moments such as the mean squared displacement are array reductions of
``TrajectoryEnsemble.unwrapped()``, which is the store itself.
"""

from __future__ import annotations

import warnings
from collections import deque
from concurrent import futures
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Tuple, Union

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
_CHUNK_SCALARS = 1 << 19  # noise buffer budget (doubles)
_FFT_BLOCK_SCALARS = 1 << 17  # FFT scalars (complex) of the sub-blocks in work
_WORKERS = 2  # sub-blocks in work; numpy ufuncs and FFTs release the GIL
_PATH_BLOCK_SCALARS = 4_000_000  # stored states of one streamed path block (doubles)


def _wrap(states: np.ndarray, periods: Tuple[float, ...], out=None) -> np.ndarray:
    """Positions in [0, period) of unwrapped states, ``s - floor(s / L) * L``."""
    periods_arr = np.asarray(periods)
    return np.subtract(states, np.floor(states / periods_arr) * periods_arr, out=out)


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Stored sample paths: the float64 unwrapped states, and nothing else.

    ``states`` has shape (n_paths, n_stored, dim); it is a transposed view
    of the sampler's time-major store, not C-contiguous.  ``positions``
    (every coordinate in [0, period)) and the int32 ``windings`` (full
    turns) are derived from it with ``turns = floor(s / periods)``, so
    ``positions + windings * periods`` is the trajectory up to rounding.
    Each access of either builds a full array beside the store; no
    estimator reads them.
    """

    states: np.ndarray
    dt: float
    store_every: int
    n_steps: int
    seed: int
    periods: Tuple[float, ...]

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def n_stored(self) -> int:
        return self.states.shape[1]

    @property
    def times(self) -> np.ndarray:
        try:
            return np.arange(self.n_stored) * (self.dt * self.store_every)
        except OverflowError as exc:  # int too large to convert to float
            raise ValidationError("store_every is past the float range") from exc

    @property
    def positions(self) -> np.ndarray:
        return _wrap(self.states, self.periods)

    @property
    def windings(self) -> np.ndarray:
        return np.floor(self.states / np.asarray(self.periods)).astype(np.int32)

    def unwrapped(self) -> np.ndarray:
        """The store itself (a view, not a copy)."""
        return self.states


def _default_initial(n_paths: int, periods: Tuple[float, ...]) -> np.ndarray:
    """Deterministic uniform spread (golden-ratio stagger on extra axes)."""
    try:
        index = np.arange(n_paths)
    except (ValueError, MemoryError) as exc:
        raise CapacityError(f"cannot store {n_paths} start positions: {exc}") from exc
    u = (index + 0.5) / n_paths
    cols = [u * periods[0]]
    golden = 0.6180339887498949
    for axis in range(1, len(periods)):
        cols.append(((u + axis * golden * index) % 1.0) * periods[axis])
    return np.column_stack(cols)


def _check_sampler(dt: float, steps: int, n_paths: int, seed, store_every: int) -> None:
    if dt <= 0 or not np.isfinite(dt):
        raise ValidationError(f"step size must be positive, got {dt}")
    seeded = isinstance(seed, np.random.SeedSequence) or seed >= 0
    if steps < 1 or n_paths < 1 or store_every < 1 or not seeded:
        raise ValidationError(
            f"steps, n_paths, store_every must be >= 1 and seed >= 0, got "
            f"({steps}, {n_paths}, {store_every}, {seed})"
        )


def _path_block(t_len: int, dim: int, n_paths: int) -> int:
    """Paths per block of the estimator loop over ``n_paths`` paths: the
    fewest blocks that the ``_PATH_BLOCK_SCALARS`` budget of states allows,
    of equal whole sub-blocks of ``t_len``-state series (the last block may
    be shorter), so that any block size adds the power sums in one order."""
    fft_block = _fft_block(_fft_length(t_len))
    most = max(1, _PATH_BLOCK_SCALARS // (t_len * dim) // fft_block)  # sub-blocks a block
    subs = -(-n_paths // fft_block)  # ceiling divisions, in Python integers
    blocks = -(-subs // most)
    return -(-subs // blocks) * fft_block


def simulate_sde(
    model: ModelSpec,
    dt: float,
    steps: int,
    n_paths: int,
    seed: Union[int, np.random.SeedSequence],
    store_every: int = 1,
    initial: Optional[np.ndarray] = None,
) -> TrajectoryEnsemble:
    """Integrate the model's drift under its own noise level.

    Parameters
    ----------
    model : ModelSpec
        Supplies the continuum drift, the noise level, and the domain.
    dt, steps, n_paths : float, int, int
        Step size, step count and ensemble size.
    seed : int or numpy.random.SeedSequence
        The seed from which every per-path stream is spawned.  A
        ``SeedSequence`` spawns its next ``n_paths`` children, so calls that
        share one sample consecutive paths of one ensemble; the ensemble
        records its entropy as ``seed``.
    store_every : int
        Keep every this-many-th step (the initial state is always kept).
    initial : ndarray, optional
        Start positions, shape (n_paths, dim); defaults to a deterministic
        uniform spread over the domain.

    A stability warning is emitted when dt exceeds the heuristic threshold
    0.1 * eps / max|A|^2 for the drift-dominated regime.  A model without a
    drift is refused first; a path store or default start positions that
    numpy refuses to allocate raise the capacity error before any step.
    """
    if model.drift is None:
        raise ValidationError("simulation needs a model with a closed-form drift")
    _check_sampler(dt, steps, n_paths, seed, store_every)
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
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
        # every stored step is one contiguous row, and every path's draws one noise row
        states = np.empty((n_stored, n_paths, dim))
        noise = np.empty((n_paths, chunk_steps, dim))
    except (ValueError, MemoryError) as exc:
        raise CapacityError(
            f"cannot store {n_paths} paths x {n_stored} states x {dim} axes: {exc}"
        ) from exc

    states[0] = x
    gens = [np.random.Generator(np.random.Philox(child)) for child in seed.spawn(n_paths)]
    amp = np.sqrt(eps * dt)

    done = 0
    slot = 1
    while done < steps:
        m = min(chunk_steps, steps - done)
        for p, g in enumerate(gens):
            g.standard_normal(out=noise[p, :m])
        for t in range(m):
            a = np.asarray(model.drift(x[:, 0] if dim == 1 else x), dtype=float)
            x = x - a.reshape(x.shape) * dt + amp * noise[:, t]
            done += 1
            if done % store_every == 0:
                states[slot] = x
                slot += 1

    return TrajectoryEnsemble(states.transpose(1, 0, 2), float(dt), int(store_every),
                              int(steps), int(seed.entropy), periods)


# ----------------------------------------------------------------------
# occupation statistics
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HistogramResult:
    """Occupation counts of ``n_samples`` samples in equal bins over [0, period].

    A wrapped sample can land one rounding step outside the bins, so
    ``counts.sum()`` can fall below ``n_samples``; ``density`` divides by it.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    n_samples: int

    @property
    def period(self) -> float:
        return float(self.bin_edges[-1])

    @property
    def density(self) -> np.ndarray:
        width = self.period / len(self.counts)
        return self.counts / (self.n_samples * width)


def _bin_counts(x: np.ndarray, edges: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The bins of equal ``edges`` from 0 that hold samples of ``x``, and their counts:
    ``np.histogram``'s, bit for bit, in memory that grows with ``x``, not the bins."""
    bins, period = len(edges) - 1, edges[-1]
    x = x[(x >= 0.0) & (x <= period)]
    i = (x / period * bins).astype(np.intp)
    i[i == bins] -= 1
    i[x < edges[i]] -= 1  # the scaled index can miss an edge by one rounding step
    i[(x >= edges[i + 1]) & (i != bins - 1)] += 1
    return np.unique(i, return_counts=True)


def stationary_histogram(ensemble: TrajectoryEnsemble, bins: int = 64) -> HistogramResult:
    """Normalized occupation histogram after discarding the first 20%.

    Requires a 1-dimensional domain and at least 10^4 post-burn-in samples.
    """
    hist, _ = _estimates(_stored_blocks(ensemble), ensemble.n_paths, ensemble.n_stored,
                         ensemble.periods, bins=bins)
    return hist


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
    """Decay ``rate`` and oscillation ``frequency`` fitted over ``n_lags``
    lags spanning ``window`` (in time units); ``c0`` is |C(0)|."""

    rate: float
    frequency: float
    window: Tuple[float, float]
    n_lags: int
    c0: float


def _fft_length(t_len: int) -> int:
    """Zero-padded FFT length of a T-sample series: no circular wrap of the lags."""
    return 1 << (2 * t_len - 1).bit_length()


def _fft_block(nfft: int) -> int:
    """Paths per sub-block; the budget is shared by the sub-blocks in work."""
    return max(1, _FFT_BLOCK_SCALARS // nfft // _WORKERS)


def _first_harmonic(periods: Tuple[float, ...]) -> Callable[[np.ndarray], np.ndarray]:
    """The default observable ``exp(2 pi i phi / L)`` of a 1-dimensional domain."""
    if len(periods) != 1:
        raise ValidationError("the default observable is 1-dimensional; pass one explicitly")
    period = periods[0]

    def observable(pos):
        phase = np.multiply(2j * np.pi, pos[..., 0])  # one complex array, built in place
        np.divide(phase, period, out=phase)
        return np.exp(phase, out=phase)

    return observable


def _in_order(pool: futures.Executor, fn: Callable, items: range):
    """``fn`` of each item on ``pool``, in order, at most ``2 * _WORKERS`` calls in flight."""
    pending = deque()
    for item in items:
        if len(pending) == 2 * _WORKERS:
            yield pending.popleft().result()
        pending.append(pool.submit(fn, item))
    while pending:
        yield pending.popleft().result()


def _lag_window(t_len: int, dt_s: float, fit_window: Optional[Tuple[float, float]],
                mag: Optional[np.ndarray] = None) -> Tuple[int, int]:
    """Lags [i_lo, i_hi) of the decay fit on a ``t_len``-lag series at lag
    spacing ``dt_s``: ``fit_window`` (in time units), or from the first lag
    until ``mag`` = |C| drops to a tenth of |C(0)|.  Refuses fewer than five."""
    if fit_window is None:
        below = np.nonzero(mag < 0.1 * mag[0])[0]
        i_lo, i_hi = 1, int(below[0]) if len(below) else t_len // 2
    else:
        t_lo, t_hi = fit_window
        # clamped to the series before int: a window past its end has no lag
        i_lo = int(np.clip(np.ceil(t_lo / dt_s), 1, t_len))
        i_hi = int(np.clip(np.floor(t_hi / dt_s), 0, t_len - 1))
    if i_hi - i_lo < 5:
        raise UnfittableDecayError(
            f"fit window [{i_lo}, {i_hi}] leaves fewer than five lags"
        )
    return i_lo, i_hi


def _fit_decay(corr: np.ndarray, means: np.ndarray, dt_s: float,
               fit_window: Optional[Tuple[float, float]]) -> DecayFit:
    """Fit rate and frequency to C(tau) at lag spacing ``dt_s`` (see
    ``autocorrelation_decay``); ``means`` are the per-path means of the
    observable, whose spread sets the noise floor."""
    c0 = float(np.abs(corr[0]))
    if c0 == 0.0:
        raise UnfittableDecayError("the observable vanishes on every sample")
    # ensemble noise floor: path-to-path spread of the mean observable
    floor = float(np.abs(means).std() / np.sqrt(len(means)))

    mag = np.abs(corr)
    i_lo, i_hi = _lag_window(len(corr), dt_s, fit_window, mag)
    window_mag = mag[i_lo:i_hi]
    if np.median(window_mag) <= 3.0 * floor:
        raise UnfittableDecayError(
            f"autocovariance magnitude {np.median(window_mag):.3g} is below "
            f"the ensemble noise floor {floor:.3g}"
        )
    lags = np.arange(i_lo, i_hi) * dt_s
    try:
        rate = -np.polyfit(lags, np.log(window_mag), 1)[0]
        frequency = -np.polyfit(lags, np.unwrap(np.angle(corr[i_lo:i_hi])), 1)[0]
    except np.linalg.LinAlgError as exc:  # lags whose squares underflow to 0
        raise UnfittableDecayError(f"cannot fit lags spaced {dt_s:.3g}: {exc}") from exc
    return DecayFit(float(rate), float(frequency), (float(lags[0]), float(lags[-1])),
                    int(i_hi - i_lo), c0)


def autocorrelation_decay(
    ensemble: TrajectoryEnsemble,
    observable: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    fit_window: Optional[Tuple[float, float]] = None,
    burn_in_fraction: float = 0.0,
) -> DecayFit:
    """Fit rate and frequency of the observable's autocovariance decay.

    The observable is a state function applied to sub-blocks of whole paths,
    wrapped into [0, period), (paths, times, dim) -> (paths, times), so
    estimator memory scales with the sub-block, not the ensemble; two worker
    threads call it at once, so it must be thread-safe.  It must have zero
    stationary mean (default: the first harmonic ``exp(i phi)``); the
    ensemble should start from the stationary distribution so no burn-in is
    discarded by default; ``burn_in_fraction``, in [0, 1), drops that share
    of every path's start.
    ``fit_window`` restricts the fit to lags within [t_lo, t_hi] (in time
    units); without it the fit runs from the first lag until |C| drops to
    a tenth of |C(0)|.  Raises when the window leaves fewer than five lags
    or the signal sits below the ensemble noise floor.
    """
    if observable is None:
        observable = _first_harmonic(ensemble.periods)
    if not 0 <= burn_in_fraction < 1:
        raise ValidationError(f"burn_in_fraction must lie in [0, 1), got {burn_in_fraction}")
    # keep one sample, so that a burn-in near 1 fails as a too-short window
    start = min(int(np.ceil(burn_in_fraction * ensemble.n_stored)), ensemble.n_stored - 1)
    _, fit = _estimates(_stored_blocks(ensemble), ensemble.n_paths, ensemble.n_stored,
                        ensemble.periods, observable=observable, acf_start=start,
                        dt=ensemble.dt, store_every=ensemble.store_every,
                        fit_window=fit_window)
    return fit


def _estimates(blocks: Callable[[int, int], np.ndarray], n_paths: int, n_stored: int,
               periods: Tuple[float, ...], bins: Optional[int] = None,
               observable: Optional[Callable[[np.ndarray], np.ndarray]] = None,
               acf_start: int = 0, dt: float = 0.0, store_every: int = 1,
               fit_window: Optional[Tuple[float, float]] = None
               ) -> Tuple[Optional[HistogramResult], Optional[DecayFit]]:
    """The histogram of ``bins`` bins after the burn-in and the decay fit of
    ``observable`` from state ``acf_start`` on, of ``n_paths`` paths of
    ``n_stored`` states stored every ``store_every`` steps of ``dt``; ``None``
    for an estimate not asked for.

    ``blocks(lo, m)`` gives the time-major unwrapped store (n_stored, m, dim)
    of paths ``lo..lo+m``; each block is read once, by sub-blocks, never
    written, and freed before the next.  Every refusal comes before the first
    block is read, and counts stay integers until then.
    """
    dim, t_len = len(periods), n_stored - acf_start
    start = -(-n_stored // round(1 / _BURN_IN_FRACTION))  # ceil(fraction * n_stored)
    n_samples = n_paths * (n_stored - start)
    if bins is not None:
        if dim != 1:
            raise UnsupportedMeshError("occupation histograms are 1-dimensional")
        if bins < 2:
            raise ValidationError(f"need at least 2 bins, got {bins}")
        if n_samples < _MIN_HISTOGRAM_SAMPLES:
            raise InsufficientSamplesError(
                f"{n_samples} samples after burn-in; at least "
                f"{_MIN_HISTOGRAM_SAMPLES} are needed for a stable histogram"
            )
        try:
            counts, edges = np.zeros(bins, dtype=np.intp), np.linspace(0.0, periods[0], bins + 1)
        except (ValueError, MemoryError) as exc:
            raise CapacityError(f"cannot store {bins} histogram bins: {exc}") from exc
    if observable is not None:
        if t_len < 7:  # lags [1, t_len - 1) hold fewer than five, whatever the window
            raise UnfittableDecayError(f"{t_len} stored states leave fewer than five lags")
        if fit_window is not None:
            _lag_window(t_len, dt * store_every, fit_window)
    # the wrapped copy starts at the first state that an estimate reads
    first = acf_start if bins is None else start if observable is None else min(start, acf_start)
    nfft = _fft_length(t_len)
    sub = _fft_block(nfft)
    power, means = 0.0, []  # 0.0 + the first sums allocates them, after the first store

    def sub_block(states, a):
        paths = np.array(states[first:, a:a + sub].transpose(1, 0, 2), order="C")  # never a view
        _wrap(paths, periods, out=paths)
        part = None if bins is None else _bin_counts(paths[:, start - first:, 0], edges)
        if observable is None:
            return part, None, None
        paths = paths[:, acf_start - first:]
        series = np.asarray(observable(paths), dtype=complex)
        if series.shape != paths.shape[:2]:
            raise ValidationError("observable must map (paths, times, dim) to (paths, times)")
        f = np.fft.fft(series, n=nfft, axis=1)  # Wiener-Khinchin
        re, im = f.real, f.imag  # |f|^2 in f's own memory
        np.square(re, out=re)
        re += np.square(im, out=im)
        return part, re.sum(axis=0), series.mean(axis=1)

    block = _path_block(t_len, dim, n_paths)
    with futures.ThreadPoolExecutor(max_workers=_WORKERS) as pool:
        for lo in range(0, n_paths, block):
            states = blocks(lo, min(block, n_paths - lo))
            for part, power_part, path_means in _in_order(
                    pool, partial(sub_block, states), range(0, states.shape[1], sub)):
                if bins is not None:
                    counts[part[0]] += part[1]
                if observable is not None:
                    power += power_part
                    means.append(path_means)
            # a sampled block and its last sums are freed before the next is read
            del states, part, power_part, path_means

    hist = None if bins is None else HistogramResult(edges, counts, n_samples)
    if observable is None:
        return hist, None
    # path mean of sum_t O(t+tau) O*(t), tau < T, normalized by the overlap count
    corr = np.fft.ifft(power)[:t_len] / n_paths / (t_len - np.arange(t_len))
    return hist, _fit_decay(corr, np.concatenate(means), dt * store_every, fit_window)


def _stored_blocks(ensemble: TrajectoryEnsemble) -> Callable[[int, int], np.ndarray]:
    """Path blocks of a stored ensemble: views of its time-major store."""
    store = ensemble.states.transpose(1, 0, 2)
    return lambda lo, m: store[:, lo:lo + m]


def _streamed_estimates(sample, model: ModelSpec, dt: float, steps: int, n_paths: int,
                        seed: int, store_every: int, bins: int, autocorrelation: bool,
                        fit_window: Optional[Tuple[float, float]] = None
                        ) -> Tuple[HistogramResult, Optional[DecayFit]]:
    """``stationary_histogram(ens, bins)`` and, with ``autocorrelation``,
    ``autocorrelation_decay(ens, fit_window=fit_window)`` of the ensemble
    ``ens`` that ``simulate_sde`` would store on the model's 1-dimensional
    domain, bit for bit, without holding it; ``None`` for a fit not asked for.

    ``sample`` is ``simulate_sde``, called once per block of the estimator
    loop with the block's start positions and one shared ``SeedSequence``.
    Every refusal comes before the first step.
    """
    _check_sampler(dt, steps, n_paths, seed, store_every)
    periods = tuple(float(L) for L in model.mesh.lengths)
    observable = _first_harmonic(periods) if autocorrelation else None
    initial = _default_initial(n_paths, periods)
    seeds = np.random.SeedSequence(seed)  # each call spawns the next paths' streams

    def blocks(lo, m):
        return sample(model, dt=dt, steps=steps, n_paths=m, seed=seeds, store_every=store_every,
                      initial=initial[lo:lo + m]).states.transpose(1, 0, 2)

    return _estimates(blocks, n_paths, steps // store_every + 1, periods, bins=bins,
                      observable=observable, dt=dt, store_every=store_every,
                      fit_window=fit_window)

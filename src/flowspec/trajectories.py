"""Euler-Maruyama sampling of the underlying stochastic flow.

The integrator marches ``phi <- phi - A(phi) dt + sqrt(eps dt) xi`` with
independent standard-normal increments per path and step.  Every path owns a
counter-based generator spawned from one seed, so results are bit-identical
for a fixed seed regardless of how many paths run.  ``simulate_sde`` stores
one array, the float64 unwrapped states, time-major, (n_stored, n_paths,
dim), so each step copies one contiguous row (and the increments come from
one reused, time-major noise buffer of at most ``_CHUNK_SCALARS`` doubles);
``TrajectoryEnsemble`` exposes it through a transposed view of shape
(n_paths, n_stored, dim).  Wrapped positions and winding counts are derived
from it (``turns = floor(s / periods)``), by the estimators one block at a
time.

One block loop (``_estimates``) makes every estimate, each holding at most
its block budget beside the store.  It reads blocks of ``_path_block`` paths
of a time-major unwrapped store, whole autocovariance blocks each, and adds
their totals in block order, so the block size changes no bit:

* ``stationary_histogram``   — occupation density after a 20% burn-in,
  counted about ``_HISTOGRAM_BLOCK`` samples at a time, each slab wrapped
  into a temporary (at most 64 bytes per slab sample, 4.2 MB);
* ``autocorrelation_decay``  — complex autocovariance of an observable,
  fitted for a decay rate and an oscillation frequency (the slow eigenvalue
  of the evolution operator seen from sample paths); its FFTs run over
  wrapped copies of ``_fft_block`` whole paths: at most 48 bytes per scalar
  of the ``_FFT_BLOCK_SCALARS`` budget (24 MB) for the default observable,
  while one path's FFT fits in half the budget.  A fixed pool of two worker
  threads (``_WORKERS``, not a setting) computes them, each on half the
  budget; the main thread adds their partial sums in block order, so the
  result does not depend on thread timing or the host's core count.  A
  custom ``observable`` is therefore called from worker threads.

Both hand the loop views of the stored ensemble, which it never writes.  A
run's ``simulate`` task (``_streamed_estimates``) hands it a sampler
instead: each block is one ``simulate_sde`` call that spawns the next
children of one shared ``SeedSequence``, freed before the next is read.  So
a run reports what the library calls give on the stored ensemble, bit for
bit, and its memory does not grow with the path count.

Moments such as the mean squared displacement are array reductions of
``TrajectoryEnsemble.unwrapped()``, which is the store itself.
"""

from __future__ import annotations

import warnings
from concurrent import futures
from dataclasses import dataclass
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
_CHUNK_SCALARS = 1_000_000  # noise buffer budget (doubles)
_FFT_BLOCK_SCALARS = 500_000  # autocovariance block budget (complex scalars)
_HISTOGRAM_BLOCK = 1 << 16  # samples wrapped (and counted) at a time
_WORKERS = 2  # autocovariance blocks in flight; numpy ufuncs and FFTs release the GIL
_PATH_BLOCK_SCALARS = 4_000_000  # stored states of one streamed path block (doubles)


def _wrap(states: np.ndarray, periods: Tuple[float, ...]) -> np.ndarray:
    """Positions in [0, period) of unwrapped states, ``s - floor(s / L) * L``."""
    periods_arr = np.asarray(periods)
    return states - np.floor(states / periods_arr) * periods_arr


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
        return np.arange(self.n_stored) * (self.dt * self.store_every)

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


def _path_block(t_len: int, dim: int) -> int:
    """Paths per block of the estimator loop: the ``_PATH_BLOCK_SCALARS``
    budget of states, in whole autocovariance blocks of ``t_len``-state
    series, so that any block size adds the power sums in one order."""
    fft_block = _fft_block(_fft_length(t_len))
    return max(1, _PATH_BLOCK_SCALARS // (t_len * dim) // fft_block) * fft_block


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
    0.1 * eps / max|A|^2 for the drift-dominated regime.  A path store or
    default start positions that numpy refuses to allocate raise the
    capacity error before any step.
    """
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
        # time-major: every stored step and every noise row is one contiguous row
        states = np.empty((n_stored, n_paths, dim))
        noise = np.empty((chunk_steps, n_paths, dim))
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
            noise[:m, p, :] = g.standard_normal((m, dim))
        for t in range(m):
            a = np.asarray(model.drift(x[:, 0] if dim == 1 else x), dtype=float)
            x = x - a.reshape(x.shape) * dt + amp * noise[t]
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


def stationary_histogram(ensemble: TrajectoryEnsemble, bins: int = 64) -> HistogramResult:
    """Normalized occupation histogram after discarding the first 20%.

    Requires a 1-dimensional domain and at least 10^4 post-burn-in samples.
    The stored rows are wrapped and counted about ``_HISTOGRAM_BLOCK``
    samples at a time, and the integer counts summed.
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
    """Paths per autocovariance block; the budget is shared by the blocks in flight."""
    return max(1, _FFT_BLOCK_SCALARS // nfft // _WORKERS)


def _first_harmonic(periods: Tuple[float, ...]) -> Callable[[np.ndarray], np.ndarray]:
    """The default observable ``exp(2 pi i phi / L)`` of a 1-dimensional domain."""
    if len(periods) != 1:
        raise ValidationError("the default observable is 1-dimensional; pass one explicitly")
    period = periods[0]

    def observable(pos):
        return np.exp(2j * np.pi * pos[..., 0] / period)

    return observable


def _add_power(power: np.ndarray, positions: np.ndarray, observable) -> np.ndarray:
    """Add sum_paths |FFT O|^2 of (paths, T, dim) positions to ``power``; returns
    the per-path means of O.

    Wiener-Khinchin: the FFTs, of length ``len(power)``, run over blocks of
    ``_fft_block`` whole paths on a fixed pool of ``_WORKERS`` threads; the main
    thread adds their partial sums in block order, so the result does not
    depend on timing.
    """
    nfft = len(power)
    block = _fft_block(nfft)
    starts = range(0, len(positions), block)

    def block_sums(a):
        paths = positions[a:a + block]
        # the observable gets a path-major copy, freed before the FFT: both
        # then run along contiguous rows
        series = np.asarray(observable(np.ascontiguousarray(paths)), dtype=complex)
        if series.shape != paths.shape[:2]:
            raise ValidationError("observable must map (paths, times, dim) to (paths, times)")
        f = np.fft.fft(series, n=nfft, axis=1)
        return (f.real**2 + f.imag**2).sum(axis=0), series.mean(axis=1)

    means = np.empty(len(positions), dtype=complex)
    with futures.ThreadPoolExecutor(max_workers=_WORKERS) as pool:
        for a, (part, block_means) in zip(starts, pool.map(block_sums, starts)):
            power += part
            means[a:a + block] = block_means
    return means


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
    return DecayFit(float(rate), float(frequency), (float(lags[0]), float(lags[-1])),
                    int(i_hi - i_lo), c0)


def autocorrelation_decay(
    ensemble: TrajectoryEnsemble,
    observable: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    fit_window: Optional[Tuple[float, float]] = None,
    burn_in_fraction: float = 0.0,
) -> DecayFit:
    """Fit rate and frequency of the observable's autocovariance decay.

    The observable is a state function applied to blocks of whole paths,
    wrapped into [0, period), (paths, times, dim) -> (paths, times), so
    estimator memory scales with the block, not the ensemble; two worker
    threads call it at once, so it must be thread-safe.  It must have zero
    stationary mean (default: the first harmonic ``exp(i phi)``); the
    ensemble should start from the stationary distribution so no burn-in is
    discarded by default;
    ``burn_in_fraction``, in [0, 1), drops that share of every path's start.
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
                        dt_s=ensemble.dt * ensemble.store_every, fit_window=fit_window)
    return fit


def _estimates(blocks: Callable[[int, int], np.ndarray], n_paths: int, n_stored: int,
               periods: Tuple[float, ...], bins: Optional[int] = None,
               observable: Optional[Callable[[np.ndarray], np.ndarray]] = None,
               acf_start: int = 0, dt_s: float = 0.0,
               fit_window: Optional[Tuple[float, float]] = None
               ) -> Tuple[Optional[HistogramResult], Optional[DecayFit]]:
    """The histogram of ``bins`` bins after the burn-in and the decay fit of
    ``observable`` from state ``acf_start`` on, of ``n_paths`` paths of
    ``n_stored`` states; ``None`` for an estimate not asked for.

    ``blocks(lo, m)`` gives the time-major unwrapped store (n_stored, m, dim)
    of paths ``lo..lo+m``; each block is read once, never written, and freed
    before the next.  Every refusal comes before the first block is read.
    """
    dim, t_len = len(periods), n_stored - acf_start
    start = int(np.ceil(_BURN_IN_FRACTION * n_stored))
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
        counts = np.zeros(bins, dtype=np.intp)
    power = means = None

    block = _path_block(t_len, dim)
    for lo in range(0, n_paths, block):
        states = blocks(lo, min(block, n_paths - lo))
        if bins is not None:
            step = max(1, _HISTOGRAM_BLOCK // states.shape[1])
            for t in range(start, n_stored, step):
                part, edges = np.histogram(_wrap(states[t:t + step, :, 0], periods),
                                           bins=bins, range=(0.0, periods[0]))
                counts += part
        if observable is not None:
            if power is None:  # after the first store: a store too large is refused first
                power = np.zeros(_fft_length(t_len))
                means = np.empty(n_paths, dtype=complex)
            # the observable sees wrapped copies of whole paths
            means[lo:lo + block] = _add_power(
                power, states[acf_start:].transpose(1, 0, 2),
                lambda paths: observable(_wrap(paths, periods)))
        del states  # a sampled block is freed before the next is read

    hist = HistogramResult(edges, counts, n_samples) if bins is not None else None
    if observable is None:
        return hist, None
    # path mean of sum_t O(t+tau) O*(t), tau < T, normalized by the overlap count
    corr = np.fft.ifft(power)[:t_len] / n_paths / (t_len - np.arange(t_len))
    return hist, _fit_decay(corr, means, dt_s, fit_window)


def _stored_blocks(ensemble: TrajectoryEnsemble) -> Callable[[int, int], np.ndarray]:
    """Path blocks of a stored ensemble: views of its time-major store."""
    store = ensemble.states.transpose(1, 0, 2)
    return lambda lo, m: store[:, lo:lo + m]


def _streamed_estimates(sample, model: ModelSpec, dt: float, steps: int, n_paths: int,
                        seed: int, store_every: int, bins: int, autocorrelation: bool,
                        fit_window: Optional[Tuple[float, float]] = None
                        ) -> Tuple[Optional[HistogramResult], Optional[DecayFit]]:
    """``stationary_histogram(ens, bins)``, on a 1-dimensional domain, and with
    ``autocorrelation`` ``autocorrelation_decay(ens, fit_window=fit_window)``
    of the ensemble ``ens`` that ``simulate_sde`` would store, bit for bit,
    without holding it; ``None`` for an estimate not made.

    ``sample`` is ``simulate_sde``, called once per block of the estimator
    loop with the block's start positions and one shared ``SeedSequence``;
    only the first call may warn.  Every refusal comes before the first step.
    """
    _check_sampler(dt, steps, n_paths, seed, store_every)
    periods = tuple(float(L) for L in model.mesh.lengths)
    observable = _first_harmonic(periods) if autocorrelation else None
    initial = _default_initial(n_paths, periods)
    seeds = np.random.SeedSequence(seed)  # each call spawns the next paths' streams

    def blocks(lo, m):
        with warnings.catch_warnings():
            if lo:  # the first block has warned for the ensemble
                warnings.simplefilter("ignore", StabilityWarning)
            return sample(model, dt=dt, steps=steps, n_paths=m, seed=seeds,
                          store_every=store_every,
                          initial=initial[lo:lo + m]).states.transpose(1, 0, 2)

    # the estimators read 1-dimensional ensembles only
    return _estimates(blocks, n_paths, steps // store_every + 1, periods,
                      bins=bins if len(periods) == 1 else None, observable=observable,
                      dt_s=dt * store_every, fit_window=fit_window)

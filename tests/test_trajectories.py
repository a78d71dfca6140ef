"""Path sampling and its moment / histogram / autocovariance diagnostics."""

import hashlib
import tracemalloc

import numpy as np
import pytest

import flowspec as fs
from flowspec import trajectories


def drive_model(a=1.0, eps=0.2, n=64):
    return fs.build_model("constant_drive_circle", {"a": a, "epsilon": eps, "n": n})


def test_same_seed_reproduces_bit_for_bit():
    model = drive_model()
    kw = dict(dt=0.01, steps=500, n_paths=32, seed=5)
    e1 = fs.simulate_sde(model, **kw)
    e2 = fs.simulate_sde(model, **kw)
    np.testing.assert_array_equal(e1.positions, e2.positions)
    np.testing.assert_array_equal(e1.windings, e2.windings)
    e3 = fs.simulate_sde(model, dt=0.01, steps=500, n_paths=32, seed=6)
    assert np.any(e3.positions != e1.positions)


def test_path_streams_are_independent_of_ensemble_size():
    # per-path generators are spawned from the seed, so path 0 is the same
    # whether 4 or 32 paths are requested
    model = drive_model()
    init = np.full((32, 1), 3.0)
    small = fs.simulate_sde(model, dt=0.01, steps=200, n_paths=4, seed=9,
                            initial=init[:4])
    big = fs.simulate_sde(model, dt=0.01, steps=200, n_paths=32, seed=9,
                          initial=init)
    np.testing.assert_array_equal(small.positions[0], big.positions[0])


def test_storage_layout_and_windings():
    model = drive_model()
    ens = fs.simulate_sde(model, dt=0.01, steps=1000, n_paths=8, seed=1,
                          store_every=10)
    assert ens.positions.shape == (8, 101, 1)  # initial state always kept
    assert ens.windings.dtype == np.int32
    period = ens.periods[0]
    assert np.all(ens.positions >= 0) and np.all(ens.positions < period)
    # drift -1 per unit time: paths wind clockwise about 1.6 turns
    u = ens.unwrapped()
    assert np.all(u[:, -1, 0] < u[:, 0, 0])
    np.testing.assert_allclose(ens.times[-1], 10.0, rtol=1e-12)


def test_winding_velocity_matches_drift():
    model = drive_model(a=1.0, eps=0.2)
    ens = fs.simulate_sde(model, dt=0.005, steps=4000, n_paths=200, seed=12)
    u = ens.unwrapped()
    v = (u[:, -1, 0] - u[:, 0, 0]) / ens.times[-1]  # mean end-to-end velocity per path
    se = v.std(ddof=1) / np.sqrt(ens.n_paths)
    assert abs(v.mean() - (-1.0)) < 3 * se
    assert se < 0.02


def test_msd_of_free_diffusion():
    # depth 0 gradient flow = zero drift: MSD grows as eps * t
    model = fs.build_model(
        "tilted_langevin_circle",
        {"depth": 0.0, "tilt": 0.0, "epsilon": 0.3, "n": 32},
    )
    ens = fs.simulate_sde(model, dt=0.01, steps=2000, n_paths=400, seed=21)
    u = ens.unwrapped()
    times, msd = ens.times, np.sum((u - u[:, :1, :]) ** 2, axis=2).mean(axis=0)
    mask = times > 1.0
    ratio = msd[mask] / (0.3 * times[mask])
    assert abs(ratio.mean() - 1.0) < 0.1


def torus_model():
    return fs.build_model("torus_shear_model", {"ax": 1.0, "ay": 0.5, "epsilon": 0.3, "n": 8})


def sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


# digests of (positions, windings) in (paths, states, dim) order, frozen from
# the path-major sampler; constant drifts keep every step exact IEEE arithmetic
FROZEN_DIGESTS = {
    ("circle", 1): ("39ae96045eea79161314e10056bb7a031c67751e7bc94f1f2add99a1c1f65d27",
                    "6a15b818e340d9783a25a424bae2441136f722e7798566d2437ccc6f2d2944ca"),
    ("circle", 3): ("453a4a41afb567500cc62b94fcbf0800533978065fc32673b9abec0765e864c0",
                    "b950aa230c5ea395c54ec82350992f4869110e7a909464b45b63f12ae72e4e94"),
    ("torus", 1): ("102b77a6740f5c2f004e774ea6cafdfb3c184ee89dabbd0eb795fb8d4c299dd7",
                   "dab237b62f1e10e1c346d301f25ab31fedc26dc3899a05830ff1a9cac00d7551"),
    ("torus", 3): ("1ff6f5ebafaab818ca37bd81e1c8344761a8adc4361bfd8ce564606769e609f9",
                   "8b58413652fcb3e13d50e4906a97e60a5baf1f556d8099de43e70c984488f496"),
}


@pytest.mark.parametrize("name, store_every", sorted(FROZEN_DIGESTS))
def test_sampler_arrays_match_frozen_digests(name, store_every):
    model = drive_model() if name == "circle" else torus_model()
    ens = fs.simulate_sde(model, dt=0.01, steps=300, n_paths=24, seed=7,
                          store_every=store_every)
    assert ens.positions.shape == (24, 300 // store_every + 1, model.mesh.dimension)
    assert (sha256(ens.positions), sha256(ens.windings)) == FROZEN_DIGESTS[name, store_every]


@pytest.mark.parametrize("store_every", [1, 3])
def test_sampler_does_not_depend_on_the_noise_chunk(monkeypatch, store_every):
    model = torus_model()
    kw = dict(dt=0.01, steps=301, n_paths=24, seed=7, store_every=store_every)
    whole = fs.simulate_sde(model, **kw)
    # four-row noise buffer: 76 chunks, the last one short
    monkeypatch.setattr(trajectories, "_CHUNK_SCALARS", 4 * 24 * 2)
    chunked = fs.simulate_sde(model, **kw)
    np.testing.assert_array_equal(chunked.positions, whole.positions)
    np.testing.assert_array_equal(chunked.windings, whole.windings)


def test_sampler_peak_is_the_store_and_one_noise_buffer(monkeypatch):
    n_paths, steps = 200, 3000
    monkeypatch.setattr(trajectories, "_CHUNK_SCALARS", n_paths * 1500)  # two chunks
    store = (steps + 1) * n_paths * (8 + 4)  # float64 positions, int32 windings
    noise = 1500 * n_paths * 8
    model = drive_model()
    tracemalloc.start()
    try:
        ens = fs.simulate_sde(model, dt=0.01, steps=steps, n_paths=n_paths, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ens.n_stored == steps + 1
    assert peak < 1.1 * (store + noise), f"peak {peak / (store + noise):.2f}x"


def test_stability_warning_on_coarse_steps():
    model = drive_model(a=4.0, eps=0.05)
    with pytest.warns(fs.StabilityWarning):
        fs.simulate_sde(model, dt=0.05, steps=10, n_paths=2, seed=0)


def test_input_validation():
    model = drive_model()
    with pytest.raises(fs.ValidationError):
        fs.simulate_sde(model, dt=-0.01, steps=10, n_paths=2, seed=0)
    with pytest.raises(fs.ValidationError):
        fs.simulate_sde(model, dt=0.01, steps=0, n_paths=2, seed=0)
    with pytest.raises(fs.ValidationError):
        fs.simulate_sde(model, dt=0.01, steps=10, n_paths=2, seed=0,
                        initial=np.zeros((3, 1)))
    with pytest.raises(fs.ValidationError, match="seed >= 0"):
        fs.simulate_sde(model, dt=0.01, steps=10, n_paths=2, seed=-1)


def test_unallocatable_path_store_is_a_capacity_error():
    # numpy refuses a 1e21-slot store without allocating it; no step may run
    from dataclasses import replace

    def no_drift(x):
        raise AssertionError("integrated a path")

    model = replace(drive_model(), drift=no_drift)
    with pytest.raises(fs.CapacityError, match="paths"):
        fs.simulate_sde(model, dt=0.01, steps=10**15, n_paths=10**6, seed=0)


def test_histogram_needs_enough_samples():
    model = drive_model()
    ens = fs.simulate_sde(model, dt=0.01, steps=50, n_paths=10, seed=2)
    with pytest.raises(fs.InsufficientSamplesError):
        fs.stationary_histogram(ens)


def test_histogram_matches_gradient_flow_density():
    model = fs.build_model(
        "langevin_double_well_circle", {"depth": 1.0, "epsilon": 0.4, "n": 64}
    )
    ens = fs.simulate_sde(model, dt=0.005, steps=2000, n_paths=400, seed=31,
                          store_every=2)
    hist = fs.stationary_histogram(ens, bins=48)
    assert hist.n_samples >= 300_000
    np.testing.assert_allclose(
        np.sum(hist.density) * hist.period / 48, 1.0, rtol=1e-12
    )
    tv = fs.tv_distance_to_density(hist, model.density)
    assert tv < 0.05
    # a deliberately wrong reference is far away
    wrong = fs.tv_distance_to_density(hist, lambda x: np.exp(np.cos(x)))
    assert wrong > 0.1


def test_autocovariance_of_rotating_decay():
    # e^{i phi} under constant drive: |C| decays at eps/2, phase advances at a
    model = drive_model(a=1.0, eps=0.2)
    ens = fs.simulate_sde(model, dt=0.01, steps=30_000, n_paths=200, seed=3,
                          store_every=5)
    fit = fs.autocorrelation_decay(ens, burn_in_fraction=0.2)
    assert abs(fit.rate - 0.1) < 0.015
    assert abs(fit.frequency - 1.0) < 0.01
    assert fit.n_lags >= 5
    assert fit.c0 == pytest.approx(1.0, rel=0.05)


def test_decay_fit_window_control():
    model = drive_model()
    ens = fs.simulate_sde(model, dt=0.01, steps=2000, n_paths=50, seed=4)
    with pytest.raises(fs.UnfittableDecayError, match="five lags"):
        fs.autocorrelation_decay(ens, fit_window=(0.0, 0.03))
    with pytest.raises(fs.UnfittableDecayError):
        # constant observable: zero variance, nothing to fit
        fs.autocorrelation_decay(ens, observable=lambda p: 0.0 * p[..., 0])
    # the observable must map (paths, times, dim) to (paths, times)
    for wrong in (lambda p: p, lambda p: np.exp(1j * p[:, 0, 0]), lambda p: 1.0):
        with pytest.raises(fs.ValidationError, match="observable must map"):
            fs.autocorrelation_decay(ens, observable=wrong)
    # the burn-in is a share of each path in [0, 1)
    for fraction in (1.0, -0.5, 1.5, float("nan")):
        with pytest.raises(fs.ValidationError, match="burn_in_fraction"):
            fs.autocorrelation_decay(ens, burn_in_fraction=fraction)
    with pytest.raises(fs.UnfittableDecayError, match="five lags"):
        fs.autocorrelation_decay(ens, burn_in_fraction=0.9999)


def test_torus_needs_explicit_observable():
    model = fs.build_model(
        "torus_shear_model", {"ax": 1.0, "ay": 0.5, "epsilon": 0.3, "n": 8}
    )
    ens = fs.simulate_sde(model, dt=0.01, steps=200, n_paths=16, seed=8)
    assert ens.positions.shape[2] == 2
    with pytest.raises(fs.ValidationError):
        fs.autocorrelation_decay(ens)
    fit = fs.autocorrelation_decay(
        ens, observable=lambda p: np.exp(1j * p[..., 0]),
        fit_window=(0.05, 1.5),
    )
    assert fit.rate > 0


def whole_ensemble_autocovariance(series):
    """Reference estimator: FFT, |FFT|^2 and inverse FFT per path, then the path mean."""
    n_paths, t_len = series.shape
    nfft = 1 << int(np.ceil(np.log2(2 * t_len)))
    f = np.fft.fft(series, n=nfft, axis=1)
    raw = np.fft.ifft(f * np.conj(f), axis=1)[:, :t_len]
    return raw.mean(axis=0) / (t_len - np.arange(t_len))


def fft_length(t_len):
    return 1 << int(np.ceil(np.log2(2 * t_len)))


def assert_matches_whole_ensemble(positions, observable):
    corr, means = trajectories._ensemble_autocovariance(positions, observable)
    # the estimator hands the observable path-major copies; numpy's vector
    # loops for contiguous and strided arrays may differ in the last bit
    series = observable(np.ascontiguousarray(positions))
    oracle = whole_ensemble_autocovariance(series)
    np.testing.assert_allclose(corr, oracle, rtol=1e-12,
                               atol=1e-12 * abs(oracle[0]))
    np.testing.assert_array_equal(means, series.mean(axis=1))
    return oracle


def test_streamed_autocovariance_matches_whole_ensemble():
    model = drive_model(a=1.0, eps=0.2)
    ens = fs.simulate_sde(model, dt=0.01, steps=3000, n_paths=301, seed=17)
    start = int(np.ceil(0.2 * ens.n_stored))
    positions = ens.positions[:, start:, :]
    # the default budget, shared by the blocks in flight, splits 301 paths
    # into unequal blocks
    block = trajectories._FFT_BLOCK_SCALARS // fft_length(positions.shape[1]) // 2
    assert 1 < block < 301 and 301 % block != 0

    def first_harmonic(p):
        return np.exp(2j * np.pi * p[..., 0] / ens.periods[0])

    oracle = assert_matches_whole_ensemble(positions, first_harmonic)
    fit = fs.autocorrelation_decay(ens, burn_in_fraction=0.2)
    assert fit.c0 == pytest.approx(abs(oracle[0]), rel=1e-12)


def test_streamed_autocovariance_on_the_torus(monkeypatch):
    model = fs.build_model(
        "torus_shear_model", {"ax": 1.0, "ay": 0.5, "epsilon": 0.3, "n": 8}
    )
    ens = fs.simulate_sde(model, dt=0.01, steps=400, n_paths=301, seed=8)
    # a small budget: 64-path blocks, the last one of 45 paths
    monkeypatch.setattr(trajectories, "_FFT_BLOCK_SCALARS", 64 * fft_length(401))
    assert_matches_whole_ensemble(
        ens.positions, lambda p: np.exp(1j * (p[..., 0] - 2 * p[..., 1]))
    )


def test_autocovariance_memory_scales_with_the_block():
    model = drive_model(a=1.0, eps=0.2)
    ens = fs.simulate_sde(model, dt=0.01, steps=2600, n_paths=1000, seed=19)
    full_array = ens.n_paths * fft_length(ens.n_stored) * 16  # complex128 bytes
    tracemalloc.start()
    try:
        fit = fs.autocorrelation_decay(ens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.rate > 0
    assert peak < full_array


def serial_autocovariance(positions, observable):
    """The streamed estimator's block partition, summed in one thread."""
    n_paths, t_len = positions.shape[:2]
    nfft = fft_length(t_len)
    block = max(1, trajectories._FFT_BLOCK_SCALARS // nfft // trajectories._WORKERS)
    power, means = np.zeros(nfft), []
    for a in range(0, n_paths, block):
        chunk = np.ascontiguousarray(positions[a:a + block])
        series = np.asarray(observable(chunk), dtype=complex)
        f = np.fft.fft(series, n=nfft, axis=1)
        power += (f.real**2 + f.imag**2).sum(axis=0)
        means.append(series.mean(axis=1))
    corr = np.fft.ifft(power)[:t_len] / n_paths / (t_len - np.arange(t_len))
    return corr, np.concatenate(means)


def test_pooled_autocovariance_equals_the_serial_block_sum(monkeypatch):
    assert trajectories._WORKERS == 2
    model = torus_model()
    ens = fs.simulate_sde(model, dt=0.01, steps=400, n_paths=301, seed=8)
    # 16-path blocks: 19 of them, so both workers take turns many times
    monkeypatch.setattr(trajectories, "_FFT_BLOCK_SCALARS", 32 * fft_length(401))

    def observable(p):
        return np.exp(1j * (p[..., 0] - 2 * p[..., 1]))

    corr, means = trajectories._ensemble_autocovariance(ens.positions, observable)
    ref_corr, ref_means = serial_autocovariance(ens.positions, observable)
    np.testing.assert_array_equal(corr, ref_corr)
    np.testing.assert_array_equal(means, ref_means)


def test_an_observable_raising_in_a_worker_reaches_the_caller(monkeypatch):
    model = drive_model()
    ens = fs.simulate_sde(model, dt=0.01, steps=400, n_paths=104, seed=8)
    # 10-path blocks, the eleventh of 4 paths
    monkeypatch.setattr(trajectories, "_FFT_BLOCK_SCALARS", 20 * fft_length(401))

    def observable(p):
        if p.shape[0] < 10:  # only the short last block
            raise fs.ValidationError("short block")
        return np.exp(1j * p[..., 0])

    with pytest.raises(fs.ValidationError, match="short block"):
        fs.autocorrelation_decay(ens, observable=observable)

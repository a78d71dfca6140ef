"""Path sampling and its moment / histogram / autocovariance diagnostics."""

import hashlib
import json
import tracemalloc
import weakref

import numpy as np
import pytest

import flowspec as fs
from flowspec import reporting, trajectories


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


def test_a_shared_seed_sequence_samples_consecutive_paths():
    # calls sharing one SeedSequence spawn its next children: two blocks are
    # the whole ensemble of the integer seed, bit for bit
    model = drive_model()
    init = trajectories._default_initial(30, (2 * np.pi,))
    whole = fs.simulate_sde(model, dt=0.01, steps=200, n_paths=30, seed=9, initial=init)
    seeds = np.random.SeedSequence(9)
    parts = [fs.simulate_sde(model, dt=0.01, steps=200, n_paths=hi - lo, seed=seeds,
                             initial=init[lo:hi]) for lo, hi in ((0, 12), (12, 30))]
    np.testing.assert_array_equal(np.concatenate([p.states for p in parts]), whole.states)
    assert [p.seed for p in parts] == [9, 9]


def test_unwrapped_is_the_store():
    ens = fs.simulate_sde(torus_model(), dt=0.01, steps=300, n_paths=24, seed=7)
    u = ens.unwrapped()
    assert u is ens.states and u.dtype == np.float64
    periods = np.asarray(ens.periods)
    rebuilt = ens.positions + ens.windings * periods
    # each of the three roundings is within half an ulp of |state| + period
    assert np.all(np.abs(rebuilt - u) <= 4 * np.spacing(np.abs(u) + periods))


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
    store = (steps + 1) * n_paths * 8  # float64 unwrapped states, nothing else
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
    # a 1-D initial vector is the (n_paths, 1) column
    column = np.linspace(0.0, 1.0, 3)[:, None]
    np.testing.assert_array_equal(
        fs.simulate_sde(model, dt=0.01, steps=10, n_paths=3, seed=0, initial=column[:, 0]).states,
        fs.simulate_sde(model, dt=0.01, steps=10, n_paths=3, seed=0, initial=column).states)
    ens = fs.simulate_sde(model, dt=0.01, steps=200, n_paths=64, seed=0)
    with pytest.raises(fs.ValidationError, match="at least 2 bins"):
        fs.stationary_histogram(ens, bins=1)
    torus = fs.build_model("torus_shear_model", {"ax": 1.0, "ay": 0.5, "epsilon": 0.3, "n": 8})
    with pytest.raises(fs.UnsupportedMeshError):
        fs.stationary_histogram(fs.simulate_sde(torus, dt=0.01, steps=10, n_paths=2, seed=0))


def test_unallocatable_path_store_is_a_capacity_error():
    # numpy refuses a 1e21-slot store without allocating it; no step may run
    from dataclasses import replace

    def no_drift(x):
        raise AssertionError("integrated a path")

    model = replace(drive_model(), drift=no_drift)
    with pytest.raises(fs.CapacityError, match="paths"):
        fs.simulate_sde(model, dt=0.01, steps=10**15, n_paths=10**6, seed=0)


def test_model_without_a_drift_is_refused_before_allocating():
    # a store of 10^21 slots would be refused as a capacity error: the
    # missing drift is refused first
    from dataclasses import replace

    model = replace(drive_model(), drift=None)
    with pytest.raises(fs.ValidationError,
                       match="simulation needs a model with a closed-form drift"):
        fs.simulate_sde(model, dt=0.01, steps=10**15, n_paths=10**6, seed=0)


def test_unallocatable_start_positions_are_a_capacity_error():
    # numpy refuses to index 1e20 paths; no stream may be spawned
    class NoSpawn(np.random.SeedSequence):
        def spawn(self, n_children):
            raise AssertionError("spawned the path streams")

    with pytest.raises(fs.CapacityError, match="start positions"):
        fs.simulate_sde(drive_model(), dt=0.01, steps=10, n_paths=10**20, seed=NoSpawn(0))


def _double_well_32():
    return fs.build_model("langevin_double_well_circle", {"depth": 1.0, "epsilon": 0.2, "n": 32})


@pytest.mark.parametrize("estimate, error, match", [
    (lambda ens: fs.stationary_histogram(ens, bins=10**20), fs.CapacityError,
     "cannot store 100000000000000000000 histogram bins"),
    (lambda ens: fs.simulate_sde(_double_well_32(), dt=0.005, steps=10**400, n_paths=1, seed=0),
     fs.CapacityError, "cannot store 1 paths"),
    (lambda ens: fs.stationary_histogram(fs.simulate_sde(
        _double_well_32(), dt=0.005, steps=10, n_paths=2, seed=0, store_every=10**400)),
     fs.InsufficientSamplesError, "0 samples after burn-in"),
    (lambda ens: fs.autocorrelation_decay(ens, fit_window=(1e307, 1e308)),
     fs.UnfittableDecayError, "fewer than five lags"),
], ids=["bins", "steps", "store-every", "fit-window"])
def test_counts_past_the_float_range_are_refused(estimate, error, match):
    ens = fs.simulate_sde(_double_well_32(), dt=0.005, steps=400, n_paths=40, seed=0)
    with pytest.raises(error, match=match):
        estimate(ens)


def test_a_fit_window_past_the_series_is_clamped_to_it():
    ens = fs.simulate_sde(_double_well_32(), dt=0.005, steps=2000, n_paths=40, seed=1)
    whole = fs.autocorrelation_decay(ens, fit_window=(0.0, 2000 * 0.005))
    assert fs.autocorrelation_decay(ens, fit_window=(0.0, 1e308)) == whole
    assert whole.n_lags == 1999


def test_a_window_below_the_noise_floor_is_unfittable():
    # |C| has decayed to e^{-5} by t = 5, below three times the noise floor
    model = drive_model(eps=2.0, n=16)
    ens = fs.simulate_sde(model, dt=0.01, steps=2000, n_paths=50, seed=1, store_every=10)
    with pytest.raises(fs.UnfittableDecayError, match="noise floor"):
        fs.autocorrelation_decay(ens, fit_window=(5.0, 15.0))


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_lags_too_fine_for_the_fit_are_unfittable():
    # lags of 1e-300 time units: their squares underflow to 0, polyfit divides
    # its lag column by that scale, and the least-squares solve then fails
    ens = fs.simulate_sde(drive_model(), dt=1e-300, steps=200, n_paths=10, seed=0)
    with pytest.raises(fs.UnfittableDecayError, match="cannot fit lags"):
        fs.autocorrelation_decay(ens)


def test_histogram_needs_enough_samples():
    model = drive_model()
    ens = fs.simulate_sde(model, dt=0.01, steps=50, n_paths=10, seed=2)
    with pytest.raises(fs.InsufficientSamplesError):
        fs.stationary_histogram(ens)


def test_histogram_adds_at_most_its_block_budget():
    model = drive_model()
    ens = fs.simulate_sde(model, dt=0.01, steps=2000, n_paths=400, seed=2)
    # 640k samples after burn-in: one wrapped copy of them all is 5.1 MB; the
    # sub-blocks in work hold at most 32 bytes per scalar of their budget
    budget = 32 * trajectories._FFT_BLOCK_SCALARS
    tracemalloc.start()
    try:
        hist = fs.stationary_histogram(ens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hist.n_samples * 8 > budget
    assert peak <= budget, f"peak {peak / budget:.2f}x the budget"


def test_many_bins_add_no_more_than_their_counts():
    # a million bins: each sub-block hands back only its non-empty bins, at
    # most 16 bytes a sample, so the loop adds the counts and edges (16 MB)
    # to the sub-blocks in work and their bins, 48 bytes a scalar of budget
    ens = fs.simulate_sde(drive_model(), dt=0.01, steps=2000, n_paths=400, seed=2)
    bins = 10**6
    budget = 16 * bins + 48 * trajectories._FFT_BLOCK_SCALARS
    tracemalloc.start()
    try:
        hist = fs.stationary_histogram(ens, bins=bins)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hist.counts.sum() == hist.n_samples
    assert peak <= budget, f"peak {peak / budget:.2f}x the budget"


def test_bin_counts_are_the_numpy_histogram():
    # samples on and one rounding step beside the edges, past both ends and NaN
    period = 2 * np.pi
    for bins in (24, 10**6):
        edges = np.linspace(0.0, period, bins + 1)
        x = np.concatenate([
            np.random.default_rng(bins).uniform(0.0, period, 5000), edges[::max(1, bins // 50)],
            np.nextafter(edges, -1.0)[::max(1, bins // 50)], [period, -1e-300, 7.0, np.nan]])
        found, counts = trajectories._bin_counts(x.reshape(2, -1), edges)
        dense = np.zeros(bins, dtype=np.intp)
        dense[found] += counts
        np.testing.assert_array_equal(dense, np.histogram(x, bins=bins, range=(0.0, period))[0])
        assert len(found) <= len(x)


DOUBLE_WELL = {"name": "langevin_double_well_circle",
               "params": {"depth": 1.0, "epsilon": 0.2, "n": 64}}
TORUS = {"name": "torus_shear_model", "params": {"ax": 1.0, "ay": 0.5, "epsilon": 0.3, "n": 8}}


def test_simulate_run_holds_one_float64_store(tmp_path, monkeypatch):
    # 200-path blocks (25 sub-blocks of 8 paths) of 1001 states: the run
    # holds the float64 store of one block and, one at a time, the block's
    # noise buffer and its sub-blocks in work, whatever the ensemble size
    monkeypatch.setattr(trajectories, "_FFT_BLOCK_SCALARS", 2 * 8 * 2048)
    monkeypatch.setattr(trajectories, "_PATH_BLOCK_SCALARS", 200 * 1001)
    assert trajectories._path_block(1001, 1, 1600) == 200
    block = 200 * 1001 * 8
    budgets = (1000 * 200 * 8, 48 * trajectories._FFT_BLOCK_SCALARS)
    peaks = {}
    for n_paths in (400, 1600):
        cfg = fs.RunConfig.from_dict({
            "model": DOUBLE_WELL, "tasks": ["simulate"],
            "simulate": {"dt": 0.005, "steps": 1000, "n_paths": n_paths, "seed": 1,
                         "autocorrelation": True}})
        tracemalloc.start()
        try:
            r = fs.run(cfg, out_dir=tmp_path).data["results"]["simulate"]
            peaks[n_paths] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r["autocorrelation"]["rate"] > 0, r
        assert r["histogram"]["n_samples"] == n_paths * 800, r
        assert peaks[n_paths] <= 1.1 * (block + max(budgets)), peaks
    # the whole store of 1600 paths would be 11.2 MB more than one block
    assert peaks[1600] <= 1.1 * peaks[400], peaks


def test_path_blocks_are_balanced():
    # 250 sub-blocks of 8 paths at 4,001 states, at most 124 a block: three
    # blocks of 84, 84 and 82 sub-blocks; 248 sub-blocks fill two
    assert trajectories._path_block(4001, 1, 2000) == 672
    assert trajectories._path_block(4001, 1, 1984) == 992


def test_streamed_run_samples_balanced_blocks(tmp_path, monkeypatch):
    # 2-path sub-blocks of 4,001 states and a 200-path budget: 208 paths are
    # sampled as two blocks of 104, not 200 and 8, and the run holds the
    # store of one balanced block beside its noise buffer or sub-blocks in work
    steps, n_paths = 4000, 208
    monkeypatch.setattr(trajectories, "_FFT_BLOCK_SCALARS", 2 * 2 * fft_length(steps + 1))
    monkeypatch.setattr(trajectories, "_PATH_BLOCK_SCALARS", 200 * (steps + 1))
    monkeypatch.setattr(trajectories, "_CHUNK_SCALARS", 104 * 500)
    sampled = []

    def recording(*args, **kwargs):
        sampled.append(kwargs["n_paths"])
        return fs.simulate_sde(*args, **kwargs)

    monkeypatch.setattr(reporting, "simulate_sde", recording)
    cfg = fs.RunConfig.from_dict({
        "model": DOUBLE_WELL, "tasks": ["simulate"],
        "simulate": {"dt": 0.005, "steps": steps, "n_paths": n_paths, "seed": 1,
                     "autocorrelation": True}})
    tracemalloc.start()
    try:
        fs.run(cfg, out_dir=tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sampled == [104, 104]
    block = 104 * (steps + 1) * 8
    budgets = (8 * trajectories._CHUNK_SCALARS, 48 * trajectories._FFT_BLOCK_SCALARS)
    assert peak <= 1.1 * (block + max(budgets)), f"peak {peak / (block + max(budgets)):.2f}x"


@pytest.mark.parametrize("store_every", [1, 3])
def test_streamed_run_reports_what_the_stored_ensemble_gives(tmp_path, monkeypatch,
                                                             store_every):
    # 4-path autocovariance blocks, 12-path sampler blocks: 70 paths are five
    # whole blocks and a short one of 10
    steps, n_paths = 700, 70
    n_stored = steps // store_every + 1
    nfft = trajectories._fft_length(n_stored)
    monkeypatch.setattr(trajectories, "_FFT_BLOCK_SCALARS", 2 * 4 * nfft)
    monkeypatch.setattr(trajectories, "_PATH_BLOCK_SCALARS", 12 * n_stored)
    sampled, stores = [], []

    def recording(*args, **kwargs):
        # each block's store is freed before the next block is sampled
        assert all(store() is None for store in stores)
        sampled.append(kwargs["n_paths"])
        ens = fs.simulate_sde(*args, **kwargs)
        stores.append(weakref.ref(ens.states.base))
        return ens

    monkeypatch.setattr(reporting, "simulate_sde", recording)
    sim = {"dt": 0.01, "steps": steps, "n_paths": n_paths, "seed": 4,
           "store_every": store_every, "bins": 24, "autocorrelation": True}
    model = drive_model()
    cfg = fs.RunConfig.from_dict({"model": {"name": model.name, "params": model.params},
                                  "tasks": ["simulate"], "simulate": sim})
    fs.run(cfg, out_dir=tmp_path / "run")
    assert sampled == [12] * 5 + [10]

    ens = fs.simulate_sde(model, dt=0.01, steps=steps, n_paths=n_paths, seed=4,
                          store_every=store_every)
    hist = fs.stationary_histogram(ens, bins=24)
    fit = fs.autocorrelation_decay(ens)
    expected = {
        "dt": 0.01, "steps": steps, "n_paths": n_paths, "seed": 4, "store_every": store_every,
        "histogram": {"bins": 24, "n_samples": hist.n_samples, "csv": "histogram.csv",
                      "tv_distance_to_oracle": fs.tv_distance_to_density(hist, model.density)},
        "autocorrelation": {"rate": fit.rate, "frequency": fit.frequency,
                            "window": list(fit.window), "n_lags": fit.n_lags},
    }
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["results"]["simulate"] == json.loads(fs.canonical_json(expected))
    reporting._write_csv(tmp_path / "histogram.csv", ["bin_lo", "bin_hi", "count", "density"],
                         [hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts, hist.density])
    assert ((tmp_path / "run" / "histogram.csv").read_bytes()
            == (tmp_path / "histogram.csv").read_bytes())


def test_library_estimators_read_the_store_and_ignore_the_block_size(monkeypatch):
    # 4-path autocovariance blocks of the 490 states after a 30% burn-in; a
    # 14-path budget, rounded down to 12-path blocks of the loop, splits 70
    # paths into five and a short one of 10, and the histogram's 8-path
    # blocks into eight and a short one of 6
    model = drive_model()
    ens = fs.simulate_sde(model, dt=0.01, steps=700, n_paths=70, seed=4)
    before = ens.states.tobytes()
    monkeypatch.setattr(trajectories, "_FFT_BLOCK_SCALARS", 2 * 4 * fft_length(490))

    def estimates():
        return (fs.stationary_histogram(ens, bins=24),
                fs.autocorrelation_decay(ens, burn_in_fraction=0.3))

    assert trajectories._path_block(490, 1, 70) >= 70
    hist, fit = estimates()
    monkeypatch.setattr(trajectories, "_PATH_BLOCK_SCALARS", 14 * 490)
    assert trajectories._path_block(490, 1, 70) == 12
    assert trajectories._path_block(701, 1, 70) == 8
    split_hist, split_fit = estimates()
    assert ens.states.tobytes() == before
    np.testing.assert_array_equal(split_hist.counts, hist.counts)
    np.testing.assert_array_equal(split_hist.bin_edges, hist.bin_edges)
    assert split_hist.n_samples == hist.n_samples
    assert split_fit == fit


def test_estimators_leave_a_one_path_store_unwritten():
    # a one-path sub-block is C-contiguous as a view of the store, and is
    # wrapped all the same
    ens = fs.simulate_sde(drive_model(), dt=0.01, steps=12500, n_paths=1, seed=4)
    before = ens.states.tobytes()
    fs.stationary_histogram(ens)
    fs.autocorrelation_decay(ens, fit_window=(0.05, 0.5))
    assert ens.states.tobytes() == before


def test_one_pass_ignores_the_sub_block_and_path_block_budgets(monkeypatch):
    # one pass makes both estimates, as a run does: 4- or 8-path sub-blocks,
    # each path block one or three of them; 70 paths end in a short one
    ens = fs.simulate_sde(drive_model(), dt=0.01, steps=700, n_paths=70, seed=4)
    observable = trajectories._first_harmonic(ens.periods)
    nfft = fft_length(701)
    results = {}
    for sub in (4, 8):
        monkeypatch.setattr(trajectories, "_FFT_BLOCK_SCALARS", 2 * sub * nfft)
        for subs in (1, 3):
            monkeypatch.setattr(trajectories, "_PATH_BLOCK_SCALARS", subs * sub * 701)
            assert trajectories._path_block(701, 1, 70) == subs * sub
            hist, fit = trajectories._estimates(
                trajectories._stored_blocks(ens), 70, 701, ens.periods, bins=24,
                observable=observable, dt=ens.dt, store_every=ens.store_every)
            assert fit == fs.autocorrelation_decay(ens)
            np.testing.assert_array_equal(hist.counts, fs.stationary_histogram(ens, 24).counts)
            results[sub, subs] = hist, fit
        # whole sub-blocks: either path block adds the power sums in one order
        assert results[sub, 1][1] == results[sub, 3][1]
    # another sub-block size groups the power sums otherwise, so the fit
    # moves by rounding only; the counts are integers
    (hist, fit), *others = results.values()
    for other_hist, other_fit in others:
        np.testing.assert_array_equal(other_hist.counts, hist.counts)
        np.testing.assert_array_equal(other_hist.bin_edges, hist.bin_edges)
        assert (other_fit.window, other_fit.n_lags) == (fit.window, fit.n_lags)
        assert ([other_fit.rate, other_fit.frequency, other_fit.c0]
                == pytest.approx([fit.rate, fit.frequency, fit.c0], rel=1e-9))


def test_a_store_spacing_past_the_float_range_is_refused():
    # one stored state: the fit has no lags, refused before the spacing
    # dt * store_every is formed, and the times are refused
    ens = fs.simulate_sde(drive_model(), dt=0.01, steps=10, n_paths=4, seed=1,
                          store_every=10**400)
    assert ens.n_stored == 1
    for window in (None, (0.0, 1.0)):
        with pytest.raises(fs.UnfittableDecayError, match="fewer than five lags"):
            fs.autocorrelation_decay(ens, fit_window=window)
    with pytest.raises(fs.ValidationError, match="float range"):
        ens.times


def test_a_streamed_run_warns_once(tmp_path, monkeypatch):
    # 16-path blocks of a coarse-step ensemble: four calls of the sampler
    monkeypatch.setattr(trajectories, "_FFT_BLOCK_SCALARS", 2 * 512)
    monkeypatch.setattr(trajectories, "_PATH_BLOCK_SCALARS", 16 * 201)
    cfg = fs.RunConfig.from_dict({
        "model": {"name": "constant_drive_circle",
                  "params": {"a": 4.0, "epsilon": 0.05, "n": 16}},
        "tasks": ["simulate"],
        "simulate": {"dt": 0.05, "steps": 200, "n_paths": 64, "seed": 0}})
    fs.run(cfg, out_dir=tmp_path)
    warned = json.loads((tmp_path / "report.json").read_text())["warnings"]
    assert [w.split(":")[0] for w in warned] == ["StabilityWarning"], warned


@pytest.mark.parametrize("spec, simulate, error, match", [
    (DOUBLE_WELL, {"bins": 1}, fs.ValidationError, "at least 2 bins"),
    (DOUBLE_WELL, {"steps": 50, "n_paths": 10}, fs.InsufficientSamplesError, "samples"),
    (TORUS, {"autocorrelation": True}, fs.ValidationError, "default observable"),
], ids=["one-bin", "few-samples", "torus-default-observable"])
def test_a_run_refuses_what_the_estimators_refuse_before_any_step(
        tmp_path, monkeypatch, spec, simulate, error, match):
    from dataclasses import replace

    def no_drift(x):
        raise AssertionError("integrated a path")

    resolve = reporting._resolve_model
    monkeypatch.setattr(reporting, "_resolve_model",
                        lambda config: replace(resolve(config), drift=no_drift))
    cfg = fs.RunConfig.from_dict({
        "model": spec, "tasks": ["simulate"],
        "simulate": {"dt": 0.005, "steps": 2000, "n_paths": 400, "seed": 1, **simulate}})
    with pytest.raises(error, match=match):
        fs.run(cfg, out_dir=tmp_path)


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


def decay_inputs(monkeypatch, ens, **kwargs):
    """The autocovariance and the per-path means that ``autocorrelation_decay``
    hands its fit, and the fit."""
    seen, fit_decay = [], trajectories._fit_decay

    def spy(corr, means, *args):
        seen.append((corr, means))
        return fit_decay(corr, means, *args)

    monkeypatch.setattr(trajectories, "_fit_decay", spy)
    fit = fs.autocorrelation_decay(ens, **kwargs)
    (corr, means), = seen
    return corr, means, fit


def assert_matches_whole_ensemble(monkeypatch, ens, observable, burn_in_fraction=0.0):
    corr, means, fit = decay_inputs(monkeypatch, ens, observable=observable,
                                    burn_in_fraction=burn_in_fraction)
    start = int(np.ceil(burn_in_fraction * ens.n_stored))
    # the estimator hands the observable path-major copies; numpy's vector
    # loops for contiguous and strided arrays may differ in the last bit
    series = observable(np.ascontiguousarray(ens.positions[:, start:, :]))
    oracle = whole_ensemble_autocovariance(series)
    np.testing.assert_allclose(corr, oracle, rtol=1e-12,
                               atol=1e-12 * abs(oracle[0]))
    np.testing.assert_array_equal(means, series.mean(axis=1))
    return oracle, fit


def test_streamed_autocovariance_matches_whole_ensemble(monkeypatch):
    model = drive_model(a=1.0, eps=0.2)
    ens = fs.simulate_sde(model, dt=0.01, steps=3000, n_paths=301, seed=17)
    start = int(np.ceil(0.2 * ens.n_stored))
    # the default budget, shared by the blocks in flight, splits 301 paths
    # into unequal blocks
    block = trajectories._FFT_BLOCK_SCALARS // fft_length(ens.n_stored - start) // 2
    assert 1 < block < 301 and 301 % block != 0

    def first_harmonic(p):
        return np.exp(2j * np.pi * p[..., 0] / ens.periods[0])

    oracle, fit = assert_matches_whole_ensemble(monkeypatch, ens, first_harmonic, 0.2)
    assert fit == fs.autocorrelation_decay(ens, burn_in_fraction=0.2)
    assert fit.c0 == pytest.approx(abs(oracle[0]), rel=1e-12)


def test_streamed_autocovariance_on_the_torus(monkeypatch):
    model = fs.build_model(
        "torus_shear_model", {"ax": 1.0, "ay": 0.5, "epsilon": 0.3, "n": 8}
    )
    ens = fs.simulate_sde(model, dt=0.01, steps=400, n_paths=301, seed=8)
    # a small budget: 64-path blocks of the loop, the last one of 45 paths,
    # each two autocovariance blocks of 32 paths
    monkeypatch.setattr(trajectories, "_FFT_BLOCK_SCALARS", 64 * fft_length(401))
    monkeypatch.setattr(trajectories, "_PATH_BLOCK_SCALARS", 64 * 401 * 2)
    assert trajectories._path_block(401, 2, 301) == 64
    assert_matches_whole_ensemble(
        monkeypatch, ens, lambda p: np.exp(1j * (p[..., 0] - 2 * p[..., 1]))
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
    # the observable and the power sums are built in place: at most 36 bytes
    # per scalar of the budget in work (27 with numpy 2.4; 42 when they were not)
    budget = 36 * trajectories._FFT_BLOCK_SCALARS
    assert peak <= budget, f"peak {peak / budget:.2f}x the budget"


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

    corr, means, _ = decay_inputs(monkeypatch, ens, observable=observable)
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

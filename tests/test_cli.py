"""Run configs, canonical reports, and the command-line entry point."""

import csv
import io
import json

import numpy as np
import pytest

import flowspec as fs
from flowspec.cli import main


def double_well_dict(tasks, eps=0.2, **extra):
    return {
        "model": {"name": "langevin_double_well_circle",
                  "params": {"depth": 1.0, "epsilon": eps, "n": 48}},
        "tasks": tasks,
        **extra,
    }


def _inline_potential(eps, tasks, **extra):
    # the double well's W = cos 2 phi on a 32-point circle
    w = np.cos(2 * np.arange(32) * (2 * np.pi / 32))
    return {"inline": {"mesh": {"kind": "circle", "n": 32},
                       "flow": {"potential": w.tolist()}, "epsilon": eps},
            "tasks": tasks, **extra}


def base_config(**extra):
    cfg = {
        "model": {"name": "constant_drive_circle",
                  "params": {"a": 1.0, "epsilon": 0.2, "n": 32}},
        "tasks": ["spectrum", "classify", "witten"],
    }
    cfg.update(extra)
    return cfg


# ----------------------------------------------------------------------
# canonical serialization
# ----------------------------------------------------------------------

def test_format_float():
    assert fs.format_float(1.0) == "1.00000000000e+00"
    assert fs.format_float(-0.0) == "0.00000000000e+00"
    assert fs.format_float(0.2) == "2.00000000000e-01"
    with pytest.raises(fs.NumericalError):
        fs.format_float(float("nan"))
    with pytest.raises(fs.NumericalError):
        fs.format_float(float("inf"))


def _format_float_reference(x):
    """The report's float token, one value at a time."""
    x = float(x)
    if not np.isfinite(x):
        raise fs.NumericalError(f"non-finite value {x!r}")
    return "%.11e" % (0.0 if x == 0.0 else x)


def _csv_reference(header, columns):
    """The bytes :mod:`csv` writes row by row, floats as the report's token."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in zip(*(np.asarray(c).tolist() for c in columns)):
        writer.writerow([_format_float_reference(c) if isinstance(c, float) else c
                         for c in row])
    return buf.getvalue().encode("utf-8")


def test_csv_writer_matches_the_row_writer(tmp_path):
    from flowspec.reporting import _write_csv

    floats = np.array([-0.0, 5e-324, 1e300, -1.5, -2.5e-7, 0.2, -5e-324])
    ints = np.array([0, -3, 7, 12345678901, 1, -1, 42])
    path = tmp_path / "t.csv"
    _write_csv(path, ["x", "n", "y"], [floats, ints, -floats])
    assert path.read_bytes() == _csv_reference(["x", "n", "y"], [floats, ints, -floats])
    # a header alone for no rows
    _write_csv(path, ["x"], [np.zeros(0)])
    assert path.read_bytes() == b"x\r\n"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_csv_writer_refuses_non_finite_before_opening(tmp_path, bad):
    from flowspec.reporting import _write_csv

    path = tmp_path / "t.csv"
    with pytest.raises(fs.NumericalError, match="non-finite value"):
        _write_csv(path, ["n", "x"], [np.arange(3), np.array([1.0, bad, 2.0])])
    assert not path.exists()


def test_run_csvs_match_the_row_writer(tmp_path):
    cfg = double_well_dict(["spectrum", "stationary", "simulate"],
                           simulate={"steps": 700, "n_paths": 20, "seed": 3})
    cfg["model"]["params"]["n"] = 16  # 20 x 700 steps: the histogram needs 10^4 samples
    fs.run(fs.RunConfig.from_dict(cfg), tmp_path)
    integer = {"degree", "index", "pair_id", "physical_flag", "cell", "count"}
    for name in ("spectrum.csv", "stationary.csv", "histogram.csv"):
        with open(tmp_path / name, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        columns = [[(int if h in integer else float)(r[c]) for r in rows]
                   for c, h in enumerate(header)]
        assert (tmp_path / name).read_bytes() == _csv_reference(header, columns)


def test_canonical_json_layout():
    text = fs.canonical_json({"b": 1, "a": [True, 2, 0.5], "z": complex(1, -2)})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"') < text.index('"z"')
    obj = json.loads(text)
    assert obj["z"] == {"im": -2.0, "re": 1.0}
    assert obj["a"][0] is True and obj["a"][1] == 2
    # floats in fixed scientific notation, ints bare
    assert "5.00000000000e-01" in text
    assert "\n  \"b\": 1,\n" in text


def test_canonical_json_is_deterministic():
    payload = {"x": np.float64(0.1), "arr": np.arange(3), "c": 1 + 1j}
    assert fs.canonical_json(payload) == fs.canonical_json(payload)


def test_canonical_json_rejects_bad_values():
    with pytest.raises(fs.NumericalError):
        fs.canonical_json({"x": float("nan")})
    with pytest.raises(fs.ValidationError):
        fs.canonical_json({1: "non-string key"})


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------

def test_config_requires_tasks_and_model():
    with pytest.raises(fs.ValidationError, match="tasks"):
        fs.RunConfig.from_dict({"model": {"name": "x"}})
    with pytest.raises(fs.ValidationError, match="exactly one"):
        fs.RunConfig.from_dict({"tasks": ["spectrum"]})
    with pytest.raises(fs.ValidationError, match="unknown config keys"):
        fs.RunConfig.from_dict(base_config(extra_key=1))
    # nested objects name their known keys the same way
    with pytest.raises(fs.ValidationError,
                       match=r"unknown simulate keys: \['n_path'\]; known: .*'n_paths'"):
        fs.RunConfig.from_dict(base_config(simulate={"n_path": 50}))
    with pytest.raises(fs.ValidationError, match="unknown tasks"):
        fs.RunConfig.from_dict(base_config(tasks=["spectra"]))


def test_config_tolerances_and_sweep_validation():
    with pytest.raises(fs.ValidationError, match="tau_gamma"):
        fs.RunConfig.from_dict(base_config(tolerances={"tau_gamma": -1}))
    with pytest.raises(fs.ValidationError, match="epsilons"):
        fs.RunConfig.from_dict(base_config(tasks=["sweep"]))
    with pytest.raises(fs.ValidationError, match="decreasing"):
        fs.RunConfig.from_dict(
            base_config(tasks=["sweep"], sweep={"epsilons": [0.1, 0.2]})
        )
    cfg = fs.RunConfig.from_dict(
        base_config(tasks=["sweep"], sweep={"epsilons": [0.2, 0.1]})
    )
    assert cfg.sweep_epsilons == (0.2, 0.1)


def test_inline_config_excludes_resampling_tasks():
    inline = {"mesh": {"kind": "circle", "n": 16, "length": 6.283185307179586},
              "flow": {"constant": 1.0}}
    with pytest.raises(fs.ValidationError, match="registered model"):
        fs.RunConfig.from_dict({"tasks": ["simulate"], "inline": inline})
    cfg = fs.RunConfig.from_dict({"tasks": ["spectrum"], "inline": inline})
    assert cfg.inline is not None
    # every level of an inline system comes from rebuild_at, so it sweeps
    cfg = fs.RunConfig.from_dict({"tasks": ["sweep"], "inline": inline,
                                  "sweep": {"epsilons": [0.2, 0.1]}})
    assert cfg.sweep_epsilons == (0.2, 0.1)


def test_config_file_errors(tmp_path, capsys):
    # the CLI reads every config file through _read_config
    out = tmp_path / "out"
    assert main(["run", str(tmp_path / "missing.json"), "--out", str(out)]) == 2
    assert "not found" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad), "--out", str(out)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    assert not out.exists()


# ----------------------------------------------------------------------
# run driver
# ----------------------------------------------------------------------

def test_run_writes_report_and_sidecars(tmp_path):
    cfg = fs.RunConfig.from_dict(base_config(
        tasks=["spectrum", "classify", "witten", "stationary", "sweep"],
        sweep={"epsilons": [0.8, 0.4, 0.2]},
        backend="fourier",
    ))
    doc = fs.run(cfg, out_dir=tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["report.json", "spectrum.csv", "stationary.csv",
                     "timings.json"]
    data = json.loads(doc.path.read_text())
    assert set(data) == {"config", "model", "results", "warnings", "versions"}
    res = data["results"]
    assert res["spectrum"]["oracle_satisfied"] is True
    assert res["spectrum"]["entries_per_degree"] == {"0": 32, "1": 32}
    assert res["classify"]["verdict"] == "unbroken-Markovian"
    assert res["witten"]["witten_index"] == 0
    assert res["witten"]["matches_euler_characteristic"] is True
    # stationary state of the drive is uniform; the oracle comparison is tight
    assert res["stationary"]["oracle_max_rel_deviation"] < 1e-9
    # |Gamma|/|E| of the slowest oscillating pair is eps/(2a) per level
    ratios = [row["ratio_gamma_over_e"] for row in res["sweep"]["rows"]]
    np.testing.assert_allclose(ratios, [0.4, 0.2, 0.1], rtol=1e-8)
    assert res["sweep"]["condensation"] is False
    # timings stay out of the report, in the sidecar
    timings = json.loads((tmp_path / "timings.json").read_text())
    assert "total" in timings
    assert "timings" not in data and "total" not in data["results"]


def test_report_bytes_are_stable_across_runs(tmp_path):
    cfg = fs.RunConfig.from_dict(base_config())
    a = fs.run(cfg, out_dir=tmp_path / "a").path.read_bytes()
    b = fs.run(cfg, out_dir=tmp_path / "b").path.read_bytes()
    assert a == b


def test_run_inline_system(tmp_path):
    phis = 2 * np.pi * np.arange(24) / 24
    inline = {
        "mesh": {"kind": "circle", "n": 24, "length": 6.283185307179586},
        "flow": {"potential": list(np.cos(2 * phis))},
        "epsilon": 0.2,
    }
    cfg = fs.RunConfig.from_dict({"tasks": ["spectrum", "witten"],
                                  "inline": inline})
    doc = fs.run(cfg, out_dir=tmp_path)
    res = json.loads(doc.path.read_text())["results"]
    assert res["witten"]["witten_index"] == 0
    assert res["witten"]["zero_modes_per_degree"] == [1, 1]


def test_run_morse_with_splitting_scan(tmp_path):
    cfg = fs.RunConfig.from_dict({
        "model": {"name": "langevin_double_well_circle",
                  "params": {"depth": 1.0, "epsilon": 0.4, "n": 64}},
        "tasks": ["spectrum", "morse"],
        "morse": {"splitting_epsilons": [0.4, 0.2, 0.1]},
    })
    doc = fs.run(cfg, out_dir=tmp_path)
    res = json.loads(doc.path.read_text())["results"]["morse"]
    assert res["poincare_hopf_sum"] == 0
    assert res["matches_witten_index"] is True
    assert res["n_critical_points"] == 4
    scan = res["splitting_scan"]
    assert scan["strictly_decreasing"] is True
    assert scan["convex_log_trend"] is True
    assert scan["n_minima"] == 2


def test_run_simulate_task(tmp_path):
    cfg = fs.RunConfig.from_dict({
        "model": {"name": "langevin_double_well_circle",
                  "params": {"depth": 1.0, "epsilon": 0.4, "n": 64}},
        "tasks": ["simulate"],
        "simulate": {"dt": 0.005, "steps": 2000, "n_paths": 300, "seed": 7,
                     "bins": 48},
    })
    doc = fs.run(cfg, out_dir=tmp_path)
    res = json.loads(doc.path.read_text())["results"]["simulate"]
    assert res["histogram"]["tv_distance_to_oracle"] < 0.05
    assert (tmp_path / "histogram.csv").exists()


def sweep_of(tmp_path, name, system, eps, tasks=("sweep",), **extra):
    cfg = fs.RunConfig.from_dict({**system, "tasks": list(tasks),
                                  "sweep": {"epsilons": eps}, **extra})
    return fs.run(cfg, out_dir=tmp_path / name).data["results"]


def test_inline_constant_sweep_equals_the_registered_model(tmp_path):
    eps = [0.4, 0.2, 0.1]
    registered = {"model": {"name": "constant_drive_circle",
                            "params": {"a": 1.0, "epsilon": 0.2, "n": 16}}}
    inline = {"inline": {"mesh": {"kind": "circle", "n": 16},
                         "flow": {"constant": 1.0}, "epsilon": 0.2}}
    want = sweep_of(tmp_path, "registered", registered, eps)["sweep"]
    assert len(want["rows"]) == 3
    assert sweep_of(tmp_path, "inline", inline, eps)["sweep"] == want


def test_inline_potential_sweep_equals_the_registered_model(tmp_path):
    # gradient samples carry one factor of eps, so each level resamples W
    eps = [0.4, 0.2, 0.1]
    registered = {"model": {"name": "langevin_double_well_circle",
                            "params": {"depth": 1.0, "epsilon": 0.2, "n": 48}}}
    phis = np.asarray(fs.build_circle_grid(48, 2 * np.pi).vertices).reshape(-1)
    inline = {"inline": {"mesh": {"kind": "circle", "n": 48},
                         "flow": {"potential": np.cos(2.0 * phis).tolist()},
                         "epsilon": 0.2}}
    tasks = ("witten", "morse", "sweep")
    morse = {"splitting_epsilons": eps}
    want = sweep_of(tmp_path, "registered", registered, eps, tasks, morse=morse)
    got = sweep_of(tmp_path, "inline", inline, eps, tasks, morse=morse)
    assert got["sweep"] == want["sweep"]
    assert got["morse"]["splitting_scan"] == want["morse"]["splitting_scan"]
    assert got["witten"] == want["witten"]


def test_fourier_run_scans_the_fd_levels(tmp_path):
    eps = [0.4, 0.2, 0.1]
    scans = [fs.run(double_well_config(["morse"], backend=backend,
                                       morse={"splitting_epsilons": eps}),
                    out_dir=tmp_path / backend).data["results"]["morse"]["splitting_scan"]
             for backend in ("fd", "fourier")]
    assert scans[1] == scans[0]
    assert scans[0]["strictly_decreasing"] is True


def test_run_morse_scan_on_inline_potential(tmp_path):
    # the inline model's levels come from rebuild_at, which resamples W per level
    phis = 2 * np.pi * np.arange(64) / 64
    cfg = fs.RunConfig.from_dict({
        "inline": {"mesh": {"kind": "circle", "n": 64},
                   "flow": {"potential": list(np.cos(2 * phis))},
                   "epsilon": 0.2},
        "tasks": ["morse"],
        "morse": {"splitting_epsilons": [0.4, 0.2, 0.1]},
    })
    doc = fs.run(cfg, out_dir=tmp_path)
    scan = json.loads(doc.path.read_text())["results"]["morse"]["splitting_scan"]
    # mpmath on the same blocks: 0.00820073342152696..., 0.0041003667107635...
    assert scan["splittings"] == [0.0164014668431, 8.20073342153e-03, 4.10036671076e-03]


# ----------------------------------------------------------------------
# work shared between the tasks of one run
# ----------------------------------------------------------------------

@pytest.fixture
def work(monkeypatch):
    """Counts two-sided solves and records every solved (operator, degree) and assembly."""
    import scipy.linalg

    import flowspec.morse
    import flowspec.reporting
    import flowspec.spectral

    calls = {"eig": 0, "solved": [], "ops": []}
    eig = scipy.linalg.eig
    solve = flowspec.spectral._block_eigenvalues
    assemble = flowspec.reporting.assemble_hamiltonian

    def counted_eig(*args, **kwargs):
        calls["eig"] += 1
        return eig(*args, **kwargs)

    def counted_solve(op, k):
        calls["solved"].append((op, k))
        return solve(op, k)

    def counted_assemble(*args, **kwargs):
        calls["ops"].append(assemble(*args, **kwargs))
        return calls["ops"][-1]

    monkeypatch.setattr(scipy.linalg, "eig", counted_eig)
    for module in (flowspec.reporting, flowspec.morse):
        monkeypatch.setattr(module, "_block_eigenvalues", counted_solve)
        monkeypatch.setattr(module, "assemble_hamiltonian", counted_assemble)
    return calls


def solved_blocks(work):
    """(assembly index, degree) of every solve; each operator is one the run assembled."""
    index = {id(op): i for i, op in enumerate(work["ops"])}
    return [(index[id(op)], k) for op, k in work["solved"]]


def double_well_config(tasks, eps=0.2, **extra):
    return fs.RunConfig.from_dict(double_well_dict(tasks, eps, **extra))


def test_verdict_tasks_solve_each_level_once_without_vectors(tmp_path, work):
    cfg = double_well_config(["classify", "witten", "morse", "sweep"],
                             sweep={"epsilons": [0.4, 0.2, 0.1]},
                             morse={"splitting_epsilons": [0.4, 0.2, 0.1, 0.05]})
    fs.run(cfg, out_dir=tmp_path)
    assert work["eig"] == 0
    assert sorted(op.noise.epsilon for op in work["ops"]) == [0.05, 0.1, 0.2, 0.4]
    solved = solved_blocks(work)
    assert len(set(solved)) == len(solved)  # no block solved twice
    # both degrees at the three swept levels, degree 0 only at the scan's 0.05
    assert len(solved) == 7


def test_every_reported_index_is_one_count_at_tau0(tmp_path):
    # at tau0 = 1e-14 the degree-1 zero mode of the depth-2 well (roundoff-sized)
    # is no longer counted, so an index read at the default threshold would differ
    cfg = fs.RunConfig.from_dict({
        "model": {"name": "langevin_double_well_circle",
                  "params": {"depth": 2.0, "epsilon": 0.2, "n": 128}},
        "tasks": ["classify", "witten", "morse", "sweep"],
        "tolerances": {"tau0": 1e-14},
        "sweep": {"epsilons": [0.4, 0.2]},
    })
    res = fs.run(cfg, out_dir=tmp_path).data["results"]
    zero = res["witten"]["zero_modes_per_degree"]
    index = sum((-1) ** k * c for k, c in enumerate(zero))
    [base] = [row for row in res["sweep"]["rows"] if row["epsilon"] == 0.2]
    assert res["classify"]["witten_index"] == res["witten"]["witten_index"] == index
    assert base["witten_index"] == index
    morse = res["morse"]
    assert morse["matches_witten_index"] == (morse["poincare_hopf_sum"] == index)


def test_morse_alone_solves_no_degree_one_block(tmp_path, work):
    cfg = double_well_config(["morse"], eps=0.3,
                             morse={"splitting_epsilons": [0.4, 0.2, 0.1]})
    fs.run(cfg, out_dir=tmp_path)
    assert work["eig"] == 0
    assert len(work["ops"]) == 3 and len(work["solved"]) == 3
    assert sorted(solved_blocks(work)) == [(0, 0), (1, 0), (2, 0)]


@pytest.mark.parametrize("tasks", [["spectrum", "classify"], ["witten", "stationary"]])
def test_vector_tasks_solve_eigenvalues_only(tmp_path, work, tasks):
    doc = fs.run(double_well_config(tasks), out_dir=tmp_path)
    assert work["eig"] == 0
    [op] = work["ops"]
    # one solve per block of the base level, none solved twice
    assert sorted(solved_blocks(work)) == [(0, k) for k in range(len(op.blocks))]
    res = doc.data["results"]
    if "spectrum" in res:
        sizes = {str(k): b.shape[0] for k, b in enumerate(op.blocks)}
        assert res["spectrum"]["entries_per_degree"] == sizes
    else:
        assert res["stationary"]["oracle_max_rel_deviation"] < 1e-9


def stationary_density(out_dir):
    with open(out_dir / "stationary.csv", newline="", encoding="utf-8") as fh:
        return np.array([float(row["density"]) for row in csv.DictReader(fh)])


def test_stationary_density_in_the_metastable_regime(tmp_path):
    # the tunnelling gap (~1e-14) sits below roundoff of the spectral radius,
    # so a two-sided eig mixes the ground state with the tunnelling mode
    deep = fs.RunConfig.from_dict({
        "model": {"name": "langevin_double_well_circle",
                  "params": {"depth": 8.0, "epsilon": 0.05, "n": 128}},
        "tasks": ["stationary"],
    })
    res = fs.run(deep, out_dir=tmp_path / "deep").data["results"]["stationary"]
    assert res["oracle_max_rel_deviation"] <= 1e-5

    # asymmetric wells: compare with exp(-2W) averaged over cells
    mesh = fs.build_circle_grid(128, 2 * np.pi)
    phis = np.asarray(mesh.vertices).reshape(-1)
    w = 8 * np.cos(2 * phis) + np.cos(phis)
    inline = fs.RunConfig.from_dict({
        "inline": {"mesh": {"kind": "circle", "n": 128},
                   "flow": {"potential": w.tolist()}, "epsilon": 0.05},
        "tasks": ["stationary"],
    })
    fs.run(inline, out_dir=tmp_path / "inline")
    rho = np.exp(-2 * w)
    cells = 0.5 * (rho[mesh.edges[:, 0]] + rho[mesh.edges[:, 1]])
    cells /= np.sum(cells * mesh.primal_volumes[1])
    density = stationary_density(tmp_path / "inline")
    assert np.max(np.abs(density - cells)) <= 1e-5 * np.max(cells)


@pytest.mark.parametrize("a, backend", [(0.0, "fd"), (1.0, "fd"), (1.0, "fourier")])
def test_stationary_density_of_a_degenerate_kernel(tmp_path, a, backend):
    # without noise the zero eigenvalue is degenerate (the whole block vanishes
    # at a = 0; the grid's highest mode joins it at a = 1), yet the density is
    # uniform
    cfg = fs.RunConfig.from_dict({
        "model": {"name": "constant_drive_circle",
                  "params": {"a": a, "epsilon": 0.0, "n": 32}},
        "backend": backend,
        "tasks": ["stationary"],
    })
    res = fs.run(cfg, out_dir=tmp_path).data["results"]["stationary"]
    assert res["oracle_max_rel_deviation"] <= 1e-6


def test_each_level_is_packed_into_one_report(tmp_path, monkeypatch):
    # the base-level sweep row reuses the report that classify and witten read
    import flowspec.reporting

    packed = []
    pack = flowspec.reporting._spectrum_report

    def counted(values, dimension):
        packed.append(len(values[0]))
        return pack(values, dimension)

    monkeypatch.setattr(flowspec.reporting, "_spectrum_report", counted)
    cfg = double_well_config(["classify", "witten", "sweep"],
                             sweep={"epsilons": [0.4, 0.2, 0.1]})
    fs.run(cfg, out_dir=tmp_path)
    assert len(packed) == 3


def test_shared_levels_reproduce_the_standalone_scan(tmp_path):
    eps = [0.4, 0.2, 0.1]
    cfg = double_well_config(["classify", "morse", "sweep"],
                             sweep={"epsilons": eps},
                             morse={"splitting_epsilons": eps})
    scan = fs.run(cfg, out_dir=tmp_path).data["results"]["morse"]["splitting_scan"]
    model = fs.build_model("langevin_double_well_circle",
                           {"depth": 1.0, "epsilon": 0.2, "n": 48})
    alone = fs.instanton_splitting_scan(model, eps)
    assert scan["splittings"] == list(alone.splittings)
    assert scan["first_nontunneling"] == list(alone.first_nontunneling)


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------

def test_cli_models_listing(capsys):
    assert main(["models"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == list(fs.list_models())


def test_cli_run_and_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config()))
    code = main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                 "--backend", "fourier"])
    assert code == 0
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("report.json")
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["results"]["spectrum"]["oracle_satisfied"] is True


def test_cli_overrides_reach_the_report(tmp_path, capsys):
    # the report's config is what ran: overrides applied before validation
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(simulate={"seed": 1})))
    code = main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                 "--backend", "fourier", "--seed", "5"])
    assert code == 0
    config = json.loads((tmp_path / "out" / "report.json").read_text())["config"]
    assert config["backend"] == "fourier"
    assert config["simulate"]["seed"] == 5
    assert json.loads(cfg_path.read_text())["simulate"]["seed"] == 1


def test_cli_unallocatable_path_store_exits_3(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config(
        tasks=["simulate"], simulate={"steps": 10**15, "n_paths": 10**6})))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: cannot store")


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(base_config(tasks=["nonsense"])))
    assert main(["run", str(bad)]) == 2

    # numerical failure: a double zero has no signed count
    phis = 2 * np.pi * np.arange(32) / 32
    degen = tmp_path / "degen.json"
    degen.write_text(json.dumps({
        "inline": {
            "mesh": {"kind": "circle", "n": 32, "length": 2 * np.pi},
            "flow": {"vertex_samples": list(np.sin(phis) ** 2)},
            "epsilon": 0.2,
        },
        "tasks": ["morse"],
    }))
    assert main(["run", str(degen), "--out", str(tmp_path / "o2")]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("cfg", [
    base_config(backend="spectral"),
    {"inline": {"mesh": {"kind": "circle", "n": 16, "length": -1},
                "flow": {"constant": 1.0}, "epsilon": 0.2},
     "tasks": ["witten"]},
    {"inline": {"mesh": {"kind": "circle", "n": 16},
                "flow": {"vertex_samples": [1.0, 2.0]}, "epsilon": 0.2},
     "tasks": ["witten"]},
    base_config(tolerances={"tau0": "abc"}),
    base_config(tasks=["simulate"], simulate={"steps": "abc"}),
    {"model": {"name": "constant_drive_circle", "params": [1]}, "tasks": ["witten"]},
    {"inline": [1, 2], "tasks": ["witten"]},
    base_config(tasks=["simulate"], simulate=[1]),
    base_config(tasks=["morse"], morse={"splitting_epsilons": 5}),
    {"inline": {"mesh": {"kind": "circle", "n": 16},
                "flow": {"constant": []}, "epsilon": 0.2},
     "tasks": ["witten"]},
    base_config(tasks=["sweep"], sweep=[0.1]),
    base_config(tasks=["morse"], morse=[1]),
    base_config(tasks=["simulate"], simulate={"steps": 10, "n_paths": 2, "seed": -1}),
    {"model": {"name": [1]}, "tasks": ["witten"]},
    base_config(tasks=["simulate"], simulate={"autocorrelation": True, "fit_window": 5}),
    base_config(tasks=["simulate"], simulate={"autocorrelation": True, "fit_window": [1]}),
    base_config(tasks=["simulate"],
                simulate={"autocorrelation": True, "fit_window": ["a", "b"]}),
    base_config(tasks=["simulate"],
                simulate={"autocorrelation": True, "fit_window": [0.5, 0.1]}),
    {"model": {"name": "constant_drive_circle",
               "params": {"a": "x", "epsilon": 0.2, "n": 16}}, "tasks": ["witten"]},
    base_config(out_dir=5),
    {"inline": {"mesh": {"kind": "circle", "n": 16, "length": float("nan")},
                "flow": {"constant": 1.0}, "epsilon": 0.2},
     "tasks": ["witten"]},
    {"inline": {"mesh": {"kind": "circle", "n": 16, "length": float("inf")},
                "flow": {"constant": 1.0}, "epsilon": 0.2},
     "tasks": ["witten"]},
    {"inline": {"mesh": {"kind": "torus", "nx": 4, "ny": 4, "lx": float("inf")},
                "flow": {"constant": [1.0, 0.5]}, "epsilon": 0.2},
     "tasks": ["witten"]},
    {"inline": {"mesh": {"kind": "circle", "n": float("inf")},
                "flow": {"constant": 1.0}, "epsilon": 0.2},
     "tasks": ["witten"]},
    {"model": {"name": "constant_drive_circle",
               "params": {"a": 10**400, "epsilon": 0.2, "n": 16}}, "tasks": ["witten"]},
    {"inline": {"mesh": {"kind": "circle", "n": 16},
                "flow": {"constant": 10**400}, "epsilon": 0.2},
     "tasks": ["witten"]},
    *(double_well_dict(["spectrum", "morse"], morse={"splitting_epsilons": levels})
      for levels in ([0.1, 0.2], [0.2], [0.2, 0.0], [0.2, float("nan")],
                     [float("inf"), 0.2])),
    base_config(tasks=["simulate"], simulate={"steps": 500, "n_paths": 32,
                                              "autocorrelation": "false"}),
    base_config(tasks=["simulate"], simulate={"steps": 500, "n_paths": 32,
                                              "autocorrelation": 1}),
    _inline_potential(0.0, ["spectrum", "classify", "witten"]),
    _inline_potential(0.2, ["spectrum", "sweep"], sweep={"epsilons": [0.4, 0.2, 0.0]}),
    double_well_dict(["spectrum", "sweep"], sweep={"epsilons": [0.4, 0.2, 0.0]}),
    # a key that nothing reads, in each nested object
    base_config(tasks=["simulate"], simulate={"steps": 500, "n_path": 50}),
    double_well_dict(["morse"], morse={"splitting_epsilon": [0.4, 0.2]}),
    base_config(tolerances={"tau_gama": 1e-3}),
    base_config(tasks=["sweep"], sweep={"epsilons": [0.4, 0.2], "levels": [0.1]}),
    {"model": {"name": "constant_drive_circle",
               "params": {"a": 1.0, "epsilon": 0.2, "n": 16}, "seed": 1},
     "tasks": ["witten"]},
    {"inline": {"mesh": {"kind": "circle", "n": 16}, "flow": {"constant": 1.0},
                "epsilon": 0.2, "noise": 0.1},
     "tasks": ["witten"]},
    {"inline": {"mesh": {"kind": "circle", "n": 16, "lenght": 3.0},
                "flow": {"constant": 1.0}, "epsilon": 0.2},
     "tasks": ["witten"]},
    {"inline": {"mesh": {"kind": "torus", "nx": 4, "ny": 4, "length": 3.0},
                "flow": {"constant": [1.0, 0.5]}, "epsilon": 0.2},
     "tasks": ["witten"]},
    {"inline": {"mesh": {"kind": "circle", "n": 32},
                "flow": {"constant": 1.0,
                         **_inline_potential(0.2, [])["inline"]["flow"]},
                "epsilon": 0.2},
     "tasks": ["witten"]},
    {"inline": {"mesh": {"kind": "circle", "n": 16},
                "flow": {"constant": 1.0, "drift": 2.0}, "epsilon": 0.2},
     "tasks": ["witten"]},
    base_config(tasks=["classify", "classify"]),
    # booleans and numeric strings are not numbers
    base_config(tolerances={"tau_gamma": True}),
    base_config(tasks=["sweep"], sweep={"epsilons": [True, 0.2]}),
    base_config(tasks=["simulate"], simulate={"dt": "0.004", "steps": 500, "n_paths": 32}),
    {"model": {"name": "constant_drive_circle",
               "params": {"a": 1.0, "epsilon": True, "n": 16}}, "tasks": ["witten"]},
    {"model": {"name": "constant_drive_circle",
               "params": {"a": "1.0", "epsilon": 0.2, "n": 16}}, "tasks": ["witten"]},
    # a falsy non-object is not an empty section
    base_config(tolerances=False),
    base_config(sweep=[]),
    base_config(simulate=0),
    base_config(morse=""),
], ids=["backend", "negative-length", "sample-shape", "tau0-type",
        "simulate-steps-type", "params-type", "inline-type", "simulate-type",
        "splitting-epsilons-type", "constant-empty", "sweep-type", "morse-type",
        "negative-seed", "model-name-type", "fit-window-scalar", "fit-window-length",
        "fit-window-type", "fit-window-order", "param-value", "out-dir-type",
        "nan-length", "inf-length", "torus-inf-length", "inf-size",
        "param-beyond-float", "constant-beyond-float", "morse-ascending",
        "morse-single", "morse-zero", "morse-nan", "morse-inf",
        "autocorrelation-string", "autocorrelation-int", "potential-zero-noise",
        "potential-sweep-zero", "double-well-sweep-zero",
        "simulate-unknown-key", "morse-unknown-key", "tolerances-unknown-key",
        "sweep-unknown-key", "model-unknown-key", "inline-unknown-key",
        "inline-mesh-unknown-key", "torus-mesh-unknown-key", "inline-flow-two-kinds",
        "inline-flow-unknown-key", "duplicate-task", "tau-gamma-bool",
        "sweep-level-bool", "simulate-dt-string", "param-bool", "param-string",
        "tolerances-false", "sweep-empty-list", "simulate-zero", "morse-empty-string"])
def test_cli_malformed_config_exits_2(tmp_path, capsys, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    # refused before any task wrote a file
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("cfg", [
    {"model": {"name": "constant_drive_circle",
               "params": {"a": 1.0, "epsilon": True, "n": 16}}, "tasks": ["witten"]},
    {"inline": {"mesh": {"kind": "circle", "n": 16},
                "flow": {"constant": [1.0, 0.5]}, "epsilon": 0.2}, "tasks": ["witten"]},
    # the splitting scan needs a potential flow with two minima
    {"model": {"name": "tilted_langevin_circle",
               "params": {"depth": 1.0, "tilt": 0.3, "epsilon": 0.2, "n": 64}},
     "tasks": ["morse"], "morse": {"splitting_epsilons": [0.4, 0.2]}},
    {"inline": {"mesh": {"kind": "circle", "n": 32},
                "flow": {"potential": np.cos(np.arange(32) * (2 * np.pi / 32)).tolist()},
                "epsilon": 0.2},
     "tasks": ["morse"], "morse": {"splitting_epsilons": [0.4, 0.2]}},
], ids=["param-bool", "inline-constant-shape", "morse-scan-not-potential",
        "morse-scan-single-well"])
def test_cli_refused_model_leaves_no_output_directory(tmp_path, capsys, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def _inline_circle(n):
    return {"inline": {"mesh": {"kind": "circle", "n": n},
                       "flow": {"constant": 1.0}, "epsilon": 0.2},
            "tasks": ["witten"]}


@pytest.mark.parametrize("cfg, field", [
    (_inline_circle(16.7), "inline mesh.n"),
    (_inline_circle(16.0), "inline mesh.n"),
    (_inline_circle("16"), "inline mesh.n"),
    (_inline_circle(True), "inline mesh.n"),
    ({"inline": {"mesh": {"kind": "torus", "nx": 4.5, "ny": 4},
                 "flow": {"constant": [1.0, 0.5]}, "epsilon": 0.2},
      "tasks": ["witten"]}, "inline mesh.nx"),
    (base_config(tasks=["simulate"], simulate={"steps": 10.5, "n_paths": 2}), "simulate.steps"),
    (base_config(tasks=["simulate"], simulate={"steps": 10, "n_paths": True}), "simulate.n_paths"),
    (base_config(tasks=["simulate"], simulate={"steps": 10, "n_paths": 2, "bins": "64"}),
     "simulate.bins"),
    (base_config(tasks=["simulate"], simulate={"steps": 10, "n_paths": 2, "store_every": 1.0}),
     "simulate.store_every"),
    (base_config(tasks=["simulate"], simulate={"steps": 10, "n_paths": 2, "seed": 1.5}),
     "simulate.seed"),
], ids=["inline-n-fraction", "inline-n-float", "inline-n-string", "inline-n-bool",
        "inline-nx-fraction", "steps-fraction", "n-paths-bool", "bins-string",
        "store-every-float", "seed-fraction"])
def test_cli_non_integer_count_exits_2(tmp_path, capsys, cfg, field):
    # counts and sizes follow the model-parameter rule: nothing is truncated
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field} must be an integer")


@pytest.mark.parametrize("cfg", [
    {"model": {"name": "torus_shear_model",
               "params": {"ax": 0.7, "ay": 0.4, "epsilon": 0.3, "n": 10**8}},
     "tasks": ["witten"]},
    {"model": {"name": "constant_drive_circle",
               "params": {"a": 1.0, "epsilon": 0.2, "n": 10**16}}, "tasks": ["witten"]},
    {"inline": {"mesh": {"kind": "circle", "n": 10**16},
                "flow": {"constant": 1.0}, "epsilon": 0.2},
     "tasks": ["witten"]},
], ids=["torus-model", "circle-model", "inline-circle"])
def test_cli_unallocatable_grid_exits_3(tmp_path, capsys, cfg):
    # every size here needs more bytes than any user address space holds
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: cannot allocate")


def test_cli_negative_seed_override_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config(
        tasks=["simulate"], simulate={"steps": 10, "n_paths": 2, "seed": 1})))
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--seed", "-3"]) == 2
    assert "seed >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("cfg", [
    {"model": {"name": "constant_drive_circle",
               "params": {"a": 1.0, "epsilon": 0.2, "n": 100_000}}, "tasks": ["classify"]},
    {"model": {"name": "torus_shear_model",
               "params": {"ax": 0.7, "ay": 0.4, "epsilon": 0.3, "n": 64}}, "tasks": ["witten"]},
], ids=["circle-classify", "torus-witten"])
def test_cli_capacity_refused_before_assembly(tmp_path, capsys, monkeypatch, cfg):
    import flowspec.reporting

    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled a level beyond the dense-solver cap")

    monkeypatch.setattr(flowspec.reporting, "assemble_hamiltonian", no_assembly)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "dense-solver cap" in capsys.readouterr().err


def test_cli_off_surface_with_an_unreferenced_vertex_exits_2(tmp_path, capsys, monkeypatch):
    import flowspec.reporting

    # no config names a mesh file, so the run's model build reads the OFF file
    off = tmp_path / "tetra.off"
    off.write_text("OFF\n5 4 6\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n5 5 5\n"
                   "3 0 2 1\n3 0 1 3\n3 1 2 3\n3 0 3 2\n")
    monkeypatch.setattr(flowspec.reporting, "_resolve_model", lambda config: fs.load_off(off))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config()))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "vertex 4 lies on no face" in capsys.readouterr().err


def test_cli_morse_scan_capacity_refused_before_assembly(tmp_path, capsys, monkeypatch):
    # the scan needs degree 0 only, but the run's levels are refused at the same cap
    import flowspec.morse
    import flowspec.reporting

    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled a level beyond the dense-solver cap")

    for module in (flowspec.reporting, flowspec.morse):
        monkeypatch.setattr(module, "assemble_hamiltonian", no_assembly)
    cfg = {"model": {"name": "langevin_double_well_circle",
                     "params": {"depth": 1.0, "epsilon": 0.2, "n": 100_000}},
           "tasks": ["morse"], "morse": {"splitting_epsilons": [0.4, 0.2]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "dense-solver cap" in capsys.readouterr().err


def test_cli_non_finite_block_exits_3(tmp_path, capsys):
    # the first level overflows in assembly; its self-check must refuse it
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config(tasks=["sweep"],
                                           sweep={"epsilons": [1e308, 1.0]})))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert "degree-0 block at noise level 1e+308" in err


def test_report_schema_covers_emitted_document(tmp_path):
    # docs/report_schema.json names every top-level and per-task field we emit
    import pathlib

    schema = json.loads(
        (pathlib.Path(__file__).parent.parent / "docs" / "report_schema.json")
        .read_text()
    )
    assert schema["type"] == "object"
    cfg = fs.RunConfig.from_dict(base_config(
        tasks=["spectrum", "classify", "witten", "stationary", "morse"],
    ))
    doc = fs.run(cfg, out_dir=tmp_path)
    data = json.loads(doc.path.read_text())
    assert set(data) == set(schema["properties"])
    task_props = schema["properties"]["results"]["properties"]
    for task, result in data["results"].items():
        assert set(result) <= set(task_props[task]["properties"]), task

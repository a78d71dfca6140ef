"""Property test of the config boundary: malformed input is a FlowspecError.

``RunConfig.from_dict`` followed by model construction must refuse every
JSON-like config with a library error (CLI exit 2 or 3), never with a raw
Python or numpy exception (exit 1 and a traceback).

Grid sizes are drawn either small enough to build at once or too large for
any user address space (more than 2**47 cells of 8 bytes), so no example
can allocate a real amount of memory.

The ``simulate`` phase runs through ``flowspec.cli.main``, which must exit
0, 2 or 3.  Its sizes follow the same rule, counted in what a run stores: a
path count, a bin count or a step count past 2**52 (a store past 2**47
states at any drawn ``store_every``), or small enough that a whole run takes
milliseconds.  ``store_every`` is small or 10**400, so that no drawn pair of
huge counts leaves a short store of a long run.
"""

import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from flowspec.cli import main  # noqa: E402
from flowspec.exceptions import FlowspecError  # noqa: E402
from flowspec.reporting import RunConfig, _resolve_model  # noqa: E402

NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
HUGE_INTS = st.sampled_from([10**400, -(10**400)])
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text("ab1.", max_size=3),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text("ab", max_size=2), st.integers(0, 2), max_size=2),
)
SIZES = st.one_of(
    st.integers(-3, 24),
    st.integers(2**47, 10**30),
    HUGE_INTS,
    NON_FINITE,
    st.floats(-3.0, 24.0),
    st.floats(2.0**47, 1e300),
    JUNK,
)
REALS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**6), 10**6),
    HUGE_INTS,
    NON_FINITE,
)
VALUES = st.one_of(REALS, JUNK)
LISTS = st.lists(st.one_of(REALS, st.lists(REALS, max_size=3)), max_size=12)


def model(name, *reals):
    """A config model entry with exactly the parameters ``name`` takes."""
    params = {key: REALS for key in reals}
    return st.fixed_dictionaries({"name": st.just(name),
                                  "params": st.fixed_dictionaries({**params, "n": SIZES})})


MODEL = st.one_of(
    model("constant_drive_circle", "a", "epsilon"),
    model("langevin_double_well_circle", "depth", "epsilon"),
    model("tilted_langevin_circle", "depth", "tilt", "epsilon"),
    model("torus_shear_model", "ax", "ay", "epsilon"),
    st.fixed_dictionaries({
        "name": st.one_of(st.just("nope"), JUNK),
        "params": st.one_of(st.dictionaries(st.text("an", max_size=2), VALUES, max_size=3),
                            JUNK),
    }),
)
MESH = st.one_of(
    st.fixed_dictionaries({"kind": st.just("circle"), "n": SIZES},
                          optional={"length": VALUES}),
    st.fixed_dictionaries({"kind": st.just("torus"), "nx": SIZES, "ny": SIZES},
                          optional={"lx": VALUES, "ly": VALUES}),
    st.fixed_dictionaries({"kind": st.one_of(st.just("sphere"), JUNK)},
                          optional={"n": SIZES, "length": VALUES}),
    JUNK,
)
FLOW = st.one_of(
    st.fixed_dictionaries({"constant": st.one_of(VALUES, LISTS)}),
    st.fixed_dictionaries({"potential": st.one_of(VALUES, LISTS)}),
    st.fixed_dictionaries({"vertex_samples": st.one_of(VALUES, LISTS)}),
    st.dictionaries(st.text("ab", max_size=2), VALUES, max_size=2),
    JUNK,
)
INLINE = st.one_of(
    st.fixed_dictionaries({"mesh": MESH, "flow": FLOW},
                          optional={"epsilon": VALUES}),
    JUNK,
)
TASKS = st.lists(st.sampled_from(["spectrum", "classify", "witten", "stationary", "morse"]),
                 min_size=1, max_size=3)
CONFIGS = st.one_of(
    st.fixed_dictionaries({"model": MODEL, "tasks": TASKS}),
    st.fixed_dictionaries({"inline": INLINE, "tasks": TASKS}),
)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(CONFIGS)
def test_config_boundary_raises_only_flowspec_errors(config):
    try:
        _resolve_model(RunConfig.from_dict(config))
    except FlowspecError:
        pass


def size(small):
    """A count drawn small in half the draws, else past 2**52."""
    return st.one_of(small, small, st.integers(2**52, 10**30), HUGE_INTS)


SIMULATE = st.fixed_dictionaries(
    {"steps": size(st.integers(-3, 2000)), "n_paths": size(st.integers(-3, 40))},
    optional={
        "dt": st.one_of(st.floats(1e-4, 0.05), REALS),
        "seed": st.one_of(st.integers(-3, 10**6), HUGE_INTS),
        "store_every": st.one_of(st.integers(-3, 24), HUGE_INTS),
        "bins": size(st.integers(-3, 100)),
        "autocorrelation": st.booleans(),
        "fit_window": st.one_of(st.tuples(st.floats(0, 10), st.floats(10, 1e308)).map(list),
                                st.lists(REALS, max_size=3)),
    },
)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(SIMULATE)
def test_simulate_phase_exits_0_2_or_3(simulate):
    config = {"model": {"name": "langevin_double_well_circle",
                        "params": {"depth": 1.0, "epsilon": 0.2, "n": 32}},
              "tasks": ["simulate"], "simulate": simulate}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["run", str(path), "--out", str(Path(tmp) / "out")]) in (0, 2, 3)

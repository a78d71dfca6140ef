"""Property test of the config boundary: malformed input is a FlowspecError.

``RunConfig.from_dict`` followed by model construction must refuse every
JSON-like config with a library error (CLI exit 2 or 3), never with a raw
Python or numpy exception (exit 1 and a traceback).

Grid sizes are drawn either small enough to build at once or too large for
any user address space (more than 2**47 cells of 8 bytes), so no example
can allocate a real amount of memory.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

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

"""Every config that loads either runs or fails as one line.

One Hypothesis test sets one to three fields of `TINY` (top-level fields or
fields of its sections) to edge values and asserts exactly one outcome: the
load raises a ConfigError, or the run raises a UavFlError, or every record
and summary float is finite. Any other exception fails the test.
"""

import dataclasses
import math

from hypothesis import given, settings, strategies as st

from test_harness import TINY
from uavfl.config import _NESTED, ExperimentConfig, config_from_dict
from uavfl.errors import ConfigError, UavFlError
from uavfl.harness import run_experiment

FLOATS = [0.0, -1.0, 5e-324, 1e-300, 1e300, 1.7e308, -1e300]

# the largest value an int field takes: enough to reach every check, small
# enough that a run of TINY with up to three of them stays small
INT_CAPS = {
    "n_uavs": 16, "cohort_size": 8, "subregion_count": 8, "per_subregion_quota": 8,
    "n_rounds_max": 8, "workers": 64, "image_side": 32, "samples_min": 200,
    "samples_max": 200, "walk_window": 64, "offset_span": 500, "hidden_dim": 256,
    "epochs_per_round": 4,
}
LARGE_INT = 2**62  # for a field that does not size the run


def _fields(cls, section=None):
    """(section, name, kind) of every int and float field of `cls`."""
    for f in dataclasses.fields(cls):
        if f.type in ("int", "float"):
            yield section, f.name, f.type


FIELDS = [*_fields(ExperimentConfig)] + [
    field for section, cls in _NESTED.items() for field in _fields(cls, section)]


def _values(name, kind):
    if kind == "int":
        return st.sampled_from([0, -1, 1, INT_CAPS.get(name, LARGE_INT)])
    return st.sampled_from(FLOATS)


@st.composite
def edge_configs(draw):
    data = {**TINY, "strategy": draw(st.sampled_from(["deeps", "random"]))}
    for section, name, kind in draw(st.lists(st.sampled_from(FIELDS), min_size=1,
                                             max_size=3, unique=True)):
        value = draw(_values(name, kind))
        if section is None:
            data[name] = value
        else:
            data[section] = {**data.get(section, {}), name: value}
    return data


def check_runs_or_fails_cleanly(data):
    try:
        config = config_from_dict(data)
    except ConfigError:
        return
    try:
        summary = run_experiment(config)
    except UavFlError:
        return
    floats = [value for record in summary.records for value in vars(record).values()
              if isinstance(value, float)]
    floats += [value for value in vars(summary).values() if isinstance(value, float)]
    assert all(math.isfinite(value) for value in floats), (data, summary)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=edge_configs())
def test_every_loading_config_runs_or_fails_as_a_uavfl_error(data):
    check_runs_or_fails_cleanly(data)

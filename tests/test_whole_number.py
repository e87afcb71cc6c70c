"""One whole-number rule for every integer input.

Each input refuses a bool, a non-integral number, a string and a value
below its minimum, with its own error class and the one message form
``<what> must be a whole number >= <minimum>, got <value!r>``; it takes
4.0 and ``np.int64(4)`` as 4.
"""

import numpy as np
import pytest

from triring import (
    CompositeSpace,
    ConfigError,
    DensityMatrix,
    InvalidDimensionError,
    InvalidEmbeddingError,
    ModeSpace,
    annihilation,
    basis_index,
    correlation_g_n,
    embed,
    identity,
    mean_occupation,
    partial_trace,
    photon_distribution,
    poisson_reference,
)
from triring import cli
from triring.cli import Axis, SweepSpec, baseline_params, load_point_config


def diagonal_state(populations, dims=None):
    space = CompositeSpace(dims or (len(populations),))
    return DensityMatrix(space, np.diag(populations).astype(complex))


# five modes, so that mode index 4 exists; only the last one has levels
FIVE_MODES = diagonal_state([0.75, 0.25], dims=(1, 1, 1, 1, 2))
# more than four levels, so that g^(4) is defined
SIX_LEVELS = diagonal_state([0.4, 0.2, 0.15, 0.1, 0.1, 0.05])


def _spec(point_cap):
    return SweepSpec(axes=(Axis("delta", -1, 1, 2),), fixed=baseline_params(), point_cap=point_cap)


# (id, call with the input, error class, what, minimum); each call returns
# what it made of the input, so that 4.0 and np.int64(4) can be compared with 4
CASES = [
    ("CompositeSpace", lambda v: CompositeSpace((v, 2)).mode_dims,
     InvalidDimensionError, "mode_dims[0]", 1),
    ("ModeSpace", lambda v: ModeSpace(v).dim, InvalidDimensionError, "mode dim", 2),
    ("identity", lambda v: identity(v).data.tobytes(), InvalidDimensionError, "identity dim", 1),
    ("embed", lambda v: embed(annihilation(2), v, CompositeSpace((2,) * 5)).data.tobytes(),
     InvalidEmbeddingError, "mode index", 0),
    ("basis_index", lambda v: basis_index(CompositeSpace((5, 2)), (v, 0)),
     InvalidEmbeddingError, "occupation of mode 0", 0),
    ("partial_trace", lambda v: partial_trace(FIVE_MODES, v).data.tobytes(),
     ValueError, "mode index", 0),
    ("photon_distribution", lambda v: photon_distribution(FIVE_MODES, v).tobytes(),
     ValueError, "mode index", 0),
    ("mean_occupation", lambda v: mean_occupation(FIVE_MODES, v), ValueError, "mode index", 0),
    ("correlation_g_n", lambda v: correlation_g_n(SIX_LEVELS, 0, v),
     ValueError, "correlation order", 1),
    ("poisson_reference", lambda v: poisson_reference(0.5, v).tobytes(), ValueError, "m_max", 0),
    ("dims", lambda v: load_point_config({"params": {}, "dims": v})[1], ConfigError, "dims", 1),
    ("dims_entry", lambda v: load_point_config({"params": {}, "dims": [3, v, 3]})[1],
     ConfigError, "dims[1]", 1),
    ("Axis.count", lambda v: Axis("delta", -1, 1, v).count, ConfigError, "axis 'delta' count", 2),
    ("point_cap", lambda v: _spec(v).point_cap, ConfigError, "point_cap", 1),
    # the worker count alone: a sweep with jobs=4 would start four processes
    ("jobs", lambda v: cli._worker_count(v), ConfigError, "jobs", 1),
]
IDS = [case[0] for case in CASES]


@pytest.mark.parametrize("name, call, error, what, minimum", CASES, ids=IDS)
@pytest.mark.parametrize(
    "value", [True, 2.5, "2", "below"], ids=["bool", "fraction", "string", "below_minimum"]
)
def test_refused_with_one_message(name, call, error, what, minimum, value):
    if value == "below":
        value = minimum - 1
    with pytest.raises(error) as exc:
        call(value)
    assert str(exc.value) == f"{what} must be a whole number >= {minimum}, got {value!r}"


@pytest.mark.parametrize("name, call, error, what, minimum", CASES, ids=IDS)
@pytest.mark.parametrize(
    "value", [4.0, np.int64(4), np.float32(4.0)], ids=["float", "numpy_int", "numpy_float32"]
)
def test_integral_values_taken_as_int(name, call, error, what, minimum, value):
    # repr tells a stored 4.0 from 4
    assert repr(call(value)) == repr(call(4))

"""Property tests of the config boundary and the JSON writer.

Fuzzed documents through ``harness.config_from_dict`` may be rejected only
by ConfigurationError; every accepted one round-trips through
``config_to_dict``. ``serialize.dumps`` round-trips finite floats bit for
bit and refuses NaN and infinities.
"""
import json
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pilothop import harness, serialize
from pilothop.errors import ConfigurationError

# Small integers only: SystemConfig compares K with tau_p**T, and huge
# exponents are slow to evaluate.
SMALL_INTS = st.integers(min_value=-5, max_value=2000)
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
SCALARS = st.none() | st.booleans() | SMALL_INTS | ANY_FLOAT | st.text(max_size=6)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=8,
)

POSITIVE = st.floats(min_value=1e-4, max_value=10.0)
# values a real config would hold
SYSTEM_VALUES = {
    "K": st.integers(1, 400),
    "L": st.integers(1, 6),
    "M": st.integers(1, 64),
    "tau_p": st.integers(1, 12),
    "T": st.integers(1, 12),
    "snr_db": st.floats(-20.0, 30.0),
    "sigma2": POSITIVE,
    "p": POSITIVE,
    "eta": st.floats(2.0, 5.0),
    "sigma_e2": POSITIVE,
    "E": st.integers(0, 60),
    "r": POSITIVE,
    "grid_side": st.integers(1, 20),
}


def documents(junk):
    """Config documents whose values are plausible, or with junk=True also
    arbitrary JSON; semantic checks may still reject the plausible ones."""

    def value(strategy):
        return strategy | JSON_VALUES if junk else strategy

    system = st.fixed_dictionaries(
        {}, optional={k: value(v) for k, v in SYSTEM_VALUES.items()})
    method = st.fixed_dictionaries({"kind": value(st.sampled_from(["nnls", "tv", "glasso"]))},
                                   optional={"lambda": value(st.floats(0.0, 1.0))})
    grid = st.lists(st.floats(0.0, 2.0), min_size=1, max_size=5).map(sorted)
    top = {
        "system": value(system),
        "methods": value(st.lists(value(method), min_size=1, max_size=3)),
        "thresholds": value(grid),
        "lambdas": value(grid),
        "n_trials": value(st.integers(0, 500)),
        "master_seed": value(st.integers(-1, 2**40)),
        "antennas_mode": value(st.sampled_from(["monte_carlo", "asymptotic"])),
        "output_dir": value(st.text(max_size=8)),
        "solver_rel_tol": value(st.floats(1e-12, 1e-2)),
        "solver_max_iters": value(st.integers(0, 10**6)),
    }
    if junk:
        top["extra"] = JSON_VALUES
    return st.fixed_dictionaries({"schema_version": value(st.just(1))}, optional=top)


DOCUMENTS = documents(junk=False) | documents(junk=True) | JSON_VALUES
# derandomized and without an example database, so every run draws the
# same examples
FIXED = dict(deadline=None, derandomize=True, database=None)
FUZZ = settings(max_examples=250, suppress_health_check=[HealthCheck.too_slow], **FIXED)


def parse(doc):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # tall-matrix warnings of small systems
        return harness.config_from_dict(doc)


@FUZZ
@given(DOCUMENTS)
def test_config_boundary_raises_only_configuration_error(doc):
    try:
        parse(doc)
    except ConfigurationError:
        pass


@FUZZ
@given(DOCUMENTS)
def test_accepted_config_round_trips(doc):
    try:
        config = parse(doc)
    except ConfigurationError:
        return
    back = harness.config_to_dict(config)
    assert parse(back) == config
    assert parse(json.loads(serialize.dumps(back))) == config


def bits(x) -> bytes:
    return struct.pack("<d", float(x))


@settings(max_examples=1000, **FIXED)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_dumps_round_trips_finite_floats_bit_exactly(x):
    assert bits(json.loads(serialize.dumps(x))) == bits(x)
    doc = json.loads(serialize.dumps({"v": [x, np.float64(x)], "a": np.array([x, x])}))
    assert all(bits(v) == bits(x) for v in doc["v"] + doc["a"])


def test_dumps_keeps_the_sign_of_zero():
    assert math.copysign(1.0, json.loads(serialize.dumps(-0.0))) == -1.0


@settings(max_examples=300, **FIXED)
@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(0, 6),
    st.sampled_from([list, np.array, lambda v: {"k": {"j": v}}]),
)
def test_dumps_rejects_any_non_finite_entry(finite, bad, at, wrap):
    values = finite[:at] + [bad] + finite[at:]
    with pytest.raises(ValueError, match="non-finite"):
        serialize.dumps(wrap(values))

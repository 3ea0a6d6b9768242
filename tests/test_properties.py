"""Property tests of the config boundary, the CLI and the JSON writer.

Fuzzed documents through ``harness.config_from_dict`` may be rejected only
by ConfigurationError; every accepted one round-trips through
``config_to_dict``. Perturbed small campaigns through ``cli.main`` exit 0
or 2 and write a manifest exactly when they exit 0. ``serialize.dumps``
round-trips finite floats bit for bit and refuses NaN and infinities;
``harness.write_csv`` round-trips floats, NaN and infinities included,
ints and strings.
"""
import csv
import json
import math
import os
import struct
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pilothop import cli, harness, serialize
from pilothop.errors import ConfigurationError

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


# A 6x6-grid campaign of two trials, about 0.35 s; the solver cap bounds
# the solves that a perturbed tolerance or lambda would make slow.
TINY = {
    "schema_version": 1,
    "system": {"K": 36, "grid_side": 6, "M": 8, "tau_p": 4, "T": 4,
               "sigma_e2": 0.01, "r": 0.2, "E": 2},
    "thresholds": [0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9, 1.05, 1.2],
    "n_trials": 2,
    "solver_max_iters": 2000,
}
# perturbations that keep an accepted campaign small
CLI_SYSTEM = {
    "K": st.integers(-1, 40),
    "L": st.integers(0, 6),
    "M": st.integers(0, 16),
    "tau_p": st.integers(0, 12),
    "T": st.integers(0, 12) | st.just(10**6),
    "snr_db": ANY_FLOAT,
    "sigma2": ANY_FLOAT,
    "p": ANY_FLOAT,
    "eta": ANY_FLOAT,
    "sigma_e2": ANY_FLOAT,
    "E": st.integers(-1, 60),
    "r": ANY_FLOAT,
    "grid_side": st.integers(0, 8),
}
CLI_TOP = {
    "methods": st.lists(st.fixed_dictionaries(
        {"kind": st.sampled_from(["nnls", "tv", "glasso"])},
        optional={"lambda": ANY_FLOAT}), max_size=3),
    "thresholds": st.lists(ANY_FLOAT, max_size=5),
    "lambdas": st.lists(ANY_FLOAT, max_size=3),
    "n_trials": st.integers(-1, 2),
    "master_seed": st.integers(-1, 2**64),
    "antennas_mode": st.sampled_from(["monte_carlo", "asymptotic", "both"]),
    "solver_rel_tol": ANY_FLOAT,
    "solver_max_iters": st.integers(-1, 2000),
}


def overrides(fields):
    """Up to two of the given fields, each set to a plausible value or junk."""
    item = st.sampled_from(sorted(fields)).flatmap(
        lambda k: st.tuples(st.just(k), fields[k] | JSON_VALUES))
    return st.lists(item, max_size=2).map(dict)


@settings(max_examples=250, suppress_health_check=[HealthCheck.too_slow], **FIXED)
@given(overrides(CLI_TOP), overrides(CLI_SYSTEM))
def test_cli_exits_0_or_2_and_writes_a_manifest_only_on_success(top, system):
    doc = {**TINY, **top, "system": {**TINY["system"], **system}}
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as f:
            json.dump(doc, f)  # NaN and Infinity reach the parser as bare tokens
        out = os.path.join(tmp, "out")
        rc = cli.main(["roc", "--config", path, "--out", out])
        assert rc in (0, 2)
        assert os.path.exists(os.path.join(out, "manifest.json")) == (rc == 0)


def bits(x) -> bytes:
    return struct.pack("<d", float(x))


@settings(max_examples=1000, **FIXED)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_dumps_round_trips_finite_floats_bit_exactly(x):
    assert bits(json.loads(serialize.dumps(x))) == bits(x)
    doc = json.loads(serialize.dumps({"v": [x, np.float64(x)], "a": np.array([x, x])}))
    assert all(bits(v) == bits(x) for v in doc["v"] + doc["a"])


# UTF-8 cannot encode a lone surrogate; the CSVs hold no free text
CSV_TEXT = st.characters(blacklist_categories=("Cs",))
CSV_CELLS = (ANY_FLOAT | ANY_FLOAT.map(np.float64) | st.integers()
             | st.text(CSV_TEXT, max_size=6))


@settings(max_examples=300, **FIXED)
@given(st.lists(st.lists(CSV_CELLS, max_size=5), max_size=5))
@example([["a\rb", 1.5]])
def test_write_csv_round_trips_cells_bit_exactly(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        if any(isinstance(cell, str) and "\r" in cell for row in rows for cell in row):
            # written unquoted under the "\n" line terminator, a carriage
            # return would read back as a row break
            with pytest.raises(ValueError, match="carriage return"):
                harness.write_csv(path, ("h",), rows)
            assert not os.path.exists(path)
            return
        harness.write_csv(path, ("h",), rows)
        with open(path, newline="") as f:
            back = list(csv.reader(f))
    assert back[0] == ["h"] and len(back) == len(rows) + 1
    for row, cells in zip(rows, back[1:]):
        assert len(cells) == len(row)
        for value, cell in zip(row, cells):
            if isinstance(value, float):
                x = float(cell)
                assert bits(x) == bits(value) or (math.isnan(x) and math.isnan(value))
            else:
                assert cell == str(value)


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

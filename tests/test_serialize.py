"""Tests for schedule serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.scheduler.schedule import Schedule
from repro.scheduler.serialize import (
    load_schedule_json,
    save_schedule_json,
    schedule_from_dict,
    schedule_to_dict,
)


@pytest.fixture
def sample():
    return Schedule(
        np.array([0, 1, 0, 2]), np.array([0, 0, 1, 2]), 3
    )


def _equal(a: Schedule, b: Schedule) -> bool:
    return (
        a.n_cores == b.n_cores
        and np.array_equal(a.cores, b.cores)
        and np.array_equal(a.supersteps, b.supersteps)
    )


def test_dict_roundtrip(sample):
    assert _equal(schedule_from_dict(schedule_to_dict(sample)), sample)


def test_json_roundtrip(tmp_path, sample):
    path = tmp_path / "s.json"
    save_schedule_json(sample, path)
    assert _equal(load_schedule_json(path), sample)


@pytest.mark.parametrize("content", [
    pytest.param(None, id="torn"),
    pytest.param(b"", id="empty"),
    pytest.param(b"\xff\xfe not ascii", id="binary"),
])
def test_invalid_json_is_a_configuration_error(tmp_path, sample, content):
    path = tmp_path / "s.json"
    if content is None:
        save_schedule_json(sample, path)
        content = path.read_bytes()[:-10]  # a write cut short
    path.write_bytes(content)
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        load_schedule_json(path)


def test_digest_detects_corruption(sample):
    data = schedule_to_dict(sample)
    data["cores"][0] = 1  # tamper
    with pytest.raises(ConfigurationError):
        schedule_from_dict(data)


def test_version_checked(sample):
    data = schedule_to_dict(sample)
    data["format_version"] = 99
    with pytest.raises(ConfigurationError):
        schedule_from_dict(data)


def test_length_mismatch_rejected(sample):
    data = schedule_to_dict(sample)
    data["n"] = 7
    with pytest.raises(ConfigurationError):
        schedule_from_dict(data)


def test_malformed_payload():
    with pytest.raises(ConfigurationError):
        schedule_from_dict({"format_version": 1})


def test_json_is_plain_text(tmp_path, sample):
    path = tmp_path / "s.json"
    save_schedule_json(sample, path)
    data = json.loads(path.read_text())
    assert data["n"] == 4
    assert isinstance(data["cores"], list)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 40), st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_property_roundtrip(n, n_cores, seed):
    rng = np.random.default_rng(seed)
    s = Schedule(
        rng.integers(0, n_cores, size=n),
        rng.integers(0, 6, size=n),
        n_cores,
    )
    assert _equal(schedule_from_dict(schedule_to_dict(s)), s)
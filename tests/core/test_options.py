"""Unit tests of :meth:`VerifierOptions.from_request`, the strict reader the
HTTP submit path uses, against the lenient :meth:`VerifierOptions.from_dict`
that spec files and stored rows keep."""

import pytest

from repro.core.options import VerifierOptions


@pytest.mark.parametrize(
    "data",
    [
        {"max_states": "abc"},
        {"max_states": True},
        {"max_states": 0},
        {"max_states": -5},
        {"max_states": 10.0},
        {"max_repeated_states": 2.5},
        {"max_repeated_states": None},
        {"state_pruning": "no"},
        {"check_repeated_reachability": 1},
        {"repeated_violation_fast_path": None},
        {"timeout_seconds": 0},
        {"timeout_seconds": -1.5},
        {"timeout_seconds": "30"},
        {"timeout_seconds": False},
        {"timeout_seconds": float("nan")},
    ],
    ids=repr,
)
def test_ill_typed_values_are_rejected(data):
    (key,) = data
    with pytest.raises(ValueError, match=key):
        VerifierOptions.from_request(data)


@pytest.mark.parametrize(
    "data",
    [
        {},
        {"max_states": 1},
        {"max_repeated_states": 5_000},
        {"state_pruning": False, "monotone_pruning": True},
        {"timeout_seconds": None},
        {"timeout_seconds": 12.5},
        {"timeout_seconds": 30},
    ],
    ids=repr,
)
def test_well_typed_values_read_as_from_dict(data):
    assert VerifierOptions.from_request(data) == VerifierOptions.from_dict(data)


def test_default_dict_round_trips_through_the_strict_reader():
    options = VerifierOptions(max_states=77, timeout_seconds=3.0, state_pruning=False)
    assert VerifierOptions.from_request(options.as_dict()) == options


def test_unknown_keys_are_rejected_by_name():
    with pytest.raises(ValueError, match="dataflow_pruning, static_pruning"):
        VerifierOptions.from_request({"static_pruning": False, "dataflow_pruning": True})


def test_spec_file_reader_stays_lenient():
    # Spec files and stored job rows are read with from_dict, which neither
    # checks types nor rejects keys it does not know.
    data = {"max_states": 9, "static_pruning": "off"}
    assert VerifierOptions.from_dict(data) == VerifierOptions(max_states=9)

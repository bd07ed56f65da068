"""Unit tests of :meth:`VerifierOptions.from_request`, the strict reader the
HTTP submit path uses, against the lenient :meth:`VerifierOptions.from_dict`
that spec files and stored rows keep, and of the harness-only
:class:`Ablation`."""

from dataclasses import asdict, fields

import pytest

from repro.core.options import Ablation, VerifierOptions

#: The switch keys the options took before the budgets/ablation split; the
#: API now rejects every one of them, whatever its value.
FORMER_SWITCHES = [
    {"state_pruning": False},
    {"data_structure_support": False},
    {"static_analysis": False},
    {"monotone_pruning": False},
    {"check_repeated_reachability": False},
    {"use_artifact_relations": False},
    {"repeated_violation_fast_path": False},
    {"state_pruning": True},
    {"check_repeated_reachability": 1},
    {"repeated_violation_fast_path": None},
]


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


@pytest.mark.parametrize("data", FORMER_SWITCHES, ids=repr)
def test_former_switch_keys_are_unknown(data):
    (key,) = data
    with pytest.raises(ValueError, match=f"unknown verifier option.*{key}"):
        VerifierOptions.from_request(data)


@pytest.mark.parametrize(
    "data",
    [
        {},
        {"max_states": 1},
        {"max_repeated_states": 5_000},
        {"timeout_seconds": None},
        {"timeout_seconds": 12.5},
        {"timeout_seconds": 30},
    ],
    ids=repr,
)
def test_well_typed_values_read_as_from_dict(data):
    assert VerifierOptions.from_request(data) == VerifierOptions.from_dict(data)


def test_default_dict_round_trips_through_the_strict_reader():
    # The strict reader takes the budgets; the canonical dict, which also
    # carries the pinned v1 switch keys, goes back through from_dict.
    options = VerifierOptions(max_states=77, timeout_seconds=3.0)
    assert VerifierOptions.from_request(asdict(options)) == options
    assert VerifierOptions.from_dict(options.as_dict()) == options


def test_unknown_keys_are_rejected_by_name():
    with pytest.raises(ValueError, match="dataflow_pruning, static_pruning"):
        VerifierOptions.from_request({"static_pruning": False, "dataflow_pruning": True})


def test_spec_file_reader_stays_lenient():
    # Spec files and stored job rows are read with from_dict, which neither
    # checks types nor rejects keys it does not know.
    data = {"max_states": 9, "static_pruning": "off", "check_repeated_reachability": False}
    assert VerifierOptions.from_dict(data) == VerifierOptions(max_states=9)


def test_options_are_exactly_the_three_budgets():
    assert [f.name for f in fields(VerifierOptions)] == [
        "max_states",
        "timeout_seconds",
        "max_repeated_states",
    ]
    assert VerifierOptions.known_keys() == {"max_states", "timeout_seconds", "max_repeated_states"}


def test_canonical_dict_pins_the_v1_switch_keys():
    """The canonical dict feeds every job fingerprint: the v1 switch keys
    stay, fixed at true, in the v1 order, whatever the budgets."""
    assert list(VerifierOptions(max_states=5, timeout_seconds=1.5).as_dict().items()) == [
        ("state_pruning", True),
        ("data_structure_support", True),
        ("static_analysis", True),
        ("monotone_pruning", True),
        ("check_repeated_reachability", True),
        ("use_artifact_relations", True),
        ("max_states", 5),
        ("timeout_seconds", 1.5),
        ("max_repeated_states", 100_000),
    ]


def test_ablation_defaults_to_every_optimisation_on():
    assert all(getattr(Ablation(), f.name) is True for f in fields(Ablation))
    assert {f.name for f in fields(Ablation)} == {
        "state_pruning",
        "data_structure_support",
        "static_analysis",
        "use_artifact_relations",
        "check_repeated_reachability",
    }

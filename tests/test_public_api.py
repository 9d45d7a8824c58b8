"""parakahler.__all__ lists what the package exports, each name once."""

import pytest

import parakahler

# helpers that no command reached, deleted from the package
REMOVED = ["wedge", "metric_apply", "j_apply", "insertion_operator",
           "liouville_field", "Proposition1Report", "proposition1_report",
           "vertical_derivative"]


def test_every_listed_name_resolves():
    missing = [name for name in parakahler.__all__ if not hasattr(parakahler, name)]
    assert missing == []


def test_no_listed_name_repeats():
    assert len(set(parakahler.__all__)) == len(parakahler.__all__)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_not_importable(name):
    assert name not in parakahler.__all__
    with pytest.raises(ImportError):
        exec(f"from parakahler import {name}", {})

"""Value types: immutable, checked at construction and on every copy, and
cheap to import."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pifam import (
    CapacityError,
    Design,
    Event,
    Family,
    HadamardMatrix,
    JohnsonGraphOracle,
    ParameterError,
    SampleSpace,
    hadamard_matrix,
    probability,
)

SRC = Path(__file__).resolve().parents[1] / "src"

# (value, a field, a value of that field the constructor refuses, its error)
CHECKED = [
    (SampleSpace(4), "n", 64, CapacityError),
    (Event(SampleSpace(4), 3), "mask", 16, ParameterError),
    (Design(3, 1, 0, (1, 2, 4)), "k", 5, ParameterError),
    (hadamard_matrix(4), "rows", ((1, 1), (1, 1)), ParameterError),
    (JohnsonGraphOracle(5, 2, 1), "s", 2, ParameterError),
]
IDS = [type(value).__name__ for value, *_ in CHECKED]


def test_importing_the_cli_loads_no_dataclasses_inspect_or_fractions():
    code = ("import sys, pifam.cli; "
            "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal'} & sys.modules.keys()))")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("value, name, bad, error", CHECKED, ids=IDS)
def test_a_checked_value_cannot_be_changed(value, name, bad, error):
    for target in name, "extra":
        with pytest.raises(AttributeError):
            setattr(value, target, bad)
    with pytest.raises(AttributeError):
        delattr(value, name)


@pytest.mark.parametrize("value, name, bad, error", CHECKED, ids=IDS)
def test_every_copy_of_a_checked_value_runs_its_checks(value, name, bad, error):
    assert value._replace() == value
    assert copy.copy(value) == value == pickle.loads(pickle.dumps(value))
    with pytest.raises(error):
        value._replace(**{name: bad})
    fields = value._asdict()
    fields[name] = bad
    with pytest.raises(error):
        type(value)._make(fields.values())
    if sys.version_info >= (3, 13):
        with pytest.raises(error):
            copy.replace(value, **{name: bad})


def test_hadamard_plus_is_derived_on_every_copy():
    h = hadamard_matrix(8)
    flipped = h._replace(rows=h.rows[::-1])
    assert flipped.plus == h.plus[::-1]
    with pytest.raises(ValueError, match="unexpected field"):
        h._replace(plus=(0,) * 8)


def test_a_family_cannot_be_changed_and_copies_run_its_checks():
    fam = Family.from_masks(4, [1, 2, 15])
    for name in "space", "events", "extra":
        with pytest.raises(AttributeError):
            setattr(fam, name, ())
    for name in "space", "events":
        with pytest.raises(AttributeError):
            delattr(fam, name)
    assert copy.copy(fam).events == pickle.loads(pickle.dumps(fam)).events == fam.events
    with pytest.raises(ParameterError, match="duplicate event"):
        Family(fam.space, fam.events + fam.events[:1])
    with pytest.raises(ParameterError, match="share its sample space"):
        Family(SampleSpace(5), fam.events)


def test_family_equality_and_hashing_are_those_of_a_set_of_events():
    fam = Family.from_masks(4, [1, 2, 15])
    same = Family.from_masks(4, [15, 1, 2])
    assert fam == same and hash(fam) == hash(same) and len({fam, same}) == 1
    assert fam.events != same.events
    assert fam != Family.from_masks(4, [1, 2]) and fam != Family.from_masks(5, [1, 2, 15])
    assert fam != fam.events


def test_probability_is_a_reduced_fraction():
    p = probability(SampleSpace(6).event([1, 2, 3, 4]))
    assert type(p) is Fraction and (p.numerator, p.denominator) == (2, 3)

"""Shared fixtures: the standard small dg-categories used across the suite.

All fixture categories are immutable after construction, so session scope is
safe: no test can perturb another through them.
"""

import dataclasses
import random

import pytest

from dgnerve.fixtures import (
    exterior_category,
    mc_twisted_category,
    random_complex_category,
    standard_fixtures,
    three_term_category,
    two_term_category,
)


@pytest.fixture(scope="session")
def exterior():
    return exterior_category()


@pytest.fixture(scope="session")
def two_term():
    return two_term_category()


@pytest.fixture(scope="session")
def three_term():
    return three_term_category()


@pytest.fixture(scope="session")
def doubled_unit(three_term):
    """``three_term`` with the unit of C0 doubled: it breaks the unit laws,
    so every horn sweep over it fails."""
    units = tuple(c * 2 for c in three_term.identities["C0"])
    return dataclasses.replace(three_term, identities={"C0": units})


@pytest.fixture(scope="session")
def twisted():
    return mc_twisted_category()


@pytest.fixture(scope="session")
def complexes():
    return random_complex_category(11)


@pytest.fixture(scope="session")
def all_fixtures():
    return standard_fixtures()


@pytest.fixture
def rng():
    return random.Random(0xD06)

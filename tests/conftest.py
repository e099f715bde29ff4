from pathlib import Path

import pytest

from floersplice import gf2
from floersplice.cfk import parse_complex

DATA = Path(__file__).parent / "data"


def load(name):
    return parse_complex((DATA / f"{name}.cfk").read_text(), name=name)


def gen_index(module, gen_id):
    """Position of the generator with this id in a type A or type D module."""
    return [g.id for g in module.generators].index(gen_id)


def compose(outer, inner):
    """Columns of the dense product outer . inner (inner applied first)."""
    return [gf2.apply_columns(outer, c) for c in inner]


@pytest.fixture(scope="session")
def trefoil():
    return load("trefoil")


@pytest.fixture(scope="session")
def mirror_trefoil():
    return load("mirror_trefoil")


@pytest.fixture(scope="session")
def t25():
    return load("t25")


@pytest.fixture(scope="session")
def figure_eight():
    return load("figure_eight")


@pytest.fixture(scope="session")
def unknot_complex():
    return load("unknot")

from pathlib import Path

import pytest

from floersplice import gf2
from floersplice.algebra import BASIS
from floersplice.cfk import parse_complex

DATA = Path(__file__).parent / "data"


def load(name):
    return parse_complex((DATA / f"{name}.cfk").read_text(), name=name)


def gen_index(module, gen_id):
    """Position of the generator with this id in a type D module (a type A module's source)."""
    return [g.id for g in module.generators].index(gen_id)


def compose(outer, inner):
    """Columns of the dense product outer . inner (inner applied first)."""
    return [gf2.apply_columns(outer, c) for c in inner]


def element(*basis):
    """An algebra element from basis names (F2: repeats cancel)."""
    out = set()
    for b in basis:
        if b not in BASIS:
            raise ValueError(f"unknown basis element {b!r}")
        out ^= {b}
    return frozenset(out)


ZERO = frozenset()
ONE = element("i0", "i1")


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

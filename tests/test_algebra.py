"""Torus algebra arithmetic, gradings, and the swap-and-merge word rule."""

import random
from itertools import product

from hypothesis import given
from hypothesis import strategies as st

from floersplice.algebra import (
    BASIS,
    EMPTY,
    GRADING,
    LABELS,
    ONE,
    PRODUCT_TABLE,
    REEB_IDEMPOTENTS,
    REEB_LABELS,
    ZERO,
    element,
    is_merged,
    label_product,
    merge_word,
    multiply,
    swap_and_merge,
    swap_label,
)


def test_nonzero_reeb_products_are_exactly_four():
    nonzero = {
        (x, y): PRODUCT_TABLE[x, y]
        for x in REEB_LABELS
        for y in REEB_LABELS
        if PRODUCT_TABLE[x, y] is not None
    }
    assert nonzero == {
        ("1", "2"): "12",
        ("2", "3"): "23",
        ("1", "23"): "123",
        ("12", "3"): "123",
    }


def test_idempotent_table():
    assert multiply(element("i0"), element("i0")) == element("i0")
    assert multiply(element("i1"), element("i1")) == element("i1")
    assert multiply(element("i0"), element("i1")) == ZERO
    for r in REEB_LABELS:
        left, right = REEB_IDEMPOTENTS[r]
        assert multiply(element(f"i{left}"), element(r)) == element(r)
        assert multiply(element(r), element(f"i{right}")) == element(r)
        assert multiply(element(f"i{1 - left}"), element(r)) == ZERO
        assert multiply(element(r), element(f"i{1 - right}")) == ZERO


def test_associativity_all_512_triples():
    for x, y, z in product(BASIS, repeat=3):
        a, b, c = element(x), element(y), element(z)
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_unit_element():
    for x in BASIS:
        assert multiply(ONE, element(x)) == element(x)
        assert multiply(element(x), ONE) == element(x)


def test_spec_products():
    assert multiply(element("1"), element("2")) == element("12")
    assert multiply(element("2"), element("1")) == ZERO
    assert multiply(ONE, element("23")) == element("23")


def test_gradings():
    assert GRADING["1"] == 0
    assert GRADING["3"] == 0
    assert GRADING["123"] == 1
    assert GRADING["12"] == 1
    assert GRADING["23"] == 1
    assert GRADING["2"] == 1
    assert GRADING[EMPTY] == 0


def test_grading_multiplicative_on_nonzero_products():
    for x in REEB_LABELS:
        for y in REEB_LABELS:
            p = PRODUCT_TABLE[x, y]
            if p is not None:
                assert GRADING[p] == (GRADING[x] + GRADING[y]) % 2


def test_swap_label():
    assert swap_label("123") == ("3", "2", "1")
    assert swap_label("12") == ("3", "2")
    assert swap_label("23") == ("2", "1")
    assert swap_label("1") == ("3",)
    assert swap_label("2") == ("2",)
    assert swap_label("3") == ("1",)
    assert swap_label(EMPTY) == ()


def test_swapped_single_label_never_merges():
    for lab in REEB_LABELS:
        letters = swap_label(lab)
        assert merge_word(letters) == letters


def test_swap_and_merge_worked_chains():
    # length-one horizontal chain
    assert swap_and_merge(("3", "2")) == ("12",)
    # horizontal end into the framing chain end
    assert swap_and_merge(("2", "12")) == ("23", "2")
    # framing chain of length one followed by a horizontal end
    assert swap_and_merge(("123", "2")) == ("3", "2", "12")
    # empty labels contribute nothing
    assert swap_and_merge(("3", EMPTY, "2")) == ("12",)
    assert swap_and_merge((EMPTY,)) == ()
    assert swap_and_merge(("3", "2", "12")) == ("123", "2")
    assert swap_and_merge(("23", "2", "12")) == ("2", "123", "2")


@given(st.lists(st.sampled_from(REEB_LABELS + (EMPTY,)), max_size=6), st.integers())
def test_merge_confluence(labels, seed):
    """Merging in random order gives the canonical merged word."""
    letters = []
    for lab in labels:
        letters.extend(swap_label(lab))
    canonical = merge_word(tuple(letters))
    rng = random.Random(seed)
    word = list(letters)
    while True:
        sites = [
            i
            for i in range(len(word) - 1)
            if PRODUCT_TABLE[word[i], word[i + 1]] is not None
        ]
        if not sites:
            break
        i = rng.choice(sites)
        word[i : i + 2] = [PRODUCT_TABLE[word[i], word[i + 1]]]
    assert tuple(word) == canonical
    assert is_merged(canonical)


def test_label_factorizations():
    """The pairs (J, K) of labels, the empty one included, with rho_J rho_K = rho_label."""

    def factorizations(label):
        return {(j, k) for j, k in product(LABELS, repeat=2) if label_product(j, k) == label}

    assert factorizations("123") == {
        (EMPTY, "123"),
        ("123", EMPTY),
        ("1", "23"),
        ("12", "3"),
    }
    assert factorizations("12") == {(EMPTY, "12"), ("12", EMPTY), ("1", "2")}
    assert factorizations(EMPTY) == {(EMPTY, EMPTY)}

"""Exact arithmetic in the torus algebra over F2.

The algebra is spanned by eight basis elements: two idempotents i0, i1
and six Reeb elements rho_1, rho_2, rho_3, rho_12, rho_23, rho_123.
Basis elements are encoded as the strings "i0", "i1", "1", "2", "3",
"12", "23", "123"; general elements are frozensets of basis strings
(F2 coefficients, so addition is symmetric difference).

Reeb labels double as the coefficient-map labels of type D modules,
where the empty string "" stands for the identity 1 = i0 + i1.
"""

from __future__ import annotations

from itertools import product

IDEMPOTENTS = ("i0", "i1")
REEB_LABELS = ("1", "2", "3", "12", "23", "123")
BASIS = IDEMPOTENTS + REEB_LABELS

# rho_emptyset: the identity element, used as a coefficient-map label.
EMPTY = ""
LABELS = (EMPTY,) + REEB_LABELS

# (left, right) idempotent index of each Reeb element: i_left * rho = rho * i_right = rho.
REEB_IDEMPOTENTS = {
    "1": (0, 1),
    "2": (1, 0),
    "3": (0, 1),
    "12": (0, 0),
    "23": (1, 1),
    "123": (0, 1),
}

# Z2 grading of the algebra generators; idempotents (and hence rho_emptyset)
# are graded 0 so that the identity acts trivially in grading formulas.
GRADING = {"1": 0, "3": 0, "2": 1, "12": 1, "23": 1, "123": 1, "i0": 0, "i1": 0, EMPTY: 0}


def _basis_product(x: str, y: str) -> str | None:
    """Product of two basis elements; None means zero."""
    if x in IDEMPOTENTS and y in IDEMPOTENTS:
        return x if x == y else None
    if x in IDEMPOTENTS:
        left = REEB_IDEMPOTENTS[y][0]
        return y if x == IDEMPOTENTS[left] else None
    if y in IDEMPOTENTS:
        right = REEB_IDEMPOTENTS[x][1]
        return x if y == IDEMPOTENTS[right] else None
    # Two Reeb elements multiply iff their index strings concatenate to an
    # increasing run of consecutive integers (so exactly 1*2, 2*3, 1*23, 12*3).
    cat = x + y
    return cat if cat in REEB_LABELS else None


PRODUCT_TABLE = {(x, y): _basis_product(x, y) for x, y in product(BASIS, BASIS)}


def multiply(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    """Bilinear extension of the basis product table."""
    out: set[str] = set()
    for x in a:
        for y in b:
            p = PRODUCT_TABLE[x, y]
            if p is not None:
                out ^= {p}
    return frozenset(out)


_SWAP_DIGIT = {"1": "3", "2": "2", "3": "1"}


def swap_label(label: str) -> tuple[str, ...]:
    """Expand a coefficient-map label into boundary-reversed single letters.

    Each digit is swapped 1<->3 (2 is fixed), order preserved; the empty
    label expands to nothing.  E.g. '123' -> ('3','2','1'), '12' -> ('3','2').
    """
    return tuple(_SWAP_DIGIT[d] for d in label)


def merge_word(letters: tuple[str, ...], prefix: tuple[str, ...] = ()) -> tuple[str, ...]:
    """Push letters onto a merged prefix, multiplying at the top of the stack.

    The result is merged: no adjacent pair has nonzero algebra product.
    The rewriting is confluent, so this stack order reaches the same normal
    form as any other merge order.
    """
    word = list(prefix)
    for x in letters:
        while word and PRODUCT_TABLE[word[-1], x] is not None:
            x = PRODUCT_TABLE[word.pop(), x]
        word.append(x)
    return tuple(word)


def swap_and_merge(
    labels: tuple[str, ...] | list[str], prefix: tuple[str, ...] = ()
) -> tuple[str, ...]:
    """Turn a chain of coefficient-map labels into a merged Reeb word.

    Labels are taken in chain order (first map applied first).  Each label
    is digit-expanded and boundary-swapped, and the expansions are merged
    onto `prefix`, the merged word of the chain so far.
    """
    letters: list[str] = []
    for lab in labels:
        letters.extend(swap_label(lab))
    return merge_word(tuple(letters), prefix)


def is_merged(word: tuple[str, ...]) -> bool:
    return all(
        PRODUCT_TABLE[word[i], word[i + 1]] is None for i in range(len(word) - 1)
    )


def word_grading(word: tuple[str, ...]) -> int:
    """Sum of letter gradings mod 2."""
    return sum(GRADING[w] for w in word) % 2


def label_product(j: str, k: str) -> str | None:
    """rho_j rho_k of two labels, the empty label acting as the identity; None means zero."""
    if j == EMPTY:
        return k
    if k == EMPTY:
        return j
    return PRODUCT_TABLE[j, k]

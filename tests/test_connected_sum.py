"""End-to-end behavior on tensor-product (connected-sum) complexes.

The complex of a connected sum is the tensor product over F2[U] of the two
complexes, with Alexander gradings adding.  These are the smallest inputs
whose simplified bases are level-compatible but not simply a relabeling,
so they exercise the change-of-basis handling that the staircase and
figure-eight fixtures cannot see.
"""

import pytest

from floersplice import gf2
from floersplice.cfk import make_complex, simplify, staircase, validate_complex
from floersplice.splice import splice_report
from floersplice.typed import bk_prime, build_cfd, durability, find_durable_pairs, validate_type_d
from test_type_d import _durability_reference, _words


def tensor_product(c1, c2, name):
    gens, alex, entries = [], {}, []
    for g in c1.generators:
        for h in c2.generators:
            gh = f"{g}.{h}"
            gens.append(gh)
            alex[gh] = c1.alexander[g] + c2.alexander[h]
    for s, d, k in c1.differential:
        for h in c2.generators:
            entries.append((f"{s}.{h}", f"{d}.{h}", k))
    for s, d, k in c2.differential:
        for g in c1.generators:
            entries.append((f"{g}.{s}", f"{g}.{d}", k))
    return make_complex(name, gens, alex, entries)


@pytest.fixture(scope="module")
def fig8_trefoil(figure_eight, trefoil):
    return tensor_product(figure_eight, trefoil, "fig8#trefoil")


@pytest.fixture(scope="module")
def double_trefoil(trefoil):
    return tensor_product(trefoil, trefoil, "trefoil#trefoil")


def test_tensor_complexes_validate(fig8_trefoil, double_trefoil):
    for c in (fig8_trefoil, double_trefoil):
        assert validate_complex(c).ok


def test_invariants_add(fig8_trefoil, double_trefoil, figure_eight, trefoil):
    s = simplify(fig8_trefoil)
    assert s.tau == simplify(figure_eight).tau + simplify(trefoil).tau == 1
    assert s.genus == 2
    s2 = simplify(double_trefoil)
    assert s2.tau == 2
    assert s2.genus == 2


def test_sums_are_not_lspace_form(fig8_trefoil, double_trefoil):
    # a connected sum of nontrivial knots never has a staircase complex
    assert not simplify(fig8_trefoil).lspace_form
    assert not simplify(double_trefoil).lspace_form


def test_bk_prime_nontrivial(fig8_trefoil, double_trefoil):
    for c in (fig8_trefoil, double_trefoil):
        s = simplify(c)
        assert any(bk_prime(s, k) for k in range(-s.genus, s.genus + 1))


def test_cfd_structure_and_durable_pairs(fig8_trefoil, double_trefoil):
    for c in (fig8_trefoil, double_trefoil):
        s = simplify(c)
        for n in range(-2, 4):
            d = build_cfd(s, n)
            report = validate_type_d(d)
            assert report.ok, (c.name, n, report.problems)
            assert d.bounded
            pairs = find_durable_pairs(d, s)
            assert any(strength == "durable" for *_, strength in pairs), (c.name, n)


def test_durability_matches_reference(fig8_trefoil, double_trefoil):
    """durability agrees with the brute-force reference on the durable
    candidates of the sums (every B'_k span element, xi vector and eta row)
    and on each one's nonzero D_123 image."""
    checked = combinations = durable = 0
    for c in (fig8_trefoil, double_trefoil):
        s = simplify(c)
        candidates = [1 << p for p in range(len(s.xi))] + s.b_matrix
        for k in range(-s.genus, s.genus + 1):
            basis = bk_prime(s, k)
            candidates += [gf2.apply_columns(basis, mask) for mask in range(1, 1 << len(basis))]
        for n in range(-4, 5):
            d = build_cfd(s, n)
            words = _words(d)
            images = [gf2.apply_columns(d.matrix("123"), x) for x in candidates]
            for v in dict.fromkeys(candidates + [y for y in images if y]):
                expected = _durability_reference(d, words, v)
                assert durability(d, v) == expected, (c.name, n, d.format_vector(v))
                checked += 1
                combinations += v & (v - 1) != 0
                durable += expected["durable"]
    assert (checked, combinations, durable) == (378, 63, 82)


def test_splices_never_lspaces(fig8_trefoil, double_trefoil, trefoil):
    for c in (fig8_trefoil, double_trefoil):
        for n1, n2 in [(0, 0), (2, 3), (4, 2), (-1, 5)]:
            r = splice_report(c, n1, trefoil, n2)
            assert r.verdict is False
            assert r.prediction is False
            assert r.agree
            assert r.computed.euler_abs == abs(n1 * n2 - 1)
            assert r.durable_fast_path is True

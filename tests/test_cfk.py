"""Knot complex parsing, staircases, validation, and simplified bases."""

import copy
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floersplice import gf2
from floersplice.cfk import (
    FormatError,
    KnotComplex,
    knot_invariants,
    make_complex,
    parse_complex,
    serialize_complex,
    simplify,
    staircase,
    unknot,
    validate_complex,
)


def gen_of(c, vec):
    """Name of the single generator in a one-bit vector."""
    bits = gf2.bits(vec)
    assert len(bits) == 1
    return c.generators[bits[0]]


class TestParsing:
    def test_unknot(self):
        c = parse_complex("gen e 0\n")
        assert c.generators == ("e",)
        assert c.differential == ()

    def test_staircase_line(self):
        c = parse_complex("staircase + 1 1\n")
        assert len(c.generators) == 3
        assert sorted(c.alexander.values()) == [-1, 0, 1]

    def test_figure_eight_file(self, figure_eight):
        assert len(figure_eight.generators) == 5
        report = validate_complex(figure_eight)
        assert report.ok

    def test_round_trip(self, figure_eight, trefoil):
        for c in (figure_eight, trefoil, unknot()):
            back = parse_complex(serialize_complex(c), name=c.name)
            assert set(back.generators) == set(c.generators)
            assert back.alexander == c.alexander
            assert set(back.differential) == set(c.differential)

    def test_complex_is_read_only(self, figure_eight, trefoil):
        """A complex keeps its own read-only copy of the gradings."""
        alex = {"x": 0}
        c = make_complex("c", ["x"], alex, [])
        alex["x"] = 5
        assert c.alexander == {"x": 0}
        with pytest.raises(TypeError):
            c.alexander["x"] = 1
        for c in (figure_eight, trefoil, unknot()):
            assert parse_complex(serialize_complex(c), name=c.name) == c

    def test_complex_pickles_and_copies(self, figure_eight, t25):
        """Complexes can be sent to worker processes and copied."""
        made = make_complex("c", ["x", "y", "z"], {"x": 1, "y": 0, "z": -1}, [("x", "y", 1)])
        for c in (made, staircase([1, 2, 2, 1], "-"), unknot(), figure_eight, t25):
            for back in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c), copy.copy(c)):
                assert back == c and back is not c
                with pytest.raises(TypeError):
                    back.alexander[c.generators[0]] = 9

    def test_syntax_error_carries_line(self):
        with pytest.raises(FormatError) as e:
            parse_complex("gen a 0\nd a = U^0 a\n")
        assert e.value.line == 2

    def test_unknown_generator(self):
        with pytest.raises(FormatError):
            parse_complex("gen a 0\nd a = b\n")

    @pytest.mark.parametrize("name", ["b+c", "b=c", "=", "+"])
    def test_generator_name_refused_at_its_gen_line(self, name):
        """A name a `d` line could not carry is refused where it is declared."""
        with pytest.raises(FormatError, match=f"generator {re.escape(repr(name))}: a name is") as e:
            parse_complex(f"gen a 0\ngen {name} 1\nd {name} = a\n")
        assert e.value.line == 2

    def test_negative_power_rejected(self):
        with pytest.raises(FormatError):
            parse_complex("gen a 1\ngen b 0\nd a = U^-1 b\n")

    def test_bad_directive(self):
        with pytest.raises(FormatError):
            parse_complex("generator a 0\n")

    @pytest.mark.parametrize("text", [
        "staircase + 1 1\ngen x 0\n",
        "gen x 0\nstaircase + 1 1\n",
        "staircase + 1 1\nstaircase + 1 1\n",
        "# comment\n\nstaircase + 1 1\nd x0 = x1\n",
    ])
    def test_staircase_line_stands_alone(self, text):
        """A staircase line combined with any other directive is refused at the later line."""
        with pytest.raises(FormatError, match="cannot be combined") as e:
            parse_complex(text)
        assert e.value.line == len(text.splitlines())


class TestStaircase:
    def test_trefoil_shape(self):
        c = staircase([1, 1], "+")
        assert [c.alexander[g] for g in c.generators] == [-1, 0, 1]
        assert set(c.differential) == {("x1", "x0", 0), ("x1", "x2", 1)}

    def test_negative_trefoil_shape(self):
        c = staircase([1, 1], "-")
        assert set(c.differential) == {("x0", "x1", 1), ("x2", "x1", 0)}

    def test_bad_steps(self):
        with pytest.raises(ValueError):
            staircase([1, 2], "+")  # not palindromic
        with pytest.raises(ValueError):
            staircase([1, 1, 1], "+")  # odd length
        with pytest.raises(ValueError):
            staircase([], "+")
        for steps in ([1.5, 1.5], ["1", "1"], [True, True], [0, 0]):
            with pytest.raises(ValueError, match="^steps must be positive integers$"):
                staircase(steps, "+")

    def test_all_constructions_validate(self):
        for steps in ([1, 1], [1, 1, 1, 1], [2, 2], [2, 1, 1, 2], [3, 1, 2, 2, 1, 3]):
            for sign in "+-":
                assert validate_complex(staircase(steps, sign)).ok


class TestValidation:
    def test_trefoil_passes(self, trefoil):
        assert validate_complex(trefoil).ok

    def test_unreduced_detected(self):
        c = make_complex("bad", ["x", "y"], {"x": 0, "y": 0}, [("x", "y", 0)])
        report = validate_complex(c)
        assert not report.checks["reduced"]

    def test_d_squared_detected(self):
        c = make_complex(
            "bad",
            ["x", "y", "z"],
            {"x": 2, "y": 1, "z": 0},
            [("x", "y", 0), ("y", "z", 0)],
        )
        assert not validate_complex(c).checks["d_squared_zero"]

    def test_asymmetric_gradings_warn(self):
        c = make_complex("odd", ["x"], {"x": 3}, [])
        report = validate_complex(c)
        assert report.warnings

    def test_generator_without_grading_refused(self):
        with pytest.raises(ValueError, match="generator 'b' has no int Alexander grading"):
            KnotComplex("x", ("a", "b", "c"), {"a": 0}, ())
        with pytest.raises(ValueError, match="generator 'a' has no int Alexander grading"):
            KnotComplex("z", ("a",), {"a": "0"}, ())
        # a bool is an int to Python, but would serialize as `gen a False`
        with pytest.raises(ValueError, match="generator 'a' has no int Alexander grading"):
            KnotComplex("z", ("a",), {"a": False}, ())

    @pytest.mark.parametrize("name", ["", "a b", "a\tb", "a#b", "b+c", "b=c", 7, None])
    def test_generator_name_outside_the_file_format_refused(self, name):
        """Every name a complex accepts is one its file text carries back unchanged."""
        with pytest.raises(ValueError, match=f"^generator {re.escape(repr(name))}: a name is a nonempty str"):
            make_complex("n", ["a", name], {"a": 0, name: 1}, [(name, "a", 0)])

    def test_alexander_key_that_is_not_a_generator_refused(self):
        """A grading the file text would drop is refused, so the round trip is equal."""
        with pytest.raises(ValueError, match="^Alexander grading for 'zz', which is not a generator$"):
            make_complex("x", ["e"], {"e": 0, "zz": 5}, [])
        with pytest.raises(ValueError, match="^Alexander grading for 7, which is not a generator$"):
            KnotComplex("x", ("a", "b"), {"a": 0, 7: 1, "b": 1}, ())
        c = make_complex("x", ["e"], {"e": 0}, [])
        assert parse_complex(serialize_complex(c), name="x") == c

    def test_non_int_u_power_refused(self):
        with pytest.raises(ValueError, match=r"U power '0' in entry \(b,a\) is not an int"):
            KnotComplex("y", ("a", "b"), {"a": 0, "b": 1}, (("b", "a", "0"),))
        with pytest.raises(ValueError, match=r"U power True in entry \(b,a\) is not an int"):
            KnotComplex("y", ("a", "b"), {"a": 0, "b": 1}, (("b", "a", True),))


class TestSimplify:
    def test_trefoil(self, trefoil):
        s = simplify(trefoil)
        assert s.tau == 1
        assert s.genus == 1
        assert [h for _, _, h in s.vertical_arrows] == [1]
        assert [l for _, _, l in s.horizontal_arrows] == [1]
        assert gen_of(trefoil, s.xi[0]) == "x2"
        assert gen_of(trefoil, s.eta[0]) == "x0"

    def test_unknot(self):
        s = simplify(unknot())
        assert s.tau == 0 and s.genus == 0
        assert not s.vertical_arrows and not s.horizontal_arrows

    def test_figure_eight(self, figure_eight):
        s = simplify(figure_eight)
        assert s.tau == 0
        assert gen_of(figure_eight, s.xi[0]) == "e"
        assert gen_of(figure_eight, s.eta[0]) == "e"
        # vertical pairs (a -> b) and (c -> d), both length 1
        assert [(gen_of(figure_eight, s.xi[i]), gen_of(figure_eight, s.xi[j]), h)
                for i, j, h in s.vertical_arrows] == [("a", "b", 1), ("c", "d", 1)]
        # horizontal pairs (c -> a) and (d -> b), both length 1
        assert [(gen_of(figure_eight, s.eta[i]), gen_of(figure_eight, s.eta[j]), l)
                for i, j, l in s.horizontal_arrows] == [("c", "a", 1), ("d", "b", 1)]

    def test_change_of_basis_inverse(self, trefoil, figure_eight, t25):
        for c in (trefoil, figure_eight, t25):
            s = simplify(c)
            n = len(s.xi)
            for p in range(n):
                expanded = 0
                for q in gf2.bits(s.a_matrix[p]):
                    expanded ^= s.b_matrix[q]
                assert expanded == 1 << p  # a . b = identity

    def test_simplified_shape(self, figure_eight):
        """xi_0 carries no vertical arrow and arrows pair all other indices."""
        s = simplify(figure_eight)
        paired = {i for pair in s.vertical_arrows for i in pair[:2]}
        assert paired == set(range(1, len(s.xi)))
        paired_h = {i for pair in s.horizontal_arrows for i in pair[:2]}
        assert paired_h == set(range(1, len(s.eta)))

    def test_rejects_rank_violating_complex(self):
        c = make_complex("two", ["x", "y"], {"x": 0, "y": 1}, [])
        with pytest.raises(ValueError) as e:
            simplify(c)
        assert str(e.value) == "two: vertical reduction left 2 unpaired generators (expected 1)"


class TestKnotInvariants:
    def test_trefoil(self, trefoil):
        inv = knot_invariants(simplify(trefoil))
        assert inv == {
            "tau": 1,
            "genus": 1,
            "lspace_form": True,
            "sign": "+",
            "step_vector": [1, 1],
        }

    def test_unknot(self):
        inv = knot_invariants(simplify(unknot()))
        assert inv["tau"] == 0 and inv["lspace_form"]

    def test_figure_eight(self, figure_eight):
        inv = knot_invariants(simplify(figure_eight))
        assert inv == {"tau": 0, "genus": 1, "lspace_form": False}

    def test_staircase_round_trip(self):
        for steps in ([1, 1], [1, 1, 1, 1], [2, 1, 1, 2], [2, 2]):
            for sign in "+-":
                inv = knot_invariants(simplify(staircase(steps, sign)))
                assert inv["lspace_form"]
                assert inv["sign"] == sign
                assert inv["step_vector"] == steps

    def test_mirror_negates_tau(self):
        for steps in ([1, 1], [1, 1, 1, 1], [2, 1, 1, 2]):
            pos = simplify(staircase(steps, "+"))
            neg = simplify(staircase(steps, "-"))
            assert neg.tau == -pos.tau


# --- Barcode stability under random filtered changes of basis -------------

def filtered_change(c, moves):
    """Apply basis changes g_i <- g_i + U^e g_j with e = max(0, A(j)-A(i)) + pad.

    Over F2 the change matrix is its own inverse, so conjugating the
    differential amounts to a column operation col_i += U^e col_j followed
    by a row operation row_j += U^e row_i on the result.
    """
    gens = list(c.generators)
    A = dict(c.alexander)
    entries = set(c.differential)

    def toggle(es, key):
        es.symmetric_difference_update({key})

    for i, j, pad in moves:
        gi, gj = gens[i % len(gens)], gens[j % len(gens)]
        if gi == gj:
            continue
        e = max(0, A[gj] - A[gi]) + pad
        work = set(entries)
        for s, d, k in entries:
            if s == gj:
                toggle(work, (gi, d, k + e))
        entries = work
        work = set(entries)
        for s, d, k in entries:
            if d == gi:
                toggle(work, (s, gj, k + e))
        entries = work
    return make_complex(c.name + "'", gens, A, list(entries))


# Fresh complexes that test_barcode_stability re-presents, by name.
BARCODE_BASES = {
    "trefoil": lambda: staircase([1, 1], "+"),
    "t25": lambda: staircase([1, 1, 1, 1], "+"),
    "s2112": lambda: staircase([2, 1, 1, 2], "+"),
    "fig8": lambda: make_complex(
        "fig8",
        ["a", "b", "c", "d", "e"],
        {"a": 1, "b": 0, "c": 0, "d": -1, "e": 0},
        [("a", "b", 0), ("c", "a", 1), ("c", "d", 0), ("d", "b", 1)],
    ),
}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["trefoil", "t25", "fig8", "s2112"]),
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 1)),
        max_size=5,
    ),
)
def test_barcode_stability(which, moves):
    base = BARCODE_BASES[which]()
    changed = filtered_change(base, moves)
    report = validate_complex(changed)
    assert report.ok, report.failures()
    s0, s1 = simplify(base), simplify(changed)
    assert sorted(h for *_, h in s0.vertical_arrows) == sorted(
        h for *_, h in s1.vertical_arrows
    )
    assert sorted(l for *_, l in s0.horizontal_arrows) == sorted(
        l for *_, l in s1.horizontal_arrows
    )
    assert s0.tau == s1.tau
    # Both bases are read at their own levels, so the recogniser compares
    # graded vectors and sees the same staircase in every presentation.
    assert knot_invariants(s1) == knot_invariants(s0)

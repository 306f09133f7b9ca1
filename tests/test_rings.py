import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idemgraph.rings import (
    FactorSpec,
    LocalFactorProfile,
    RingSizeError,
    RingSpecError,
    additive_closure,
    build_ring,
    format_ring_spec,
    idempotents,
    is_local,
    parse_ring_spec,
    primitive_idempotents,
)
from idemgraph.sweep import DEFAULT_CATALOG, SweepConfig, enumerate_sweep_specs
from idemgraph.theorems import predict_all

from helpers import sub, time_budget


# Hand-picked rings, among them Z6[x]/(x^2), whose local factors are not
# generated by their idempotents, and every ring of the default sweep.
CLOSURE_SPECS = list(
    dict.fromkeys(
        ["Z4", "Z6", "Z9", "GF(4)", "Z3[x]/(x^2)", "GF(4) * Z2", "Z2 * Z9", "Z12", "Z6[x]/(x^2)"]
        + enumerate_sweep_specs(SweepConfig())
    )
)


def labels(ring, elems):
    return sorted(ring.label(x) for x in elems)


# Whole-ring definitions, independent of the factor-by-factor analysis.

def scan_idempotents(r):
    return frozenset(x for x in r.elements if r.mul(x, x) == x)


def additive_order(r, x):
    k, acc = 1, x
    while acc != r.zero:
        acc = r.add(acc, x)
        k += 1
    return k


def scan_atoms(r):
    """Minimal nonzero idempotents under e*f == f, by element index, with
    |R e| from a full scan and the characteristic from repeated addition."""
    ids = scan_idempotents(r)
    index = {x: i for i, x in enumerate(r.elements)}
    atoms = sorted(
        (e for e in ids if e != r.zero and not any(
            f not in (r.zero, e) and r.mul(e, f) == f for f in ids)),
        key=index.__getitem__,
    )
    out = []
    for e in atoms:
        size = len({r.mul(x, e) for x in r.elements})
        char = additive_order(r, e)
        out.append(LocalFactorProfile(e, size, char, char == size, size == 2, size == 3 and char == 3))
    return out


# Spec texts as a user might type them, with numbers far beyond any bound.
_big = st.integers(min_value=0, max_value=10**30)
_exponent = st.integers(min_value=0, max_value=10**12)
_term = st.one_of(
    _big.map(str),
    _exponent.map(lambda e: f"x^{e}"),
    st.builds(lambda c, e: f"{c}x^{e}", _big, _exponent),
)
_factor = st.one_of(
    _big.map(lambda n: f"Z{n}"),
    _big.map(lambda q: f"GF({q})"),
    st.builds(lambda n, terms: f"Z{n}[x]/({' + '.join(terms)})", _big, st.lists(_term, min_size=1, max_size=4)),
)
_spec_text = st.builds(
    lambda first, rest: first + "".join(sep + f for sep, f in rest),
    _factor,
    st.lists(st.tuples(st.sampled_from([" * ", "*", " × "]), _factor), max_size=3),
)


class TestParsing:
    def test_product_of_plain_factors(self):
        spec = parse_ring_spec("Z4 * Z2")
        assert [(f.modulus, f.poly) for f in spec.factors] == [(4, ()), (2, ())]

    def test_quotient_factor(self):
        spec = parse_ring_spec("Z3[x]/(x^2)")
        assert len(spec.factors) == 1
        assert spec.factors[0] == FactorSpec(3, (0, 0, 1))

    def test_letter_x_is_not_a_separator(self):
        with pytest.raises(RingSpecError):
            parse_ring_spec("Z4 x Z2")

    def test_unicode_separator(self):
        assert parse_ring_spec("Z4 × Z2") == parse_ring_spec("Z4 * Z2")

    def test_modulus_below_two_rejected(self):
        for bad in ("Z0", "Z1", "Z1 * Z2", "Z0[x]/(x + 1)"):
            with pytest.raises(RingSpecError):
                parse_ring_spec(bad)

    def test_non_monic_rejected(self):
        with pytest.raises(RingSpecError):
            parse_ring_spec("Z4[x]/(2x^2 + 1)")
        # degree-0 after reduction mod 3
        with pytest.raises(RingSpecError):
            parse_ring_spec("Z3[x]/(3x^2 + 1)")

    def test_monic_after_reduction_accepted(self):
        spec = parse_ring_spec("Z5[x]/(6x^2 + 1)")
        assert spec.factors[0].poly == (1, 0, 1)

    def test_syntax_error_carries_position(self):
        with pytest.raises(RingSpecError) as exc:
            parse_ring_spec("Z4 *")
        assert exc.value.position is not None
        # the start of the failing third factor
        for text, position in (("Z2 * Z3 * Q5", 10), ("Z2 * Z3 *   Z4[x]/(x^2 + y)", 12)):
            with pytest.raises(RingSpecError) as exc:
                parse_ring_spec(text)
            assert exc.value.position == position

    def test_gf_desugars_to_quotient(self):
        spec = parse_ring_spec("GF(4)")
        assert spec.factors[0] == FactorSpec(2, (1, 1, 1))
        assert parse_ring_spec("GF(7)").factors[0] == FactorSpec(7)

    def test_gf_rejects_non_prime_powers(self):
        for bad in ("GF(6)", "GF(12)", "GF(1)"):
            with pytest.raises(RingSpecError):
                parse_ring_spec(bad)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_spec_text, st.text()))
    @example("Z" + "9" * 5000)
    @example("Z2[x]/(x^1000000000000 + 1) * GF(1000000000000000000000000000000)")
    @example(" " * 200_000 + "junk")
    @example("Z2[x]/(" + " " * 200_000)
    @example("Z2[x]/(" + " + ".join(["x^2", "x"] * 50_000) + ")")
    @example(" * ".join(["Z2"] * 50_000))
    def test_any_text_returns_or_is_rejected_fast(self, text):
        for call in (parse_ring_spec, build_ring):
            with time_budget(1.0):
                try:
                    call(text)
                except (RingSpecError, RingSizeError):
                    pass

    def test_whitespace_insensitive(self):
        assert parse_ring_spec(" Z3[x] / ( x^2 ) *Z2 ") == parse_ring_spec("Z3[x]/(x^2) * Z2")
        assert parse_ring_spec("Z 4") == parse_ring_spec("Z4")
        assert parse_ring_spec("GF (4)") == parse_ring_spec("GF(4)")
        assert parse_ring_spec("Z3 [ x ] / ( x ^ 2 + 2 x + 2 )") == parse_ring_spec("GF(9)")
        assert parse_ring_spec("Z4×Z2") == parse_ring_spec("Z4 * Z2")

    @pytest.mark.parametrize(
        "text",
        ["Z6", "Z4 * Z2", "Z3[x]/(x^2)", "GF(4) * Z2", "Z2[x]/(x^3) * Z9 * Z2", "GF(9)"],
    )
    def test_round_trip(self, text):
        spec = parse_ring_spec(text)
        assert parse_ring_spec(format_ring_spec(spec)) == spec


class TestBuildRing:
    def test_z6(self):
        r = build_ring("Z6")
        assert r.size == 6 and r.characteristic == 6

    def test_quotient_size_and_char(self):
        r = build_ring("Z3[x]/(x^2)")
        assert r.size == 9 and r.characteristic == 3

    def test_product_char_is_lcm(self):
        r = build_ring("GF(4) * Z2")
        assert r.size == 8 and r.characteristic == 2
        assert build_ring("Z4 * Z6").characteristic == 12

    def test_size_bound(self):
        with pytest.raises(RingSizeError):
            build_ring("Z100 * Z100")
        build_ring("Z100 * Z100", max_size=10_000)

    @pytest.mark.parametrize(
        "text", ["Z5000", "GF(4099)", "Z2[x]/(x^13)", "Z3[x]/(x^8 + 1) * Z2"]
    )
    def test_oversized_factor_rejected_by_parser(self, text):
        with pytest.raises(RingSizeError):
            parse_ring_spec(text)

    def test_parser_bound_follows_max_size(self):
        assert parse_ring_spec("Z5000", max_size=5000).size == 5000
        assert parse_ring_spec("Z2[x]/(x^13)", max_size=8192).size == 8192
        # a vanishing leading term does not count towards the degree
        assert parse_ring_spec("Z2[x]/(2x^64 + x^2)").size == 4

    def test_enumeration_deterministic_lexicographic(self):
        r = build_ring("Z3 * Z2")
        assert [r.label(x) for x in r.elements] == [
            "(0, 0)", "(0, 1)", "(1, 0)", "(1, 1)", "(2, 0)", "(2, 1)",
        ]


class TestArithmetic:
    def test_z6_add(self):
        r = build_ring("Z6")
        three, four = r.elements[3], r.elements[4]
        assert r.add(three, four) == r.elements[1]

    def test_quotient_mul_matches_sympy(self):
        # independent symbolic oracle: reduce (x+1)(2x+1) mod (x^2, 3)
        r = build_ring("Z3[x]/(x^2)")
        a = ((1, 1),)  # x + 1
        b = ((1, 2),)  # 2x + 1
        x = sympy.symbols("x")
        expected = sympy.rem(sympy.Poly((x + 1) * (2 * x + 1), x, modulus=3), sympy.Poly(x**2, x, modulus=3))
        got = r.mul(a, b)
        coeffs = got[0]
        sym = sum(int(c) * x**i for i, c in enumerate(coeffs))
        assert sympy.Poly(sym, x, modulus=3) == sympy.Poly(expected, x, modulus=3)
        assert coeffs == (1, 0)  # hand reduction: 2x^2 + 3x + 1 -> 1

    def test_gf4_square_of_generator(self):
        r = build_ring("GF(4)")
        xel = ((0, 1),)
        assert r.mul(xel, xel) == ((1, 1),)  # x^2 = x + 1

    def test_gf_tables_define_fields(self):
        # every nonzero element must be invertible (no zero divisors)
        for q in (4, 8, 9, 16, 25, 27, 32, 49):
            r = build_ring(f"GF({q})")
            nonzero = [e for e in r.elements if e != r.zero]
            for a in nonzero:
                assert any(r.mul(a, b) == r.one for b in nonzero), (q, a)

    @pytest.mark.parametrize("spec", ["Z6", "Z3[x]/(x^2)", "GF(4) * Z3"])
    def test_ring_axioms_all_pairs(self, spec):
        r = build_ring(spec)
        els = r.elements
        for a in els:
            assert r.mul(r.one, a) == a
            assert r.add(a, r.neg(a)) == r.zero
        for a in els:
            for b in els:
                assert r.add(a, b) == r.add(b, a)
                assert r.mul(a, b) == r.mul(b, a)
        for a in els[:4]:
            for b in els:
                for c in els:
                    assert r.add(r.add(a, b), c) == r.add(a, r.add(b, c))
                    assert r.mul(a, r.add(b, c)) == r.add(r.mul(a, b), r.mul(a, c))


class TestIdempotents:
    def test_z4_trivial(self):
        r = build_ring("Z4")
        assert idempotents(r) == {r.zero, r.one}

    def test_z6_brute_force(self):
        # independent oracle: integer arithmetic mod 6
        expected = sorted(str(k) for k in range(6) if (k * k) % 6 == k)
        r = build_ring("Z6")
        assert labels(r, idempotents(r)) == expected == ["0", "1", "3", "4"]

    def test_z2xz2_all_idempotent(self):
        r = build_ring("Z2 * Z2")
        assert idempotents(r) == set(r.elements)

    def test_cardinality_multiplicative(self):
        for a, b in [("Z6", "Z4"), ("Z2", "Z9"), ("GF(4)", "Z6")]:
            na = len(idempotents(build_ring(a)))
            nb = len(idempotents(build_ring(b)))
            assert len(idempotents(build_ring(f"{a} * {b}"))) == na * nb

    @pytest.mark.parametrize("spec", CLOSURE_SPECS)
    def test_matches_whole_ring_scan(self, spec):
        r = build_ring(spec)
        assert idempotents(r) == scan_idempotents(r)

    @pytest.mark.parametrize("spec", ["Z12", "GF(4) * Z2", "Z2 * Z9", "Z6[x]/(x^2) * Z10", "Z2[x]/(x^2 + x) * Z4"])
    def test_factor_lists_are_the_projections_in_enumeration_order(self, spec):
        r = build_ring(spec)
        ids = scan_idempotents(r)
        assert tuple(f.idempotents for f in r.spec.factors) == tuple(
            tuple(sorted({e[k] for e in ids})) for k in range(len(r.spec.factors))
        )

    @pytest.mark.parametrize("spec", ["Z6", "Z12", "GF(4) * Z3", "Z2 * Z2 * Z2"])
    def test_complement_and_square(self, spec):
        r = build_ring(spec)
        for e in idempotents(r):
            assert r.mul(e, e) == e
            comp = sub(r, r.one, e)
            assert r.mul(comp, comp) == comp


# The catalog's local factors, non-local factors (two or three atoms, an
# atom whose local factor is smaller than the factor) and the largest field.
FACTOR_TEXTS = list(DEFAULT_CATALOG) + ["Z6", "Z12", "Z2[x]/(x^2 + x)", "GF(64)"]


class TestFactorSpecData:
    """Each FactorSpec fact against its whole-factor definition, read off
    the one-factor ring: squaring, the minimality search, a full scan for
    |R a|, repeated addition for the characteristic, and subtraction."""

    @pytest.mark.parametrize("text", FACTOR_TEXTS)
    def test_matches_one_factor_ring(self, text):
        r = build_ring(text)
        (f,) = r.spec.factors
        # every coefficient vector once, in lexicographic order
        assert len(f.elements) == f.size and list(f.elements) == sorted(set(f.elements))
        assert all(len(a) == f.degree and 0 <= min(a) <= max(a) < f.modulus for a in f.elements)
        ids = [x for x in r.elements if r.mul(x, x) == x]
        assert f.idempotents == tuple(e for (e,) in ids)
        assert f.atoms == tuple((p.idempotent[0], p.factor_size, p.factor_char) for p in scan_atoms(r))
        assert f.doubles_idempotent == tuple(r.add(x, x) in ids for x in r.elements)
        index = {x: i for i, x in enumerate(r.elements)}
        assert f.offsets == tuple(tuple(index[sub(r, e, x)] for e in ids) for x in r.elements)

    def test_computed_once_per_factor_object(self):
        (f,) = parse_ring_spec("GF(8)").factors
        for name in ("elements", "idempotents", "atoms", "doubles_idempotent", "offsets"):
            assert getattr(f, name) is getattr(f, name)


class TestAdditiveClosure:
    def test_z6_idempotents_generate(self):
        r = build_ring("Z6")
        assert additive_closure(r, idempotents(r)) == set(r.elements)

    def test_gf4_trivial_idempotents_stop_at_prime_subring(self):
        r = build_ring("GF(4)")
        assert additive_closure(r, {r.zero, r.one}) == {r.zero, r.one}

    def test_z4_generated_by_one(self):
        r = build_ring("Z4")
        assert additive_closure(r, {r.one}) == set(r.elements)

    def test_empty_seed_rejected(self):
        with pytest.raises(ValueError):
            additive_closure(build_ring("Z4"), set())


class TestPrimitiveIdempotents:
    def test_z6_atoms(self):
        r = build_ring("Z6")
        profiles = primitive_idempotents(r)
        got = sorted((r.label(p.idempotent), p.factor_size, p.factor_char) for p in profiles)
        assert got == [("3", 2, 2), ("4", 3, 3)]

    def test_z2xz2_coordinate_atoms(self):
        r = build_ring("Z2 * Z2")
        profiles = primitive_idempotents(r)
        assert sorted(r.label(p.idempotent) for p in profiles) == ["(0, 1)", "(1, 0)"]
        assert all(p.factor_size == 2 and p.factor_char == 2 for p in profiles)

    def test_z9_single_atom(self):
        r = build_ring("Z9")
        (p,) = primitive_idempotents(r)
        assert p.idempotent == r.one
        assert p.factor_size == 9 and p.factor_char == 9
        assert p.generated_by_idempotents

    @pytest.mark.parametrize(
        "spec", ["Z6", "Z12", "Z2 * Z2 * Z2", "GF(4) * Z6", "Z3[x]/(x^2) * Z2", "Z30"]
    )
    def test_orthogonal_sum_to_one_size_product(self, spec):
        r = build_ring(spec)
        profiles = primitive_idempotents(r)
        total = r.zero
        size_product = 1
        for p in profiles:
            total = r.add(total, p.idempotent)
            size_product *= p.factor_size
            assert p.factor_size % p.factor_char == 0
            assert p.generated_by_idempotents == (p.factor_char == p.factor_size)
            assert p.factor_size == len({r.mul(x, p.idempotent) for x in r.elements})
        for i, p in enumerate(profiles):
            for q in profiles[i + 1:]:
                assert r.mul(p.idempotent, q.idempotent) == r.zero
        assert total == r.one
        assert size_product == r.size

    @pytest.mark.parametrize("spec", CLOSURE_SPECS + ["Z30", "Z2[x]/(x^2 + x) * Z3"])
    def test_matches_whole_ring_definition_in_order(self, spec):
        r = build_ring(spec)
        assert primitive_idempotents(r) == scan_atoms(r)

    @pytest.mark.parametrize("spec", CLOSURE_SPECS)
    def test_closure_iff_all_factors_generated(self, spec):
        # additive_closure is the oracle for the closed form of connectivity
        r = build_ring(spec)
        closed = additive_closure(r, idempotents(r)) == set(r.elements)
        assert closed == all(p.generated_by_idempotents for p in primitive_idempotents(r))
        assert predict_all(r)["connected"] is closed


class TestIsLocal:
    @pytest.mark.parametrize(
        "spec,expected",
        [("Z9", True), ("Z6", False), ("Z3[x]/(x^2)", True), ("GF(8)", True), ("Z2 * Z2", False)],
    )
    def test_examples(self, spec, expected):
        assert is_local(build_ring(spec)) is expected

    def test_characteristic_is_additive_order_of_one(self):
        for spec in ("Z6", "Z9", "GF(4)", "Z4 * Z6", "Z3[x]/(x^2) * Z2"):
            r = build_ring(spec)
            assert r.characteristic == additive_order(r, r.one)

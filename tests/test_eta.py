import contextlib
import copy
import pickle
import random
import sys
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zetalike.eta
from conftest import (
    algebra_zeta_numeric,
    componentwise_sum,
    first_order_sum,
    float_eta_oracle,
    fraction_eta_assembly,
    fraction_rows,
    pairwise_eta,
    reconstruct_at,
    reference_partial_fractions,
)
from zetalike import (
    EtaIndex,
    InadmissibleIndexError,
    RhoIndex,
    ToleranceError,
    ZetaExpr,
    eta_hook_closed_form,
    eta_numeric,
    eta_restricted_triple_sum,
    eta_symbolic,
    partial_fraction_shifted,
    rho_exact,
    weak_compositions,
)
from zetalike.compositions import compositions
from zetalike.harmonic import harmonic
from zetalike.rho import indices

_FRACTIONS = st.fractions(min_value=-10**12, max_value=10**12, max_denominator=10**9)
_VALUES = st.one_of(
    st.integers(-10**6, 10**6),
    _FRACTIONS,
    st.builds(ZetaExpr, _FRACTIONS, st.dictionaries(st.integers(2, 9), _FRACTIONS, max_size=4)),
)


class TestEtaIndex:
    def test_validation(self):
        assert EtaIndex((1, 1)).weight == 2
        # both public entry points refuse what EtaIndex refuses
        for refuse in (EtaIndex, eta_symbolic, partial_fraction_shifted):
            with pytest.raises(InadmissibleIndexError):
                refuse((1,))
            with pytest.raises(InadmissibleIndexError):
                refuse((0, 2))
            with pytest.raises(InadmissibleIndexError):
                refuse(())

    def test_immutable_value(self):
        idx = EtaIndex([2, 1])
        assert idx == EtaIndex((2, 1))
        assert idx != EtaIndex((1, 2)) and idx != (2, 1)
        # an index of the other family is another value, whatever its entries
        assert EtaIndex((1, 2)) != RhoIndex((1, 2))
        assert EtaIndex.coerce(idx) is idx
        assert (str(idx), repr(idx)) == ("(2, 1)", "EtaIndex(parts=(2, 1))")

    @pytest.mark.parametrize("bad", [(2.7,), ("3",), (2.5,), (1, 2.0)])
    def test_non_integral_entry_raises(self, bad):
        with pytest.raises(TypeError):
            EtaIndex(bad)
        with pytest.raises(TypeError):
            eta_symbolic(bad)
        with pytest.raises(TypeError):
            partial_fraction_shifted(bad)


class TestZetaExpr:
    def test_structural_equality(self):
        a = ZetaExpr(Fraction(1, 2), {3: Fraction(2), 2: Fraction(0)})
        b = ZetaExpr(Fraction(1, 2), {3: Fraction(2)})
        assert a == b and hash(a) == hash(b)
        assert a.coeffs == {3: Fraction(2)}
        assert ZetaExpr().is_zero()
        # ints and Fractions alike are stored as exact Fractions
        c = ZetaExpr(1, {2: 3, 4: Fraction(1, 2)})
        assert all(type(x) is Fraction for x in (c.constant, *c.coeffs.values()))

    def test_equals_only_another_zeta_expr(self):
        half = ZetaExpr(Fraction(1, 2))
        # a bare number hashes apart from the ZetaExpr, so it must not equal it
        assert half != Fraction(1, 2) and ZetaExpr(0) != 0 and ZetaExpr(3) != 3
        assert len({half, Fraction(1, 2)}) == 2
        # (k, coefficient) pairs build the same value as the mapping
        a = ZetaExpr(1, {2: 3, 5: Fraction(1, 2)})
        b = ZetaExpr(Fraction(1), [(5, Fraction(1, 2)), (2, Fraction(3))])
        assert a == b and hash(a) == hash(b)

    def test_copy_and_pickle_round_trip(self):
        a = ZetaExpr(Fraction(-7, 3), {2: Fraction(1, 2), 9: -4})
        for again in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert type(again) is ZetaExpr and again == a and hash(again) == hash(a)
            assert again.render() == a.render()

    def test_set_and_delete_refused(self):
        a = ZetaExpr(1, {2: 1})
        for name in ("constant", "_items"):
            with pytest.raises(AttributeError):
                setattr(a, name, Fraction(0))
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a == ZetaExpr(1, {2: 1})

    def test_cached_value_refuses_delete(self):
        # eta_symbolic hands every caller the one cached value
        try:
            with contextlib.suppress(AttributeError):
                del eta_symbolic((1, 2)).constant
            assert eta_symbolic((1, 2)).render() == "2 - zeta(2)"
        finally:
            # a value the delete broke must not reach later tests
            zetalike.eta._eta_symbolic_cached.cache_clear()

    def test_sum(self):
        a = ZetaExpr(1, {2: Fraction(1, 2)})
        b = ZetaExpr(Fraction(-1, 3), {2: Fraction(-1, 2), 5: 1})
        assert ZetaExpr.sum([(1, a), (1, b)]) == ZetaExpr(Fraction(2, 3), {5: 1})
        assert ZetaExpr.sum([(2, a)]) == ZetaExpr(2, {2: 1})
        # negative weights, and full cancellation to ZetaExpr(0)
        assert ZetaExpr.sum([(3, a), (-1, b)]) == ZetaExpr(Fraction(10, 3), {2: 2, 5: -1})
        for terms in ([(1, a), (-1, a)], [(2, b), (-1, b), (-1, b)], [(0, a)]):
            zero = ZetaExpr.sum(terms)
            assert zero == ZetaExpr(0) and zero.is_zero() and zero.coeffs == {}
        # mixed int / Fraction / ZetaExpr terms
        mixed = ZetaExpr.sum([(1, 2), (-3, Fraction(1, 6)), (2, a)])
        assert mixed == ZetaExpr(Fraction(7, 2), {2: 1})
        assert ZetaExpr.sum([(1, 1), (-2, Fraction(1, 2))]) == ZetaExpr(0)
        # the empty sum
        assert ZetaExpr.sum([]) == ZetaExpr(0)
        assert ZetaExpr.sum(iter(())).is_zero()

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(st.integers(-50, 50), _VALUES), max_size=8))
    def test_sum_matches_componentwise_reference(self, terms):
        got = ZetaExpr.sum(terms)
        assert got == componentwise_sum(terms)
        assert type(got.constant) is Fraction
        assert all(type(c) is Fraction and c for c in got.coeffs.values())

    def test_rejects_bad_keys(self):
        with pytest.raises(ValueError):
            ZetaExpr(0, {1: Fraction(1)})

    def test_render_zeta(self):
        e = ZetaExpr(2, {2: -1})
        assert e.render() == "2 - zeta(2)"
        assert e.render("pi") == "2 - pi^2/6"

    def test_render_shapes(self):
        assert ZetaExpr(0).render() == "0"
        assert ZetaExpr(0, {3: 1}).render() == "zeta(3)"
        assert ZetaExpr(0, {3: Fraction(-3, 4)}).render() == "-3*zeta(3)/4"
        e = ZetaExpr(Fraction(-29, 32), {3: Fraction(-3, 4), 2: Fraction(7, 8), 4: Fraction(1, 2)})
        assert e.render("pi") == "-29/32 + 7*pi^2/48 - 3*zeta(3)/4 + pi^4/180"
        assert ZetaExpr(0, {2: -1}).render("pi") == "-pi^2/6"
        assert ZetaExpr(Fraction(-1, 2)).render() == "-1/2"
        assert ZetaExpr(0, {2: 2}).render("pi") == "pi^2/3"
        with pytest.raises(ValueError):
            ZetaExpr(0).render("latex")

    def test_numeric_bound(self):
        e = ZetaExpr(1, {2: 1, 3: -2})
        val = e.numeric(15)
        with mpmath.mp.workdps(30):
            want = 1 + mpmath.zeta(2) - 2 * mpmath.zeta(3)
            assert abs(val.value - want) <= val.error_bound

    @pytest.mark.parametrize("k, c", [(2, Fraction(10**309)), (3, Fraction(-3 * 10**320, 7))])
    def test_numeric_coefficient_beyond_float_range(self, k, c):
        # c is past float range: its 310 and 320 extra digits come from
        # integer comparisons alone
        val = ZetaExpr(1, {k: c}).numeric(5)
        with mpmath.mp.workdps(340):
            want = 1 + mpmath.mpf(c.numerator) / c.denominator * mpmath.zeta(k)
            assert abs(val.value - want) <= val.error_bound

    @pytest.mark.parametrize("c", [
        10**15, 10**16, -10**16, 99 + Fraction(1, 10**20), 10**17 - 1 + Fraction(1, 10**20),
        10**309, Fraction(-3 * 10**320, 7), 10**4000 + Fraction(1, 3), Fraction(1, 3), 9, 10, 0,
    ], ids=["1e15", "1e16", "-1e16", "99+1e-20", "1e17-1+1e-20", "1e309", "-3e320/7",
            "1e4000+1/3", "1/3", "9", "10", "0"])
    def test_extra_is_the_least_power_of_ten_past_one_plus_c(self, c):
        e = zetalike.eta._extra(c)
        assert 1 + abs(c) <= 10**e
        assert e == 0 or 10**(e - 1) < 1 + abs(c)

    def test_extra_starts_from_the_bit_lengths(self):
        # three comparisons against 10^e den for a 4001-digit c, not a scan up
        # from e = 0; each multiplies by the (counted) denominator
        class Den(int):
            products = 0

            def __mul__(self, other):
                Den.products += 1
                return int(self) * other

            __rmul__ = __mul__

        c = SimpleNamespace(numerator=3 * 10**4000 + 1, denominator=Den(3))
        assert zetalike.eta._extra(c) == 4001
        assert Den.products <= 3

    @pytest.mark.parametrize("digits", [1, 2, 5, 12, 14, 20, 57, 150, 299])
    def test_numeric_matches_algebra_reference_on_eta_values(self, digits):
        for w in range(2, 9):
            for idx in indices(w):
                expr = eta_symbolic(idx)
                got = expr.numeric(digits)
                assert (got.value, got.error_bound, got.dps) == algebra_zeta_numeric(expr, digits), idx

    def test_numeric_matches_algebra_reference_on_random_exprs(self):
        rng = random.Random(10)

        def rational():
            return Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**rng.randint(0, 40)))

        cases = [(ZetaExpr(1, {2: Fraction(10**309)}), 5)]
        for _ in range(60):
            coeffs = {k: rational() for k in rng.sample(range(2, 16), rng.randint(0, 5))}
            cases.append((ZetaExpr(rational(), coeffs), rng.randint(1, 300)))
        for expr, digits in cases:
            got = expr.numeric(digits)
            assert (got.value, got.error_bound, got.dps) == algebra_zeta_numeric(expr, digits), expr


class TestPartialFractions:
    def test_telescoping_pair(self):
        table = partial_fraction_shifted((1, 1))
        assert fraction_rows(table) == ((Fraction(1),), (Fraction(-1),))
        assert table.parts == (1, 1) and table.pairs == (((1, 1),), ((1, -1),))
        with pytest.raises(AttributeError):
            table.pairs = ()

    def test_depth_two_with_double_pole(self):
        table = partial_fraction_shifted((1, 2))
        assert fraction_rows(table) == ((Fraction(1),), (Fraction(-1), Fraction(-1)))

    def test_leading_double_pole(self):
        table = partial_fraction_shifted((2, 1))
        assert fraction_rows(table) == ((Fraction(-1), Fraction(1)), (Fraction(1),))

    def test_reconstruction_on_random_indices(self):
        rng = random.Random(271828)
        probes = (Fraction(1), Fraction(2), Fraction(7, 2), Fraction(11, 3))
        for _ in range(50):
            weight = rng.randint(2, 7)
            depth = rng.randint(1, weight)
            # random composition of `weight` into `depth` positive parts
            cuts = sorted(rng.sample(range(1, weight), depth - 1))
            parts = tuple(
                b - a for a, b in zip((0, *cuts), (*cuts, weight))
            )
            table = partial_fraction_shifted(parts)
            assert first_order_sum(table) == 0
            for n in probes:
                want = Fraction(1)
                for j, s in enumerate(parts, start=1):
                    want /= (n + j - 1) ** s
                assert reconstruct_at(table, n) == want

    def test_table_is_exact_at_weight_many_points(self):
        """The table is proved exact by agreement at n = 1..weight.

        Over the common denominator prod_j (n+j-1)^(s_j), of degree w (the
        weight), the table minus the product prod_j (n+j-1)^(-s_j) has a
        polynomial numerator of degree below w: each c[j][k] term gives
        degree w - k <= w - 1 and the product gives the constant 1.  None of
        n = 1..w is a pole (the poles are n = 1-j <= 0), so agreement at
        these w points makes that numerator vanish identically.
        """
        shapes = [c for w in range(2, 10) for c in compositions(w)]
        assert len(shapes) == 510
        shapes += [(1,) * 20 + (2,), (60, 60, 60), (3,) * 25, (1, 7, 1, 7, 1)]
        # order-1 poles and the widest distance at either end
        shapes += [(4,) + (1,) * 7, (1,) * 7 + (4,), (1,) * 30, (2, 1, 1, 1, 1, 1, 2)]
        for parts in shapes:
            table = partial_fraction_shifted(parts)
            assert all(type(c) is Fraction for row in fraction_rows(table) for c in row)
            for n in range(1, sum(parts) + 1):
                want = Fraction(1)
                for j, s in enumerate(parts, start=1):
                    want /= (n + j - 1) ** s
                assert reconstruct_at(table, n) == want, (parts, n)

    def test_pairs_match_the_reference_kernel_on_the_table_space(self):
        # every index `table eta` can request, weight 2..12.  Equal integer
        # pairs give equal rows, and they also pin the scale to the lcm of
        # the distances, where any common multiple would give the same rows
        shapes = [c for w in range(2, 13) for c in compositions(w)]
        assert len(shapes) == 4094
        for parts in shapes:
            assert partial_fraction_shifted(parts).pairs == reference_partial_fractions(parts), parts


class TestEtaSymbolic:
    def test_weight_two(self):
        assert eta_symbolic((1, 1)) == ZetaExpr(1)
        assert eta_symbolic((2,)) == ZetaExpr(0, {2: 1})

    def test_printed_samples(self):
        assert eta_symbolic((1, 2)) == ZetaExpr(2, {2: -1})
        assert eta_symbolic((2, 1, 2)) == ZetaExpr(Fraction(1, 16))

    def test_depth_one_is_zeta(self):
        for k in range(2, 9):
            assert eta_symbolic((k,)) == ZetaExpr(0, {k: 1})

    def test_weight_three_telescoping_pair(self):
        assert ZetaExpr.sum([(1, eta_symbolic((1, 2))), (1, eta_symbolic((2, 1)))]) == ZetaExpr(1)

    def test_max_zeta_argument_bounded_by_weight(self):
        for parts in [(2, 3), (1, 1, 4), (3, 1, 2), (1, 1, 1, 1, 2)]:
            expr = eta_symbolic(parts)
            assert all(k <= sum(parts) for k in expr.coeffs)

    def test_assembly_matches_fraction_reference(self):
        for weight in range(2, 12):
            for parts in compositions(weight):
                got = eta_symbolic(parts)
                assert type(got.constant) is Fraction
                assert all(type(c) is Fraction for c in got.coeffs.values())
                assert got == fraction_eta_assembly(parts), parts

    def test_pairwise_reduction_agrees(self):
        """A second exact path that shares no code with the kernel."""
        shapes = [c for w in range(2, 11) for c in compositions(w)]
        assert len(shapes) == 1022
        for parts in shapes:
            assert eta_symbolic(parts) == pairwise_eta(parts), parts

    def test_harmonic_prefixes_match_harmonic(self):
        for k in range(1, 7):
            for n in range(41):
                prefixes = zetalike.eta._harmonic_prefixes(n, k)
                assert all(type(h) is Fraction for h in prefixes)
                assert prefixes == tuple(harmonic(j, k) for j in range(n + 1)), (n, k)

    def test_harmonic_prefixes_do_not_recurse(self):
        n = sys.getrecursionlimit() + 200
        zetalike.eta._harmonic_prefixes.cache_clear()
        prefixes = zetalike.eta._harmonic_prefixes(n, 3)
        assert len(prefixes) == n + 1
        assert prefixes[-1] == harmonic(n, 3)

    def test_validates_once_at_the_boundary(self, monkeypatch):
        calls = []
        check = EtaIndex._check

        def counting(parts):
            calls.append(parts)
            check(parts)

        monkeypatch.setattr(EtaIndex, "_check", staticmethod(counting))
        zetalike.eta._eta_symbolic_cached.cache_clear()
        assert eta_symbolic((2, 1, 3)) == pairwise_eta((2, 1, 3))
        assert calls == [(2, 1, 3)]
        assert eta_symbolic((2, 1, 3)) == pairwise_eta((2, 1, 3))
        assert calls == [(2, 1, 3)]

    def test_miss_converts_the_entries_once(self, monkeypatch):
        # a miss builds its index from the exact-int key without running
        # operator.index over the entries a second time
        def refuse(self, parts):
            raise AssertionError(f"a miss rebuilt {type(self).__name__}{tuple(parts)}")

        monkeypatch.setattr(EtaIndex, "__init__", refuse)
        monkeypatch.setattr(RhoIndex, "__init__", refuse)
        zetalike.eta._eta_symbolic_cached.cache_clear()
        zetalike.rho._rho_exact_cached.cache_clear()
        assert eta_symbolic((2, 1, 3)) == pairwise_eta((2, 1, 3))
        assert rho_exact((2, 1, 3)) == Fraction(1, 72)
        with pytest.raises(InadmissibleIndexError):
            eta_symbolic((0, 2))
        with pytest.raises(InadmissibleIndexError):
            rho_exact((2, 1))

    def test_kernel_runs_once_per_distinct_index(self, monkeypatch):
        calls = []
        kernel = zetalike.eta.partial_fraction_shifted

        def counting(idx):
            calls.append(tuple(EtaIndex.coerce(idx).parts))
            return kernel(idx)

        monkeypatch.setattr(zetalike.eta, "partial_fraction_shifted", counting)
        zetalike.eta._eta_symbolic_cached.cache_clear()
        distinct = [c for w in range(2, 7) for c in compositions(w)]
        for parts in distinct:
            eta_symbolic(parts)
        assert calls == distinct
        for parts in distinct:
            eta_symbolic(list(parts))
            eta_symbolic(EtaIndex(parts))
        assert calls == distinct

    def test_warm_call_builds_no_index(self, monkeypatch):
        eta_symbolic((2, 1, 3))
        rho_exact((2, 1, 3))

        def refuse(self, parts):
            raise AssertionError(f"a warm call built {type(self).__name__}{tuple(parts)}")

        monkeypatch.setattr(EtaIndex, "__init__", refuse)
        monkeypatch.setattr(RhoIndex, "__init__", refuse)

        def refuse_check(parts):
            raise AssertionError(f"a warm call checked {parts}")

        monkeypatch.setattr(EtaIndex, "_check", staticmethod(refuse_check))
        monkeypatch.setattr(RhoIndex, "_check", staticmethod(refuse_check))
        assert eta_symbolic((2, 1, 3)) == pairwise_eta((2, 1, 3))
        assert rho_exact((2, 1, 3)) == Fraction(1, 72)

    def test_float_entries_refused_when_the_int_index_is_warm(self):
        # (2.0, 1.0) == (2, 1) and the two hash alike, so the cache key must
        # be built from exact ints
        eta_symbolic((2, 1))
        with pytest.raises(TypeError):
            eta_symbolic((2.0, 1.0))
        with pytest.raises(TypeError):
            eta_symbolic([2, 1.0])

    def test_bool_entry_is_one(self):
        eta_symbolic((1, 1))
        assert eta_symbolic((True, 1)) == eta_symbolic((1, 1)) == ZetaExpr(1)
        assert eta_symbolic((2, True)) == pairwise_eta((2, 1))

    @pytest.mark.parametrize("bad", [(0, 2), (1,), ()])
    def test_refused_index_is_not_cached(self, bad):
        cache = zetalike.eta._eta_symbolic_cached
        size = cache.cache_info().currsize
        for _ in range(2):
            with pytest.raises(InadmissibleIndexError):
                eta_symbolic(bad)
        assert cache.cache_info().currsize == size

    def test_every_form_of_an_index_shares_one_entry(self):
        cache = zetalike.eta._eta_symbolic_cached
        cache.cache_clear()
        first = eta_symbolic((3, 1, 2))
        for same in ([3, 1, 2], (p for p in (3, 1, 2)), EtaIndex((3, 1, 2))):
            assert eta_symbolic(same) is first
        assert cache.cache_info().currsize == 1
        assert cache.cache_info().hits == 3


class TestReversal:
    """s' = s reversed, of weight w: c'[r+1-j][k] = (-1)^(w+k) c[j][k], and so
    every zeta(k) coefficient of eta(s') is (-1)^(w+k) times that of eta(s).
    A symmetry of the kernel, not an independent side: the reference kernel
    and the series oracle check the values themselves."""

    SHAPES = [c for w in range(2, 13) for c in compositions(w)]

    def test_rows_of_the_reverse_are_the_rows_read_backwards_with_signs(self):
        assert len(self.SHAPES) == 4094
        for parts in self.SHAPES:
            rows = partial_fraction_shifted(parts).pairs
            reversed_rows = partial_fraction_shifted(parts[::-1]).pairs
            w, r = sum(parts), len(parts)
            for j, row in enumerate(rows):
                mirror = reversed_rows[r - 1 - j]
                assert len(mirror) == len(row), parts
                # the pairs are unreduced and either entry may carry the sign,
                # so compare n'/d' with (-1)^(w+k) n/d by cross-multiplying
                for k, ((num, den), (rnum, rden)) in enumerate(zip(row, mirror), start=1):
                    assert rnum * den == (-1) ** (w + k) * num * rden, (parts, j, k)

    def test_zeta_coefficients_of_the_reverse_carry_the_sign(self):
        for parts in self.SHAPES:
            w = sum(parts)
            want = {k: (-1) ** (w + k) * c for k, c in eta_symbolic(parts).coeffs.items()}
            assert eta_symbolic(parts[::-1]).coeffs == want, parts

    def test_class_and_palindrome_counts(self):
        classes = {min(parts, parts[::-1]) for parts in self.SHAPES}
        assert len(classes) == 2141
        assert sum(parts == parts[::-1] for parts in self.SHAPES) == 188


class TestWeightBatch:
    def test_matches_the_per_index_values_with_one_kernel_call_per_class(self, monkeypatch):
        calls = []
        kernel = zetalike.eta.partial_fraction_shifted

        def counting(idx):
            calls.append(tuple(EtaIndex.coerce(idx).parts))
            return kernel(idx)

        monkeypatch.setattr(zetalike.eta, "partial_fraction_shifted", counting)
        batch = zetalike.eta._eta_weight_values
        batch.cache_clear()
        values = {w: batch(w) for w in range(2, 13)}
        # the kernel ran once per reversal class, on its first member
        assert len(calls) == 2141
        assert calls == [c for w in range(2, 13) for c in compositions(w) if c <= c[::-1]]
        # a warm weight is one cache hit
        assert all(batch(w) is values[w] for w in values)
        assert len(calls) == 2141
        zetalike.eta._eta_symbolic_cached.cache_clear()
        for w, got in values.items():
            assert list(got) == [(idx, eta_symbolic(idx)) for idx in indices(w)], w

    @pytest.mark.parametrize("bad, error", [(1, InadmissibleIndexError),
                                            (0, InadmissibleIndexError), (2.0, TypeError)])
    def test_refused_weight_is_not_cached(self, bad, error):
        batch = zetalike.eta._eta_weight_values
        batch.cache_clear()
        batch(2)  # warm: 2.0 == 2 and the two hash alike
        for _ in range(2):
            with pytest.raises(error):
                batch(bad)
        assert batch.cache_info().currsize == 1

    def test_reversed_members_match_the_series_oracle(self):
        # the table-eta fixtures stop at weight 6; the oracle shares no code
        # with the kernel.  Each sampled index comes with its reverse, which
        # the batch assembles from the sampled index's table or the other way
        rng = random.Random(31)
        for w in range(7, 13):
            values = dict(zetalike.eta._eta_weight_values(w))
            firsts = sorted(c for c in values if c < c[::-1])
            for parts in rng.sample(firsts, 3):
                for idx in (parts, parts[::-1]):
                    oracle = eta_numeric(idx, "oracle", 1e-10)
                    exact = values[idx].numeric(20)
                    assert oracle.error_bound <= 1e-10
                    assert abs(oracle.value - exact.value) <= oracle.error_bound + exact.error_bound, idx


class TestEtaNumeric:
    def test_oracle_telescoping(self):
        val = eta_numeric((1, 1), "oracle", 1e-6)
        assert abs(float(val.value) - 1.0) <= float(val.error_bound) <= 1e-6

    def test_oracle_depth_three(self):
        val = eta_numeric((1, 1, 1), "oracle", 1e-6)
        assert abs(float(val.value) - 0.25) <= float(val.error_bound)

    def test_fast_mode(self, frozen_pi_digits):
        val = eta_numeric((2,), "fast", 1e-10)
        with mpmath.mp.workdps(60):
            want = mpmath.mpf(frozen_pi_digits) ** 2 / 6
            assert abs(val.value - want) <= 1e-10 + val.error_bound
        assert val.error_bound <= 1e-10

    def test_oracle_agrees_with_symbolic(self):
        # every index of weight 2..7 at the oracle's least tolerance
        shapes = [c for w in range(2, 8) for c in compositions(w)]
        assert len(shapes) == 126
        for parts in shapes:
            oracle = eta_numeric(parts, "oracle", 1e-12)
            exact = eta_symbolic(parts).numeric(30)
            assert oracle.error_bound <= 1e-12, parts
            # both bounds are certified, so they must cover the gap
            assert abs(oracle.value - exact.value) <= oracle.error_bound + exact.error_bound, parts

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(idx=st.integers(2, 9).flatmap(
               lambda w: st.sampled_from([c for c in compositions(w) if len(c) <= 5])),
           log_tolerance=st.floats(-12, -2))
    def test_oracle_bound_holds_against_symbolic(self, idx, log_tolerance):
        tolerance = max(1e-12, 10.0**log_tolerance)
        oracle = eta_numeric(idx, "oracle", tolerance)
        exact = eta_symbolic(idx).numeric(40)
        assert oracle.error_bound <= tolerance
        assert abs(oracle.value - exact.value) <= oracle.error_bound + exact.error_bound

    def test_oracle_matches_float_reference(self):
        # a tolerance just above r n^-w makes n the least N with r N^-w <= tolerance
        cases = [((2,), 32, 2.0**-10)]  # r N^-w equals the tolerance exactly
        for parts in (c for w in range(2, 7) for c in compositions(w)):
            w, r = sum(parts), len(parts)
            for n in sorted({1, 2, r, 10, 997, 10**5}):
                tolerance = r / n**w * (1 + 1e-9)
                if tolerance >= 1e-12:  # below is refused, see test_oracle_rejects_sub_picotolerance
                    cases.append((parts, n, tolerance))
        assert len(cases) == 245
        for parts, n, tolerance in cases:
            r, w, tol = len(parts), sum(parts), Fraction(tolerance)
            assert Fraction(r, n**w) <= tol and (n == 1 or Fraction(r, (n - 1) ** w) > tol)
            got = eta_numeric(parts, "oracle", tolerance)
            total, half_width = float_eta_oracle(parts, n)
            assert float(got.value).hex() == total.hex(), (parts, n)
            bound = half_width + 5e-16 * (total + 1)
            assert (got.error_bound, got.dps) == (bound, 17), (parts, n)

    def test_oracle_shares_no_code_with_the_symbolic_path(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the series oracle called the symbolic reduction")

        for name in ("partial_fraction_shifted", "_eta_symbolic_cached", "zeta_constant"):
            monkeypatch.setattr(zetalike.eta, name, refuse)
        got = eta_numeric((2, 1, 3), "oracle", 1e-9)
        assert got.error_bound <= 1e-9

    def test_oracle_streams_its_terms(self):
        # 10^5 terms of (2,): a list of the terms alone would take 800 KB
        tracemalloc.start()
        try:
            eta_numeric((2,), "oracle", 1e-10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(idx=st.integers(2, 10).flatmap(lambda w: st.sampled_from(tuple(indices(w)))),
           digits=st.integers(1, 300))
    # constants near 1e17 that need 13 digits past the tolerance
    @example(idx=(31, 31), digits=12)
    @example(idx=(35, 35), digits=12)
    def test_bounds_hold_against_mpmath(self, idx, digits):
        expr = eta_symbolic(idx)
        tolerance = 10.0**-digits
        exact = expr.numeric(digits)
        calls = []
        numeric = ZetaExpr.numeric
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ZetaExpr, "numeric",
                          lambda self, d: calls.append(d) or numeric(self, d))
            fast = eta_numeric(idx, "fast", tolerance)
        assert fast.error_bound <= tolerance
        # the sized bound C 10^-d holds at start = digits + 1 and at the sized d
        (sized,) = calls
        scale = expr.bound_scale()
        for d, got in ((digits + 1, expr.numeric(digits + 1)), (sized, fast)):
            man, exp = got.error_bound.man_exp
            assert man * Fraction(2) ** exp <= scale / 10**d
        with mpmath.mp.workdps(2 * digits + 40):
            q = expr.constant
            want = mpmath.mpf(q.numerator) / q.denominator + mpmath.fsum(
                mpmath.mpf(c.numerator) / c.denominator * mpmath.zeta(k)
                for k, c in expr.coeffs.items()
            )
            assert abs(exact.value - want) <= exact.error_bound
            assert abs(fast.value - want) <= fast.error_bound

    @pytest.mark.parametrize("idx, tolerance, cap, needs", [
        # a constant near 1e17 sizes 26 digits, 13 past start = 13: refused
        # under a cap of 25 = start + 12, evaluated under 26 (see below)
        ((31, 31), 1e-12, 25, 26),
        ((40, 40), 1e-12, 26, 31),
        # past the real cap and start + 12 = 303
        ((40, 40), 1e-290, 300, 309),
        ((520, 520), 1e-12, 300, 320),
        # asked zeta(k) for about 615 digits and did not finish in 900 s
        ((1000, 1000), 1e-12, 300, 609),
    ])
    def test_fast_refuses_past_the_digit_cap_without_evaluating(
        self, monkeypatch, idx, tolerance, cap, needs
    ):
        calls = []
        if cap != 300:  # 300 is the real cap, left in place
            monkeypatch.setattr(zetalike.eta, "MAX_DIGITS", cap)
        monkeypatch.setattr(ZetaExpr, "numeric", lambda self, digits: calls.append(digits))
        monkeypatch.setattr(zetalike.eta, "zeta_constant", lambda *args: calls.append(args))
        with pytest.raises(ToleranceError, match=f"needs {needs} digits \\(cap {cap}\\)"):
            eta_numeric(idx, "fast", tolerance)
        assert calls == []

    def test_fast_accepts_a_bound_equal_to_the_tolerance(self, monkeypatch):
        # C 10^-14 is exactly the tolerance, so 14 digits suffice
        calls = []
        numeric = ZetaExpr.numeric
        monkeypatch.setattr(ZetaExpr, "bound_scale", lambda self: Fraction(1e-12) * 10**14)
        monkeypatch.setattr(ZetaExpr, "numeric",
                            lambda self, digits: calls.append(digits) or numeric(self, digits))
        assert eta_numeric((2, 1), "fast", 1e-12).error_bound <= 1e-12
        assert calls == [14]

    @pytest.mark.parametrize("idx, cap, sized", [
        ((31, 31), 26, 26),
        # start + 12 = 25 is evaluated past the cap
        ((30, 30), 24, 25),
    ])
    def test_fast_evaluates_once_at_the_sized_digits(self, monkeypatch, idx, cap, sized):
        calls = []
        numeric = ZetaExpr.numeric
        monkeypatch.setattr(zetalike.eta, "MAX_DIGITS", cap)
        monkeypatch.setattr(ZetaExpr, "numeric",
                            lambda self, digits: calls.append(digits) or numeric(self, digits))
        assert eta_numeric(idx, "fast", 1e-12).error_bound <= 1e-12
        assert calls == [sized]

    @pytest.mark.parametrize("idx", [(2,), (2, 1), (1, 2, 3, 1), (31, 31), (300, 1), (520, 520)])
    def test_bound_scale_sizes_the_proven_constant(self, idx):
        # C of ZetaExpr.numeric's docstring in exact arithmetic, with extra
        # the least e >= 0 with 1 + |c| <= 10^e, and the rounding pad
        expr = eta_symbolic(idx)
        q, coeffs = abs(expr.constant), [abs(c) for c in expr.coeffs.values()]
        n = len(coeffs)
        zeta_share = 0
        for c in coeffs:
            extra = 0
            while 10**extra < 1 + c:
                extra += 1
            zeta_share += c / 10**extra
        exact = ((1 + q) / 10**4 + zeta_share / 100 + Fraction(n, 10**16) * (1 + q + n + 5))
        assert expr.bound_scale() == exact * (1 + Fraction(n + 5, 10**9))

    def test_fast_sizes_weights_up_to_10_at_the_start_digits(self, monkeypatch):
        # the sizing alone, nothing evaluated: every index of weight 2..10
        # (the numeric benchmark's 2..9 among them) certifies at start =
        # digits + 1, 1 digit past the tolerance
        class Sized(Exception):
            pass

        def sized(self, digits):
            raise Sized(digits)

        monkeypatch.setattr(ZetaExpr, "numeric", sized)
        for idx in (c for w in range(2, 11) for c in compositions(w)):
            for digits in (1, 12, 20, 150, 299, 300):
                with pytest.raises(Sized) as got:
                    eta_numeric(idx, "fast", 10.0**-digits)
                assert got.value.args == (digits + 1,), (idx, digits)

    def test_oracle_certifies_weight_two_at_1e8(self):
        # weight 2 at 1e-8: 14,143 terms of (1, 1)
        oracle = eta_numeric((1, 1), "oracle", 1e-8)
        exact = eta_symbolic((1, 1)).numeric(30)
        assert oracle.error_bound <= 1e-8
        assert abs(oracle.value - exact.value) <= oracle.error_bound + exact.error_bound

    @pytest.mark.parametrize("mode", ["oracle", "fast"])
    @pytest.mark.parametrize("tolerance", [0, -1, float("inf"), float("nan")])
    def test_rejects_nonpositive_or_nonfinite_tolerance(self, mode, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            eta_numeric((1, 1), mode, tolerance)

    def test_oracle_rejects_sub_picotolerance(self):
        with pytest.raises(ToleranceError):
            eta_numeric((1, 1, 1, 1), "oracle", 1e-13)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            eta_numeric((1, 1), "wat", 1e-6)


class TestHookClosedForm:
    def test_pure_zeta_at_no_ones(self):
        assert eta_hook_closed_form(2, 0) == ZetaExpr(0, {2: 1})
        assert eta_hook_closed_form(5, 0) == ZetaExpr(0, {5: 1})

    def test_printed_samples(self):
        assert eta_hook_closed_form(3, 1) == ZetaExpr(1, {3: 1, 2: -1})
        assert eta_hook_closed_form(2, 2) == ZetaExpr(Fraction(-5, 8), {2: Fraction(1, 2)})

    def test_matches_symbolic_grid(self):
        for p in range(2, 7):
            for a in range(6):
                assert eta_hook_closed_form(p, a) == eta_symbolic((p,) + (1,) * a)

    def test_rejects_small_head(self):
        with pytest.raises(InadmissibleIndexError):
            eta_hook_closed_form(1, 3)


class TestRestrictedTripleSum:
    def test_q1_printed_value(self):
        assert eta_restricted_triple_sum(1) == ZetaExpr(
            Fraction(9, 8), {2: Fraction(-1, 2)}
        )

    def test_matches_enumeration(self):
        for q in range(1, 7):
            direct = componentwise_sum(
                (1, eta_symbolic((a1 + 1, a2 + 1, 1))) for a1, a2 in weak_compositions(q, 2)
            )
            assert eta_restricted_triple_sum(q) == direct

    def test_consistency_with_half_identity(self):
        for q in range(1, 7):
            total = ZetaExpr.sum([(1, eta_restricted_triple_sum(q)), (1, eta_symbolic((q + 1, 1, 1)))])
            assert total == ZetaExpr(Fraction(1, 2))

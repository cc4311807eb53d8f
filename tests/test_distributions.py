"""Unit and property tests for finite probability distributions."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.distributions import Dist


class TestConstruction:
    def test_point_mass(self):
        d = Dist.point("a")
        assert d("a") == 1
        assert d("b") == 0
        assert d.support() == frozenset({"a"})

    def test_uniform(self):
        d = Dist.uniform(["a", "b", "c", "d"])
        assert d("a") == Fraction(1, 4)
        assert d.total_mass() == 1

    def test_uniform_empty_rejected(self):
        with pytest.raises(ValueError):
            Dist.uniform([])

    def test_duplicate_outcomes_merge(self):
        d = Dist([("a", Fraction(1, 2)), ("a", Fraction(1, 2))])
        assert d("a") == 1

    def test_zero_mass_removed_from_support(self):
        d = Dist({"a": 1, "b": 0})
        assert d.support() == frozenset({"a"})

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            Dist({"a": Fraction(-1, 2), "b": Fraction(3, 2)})

    def test_mass_must_sum_to_one_when_checked(self):
        with pytest.raises(ValueError):
            Dist({"a": Fraction(1, 2)})
        Dist({"a": Fraction(1, 2)}, check=False)  # sub-distributions allowed

    def test_booleans_rejected(self):
        with pytest.raises(TypeError):
            Dist({"a": True})

    def test_convex_combination(self):
        d = Dist.convex([(Dist.point("a"), Fraction(1, 3)), (Dist.point("b"), Fraction(2, 3))])
        assert d("a") == Fraction(1, 3)
        assert d("b") == Fraction(2, 3)


class TestQueries:
    def test_prob_of_predicate(self):
        d = Dist.uniform([1, 2, 3, 4])
        assert d.prob_of(lambda x: x % 2 == 0) == Fraction(1, 2)

    def test_expectation(self):
        d = Dist({1: Fraction(1, 2), 3: Fraction(1, 2)})
        assert d.expectation(lambda x: x) == pytest.approx(2.0)

    def test_total_mass(self):
        assert Dist.uniform("abc").total_mass() == 1

    def test_normalise(self):
        d = Dist({"a": Fraction(1, 4), "b": Fraction(1, 4)}, check=False)
        assert d.normalise()("a") == Fraction(1, 2)

    def test_normalise_zero_rejected(self):
        with pytest.raises(ValueError):
            Dist({}, check=False).normalise()


class TestMonad:
    def test_map_merges_collisions(self):
        d = Dist.uniform([1, 2, 3, 4]).map(lambda x: x % 2)
        assert d(0) == Fraction(1, 2)
        assert d(1) == Fraction(1, 2)

    def test_bind(self):
        d = Dist.uniform([0, 1]).bind(lambda x: Dist.uniform([x, x + 10]))
        assert d(0) == Fraction(1, 4)
        assert d(11) == Fraction(1, 4)

    def test_bind_preserves_total_mass(self):
        d = Dist.uniform([0, 1]).bind(lambda x: Dist.point(x * 2))
        assert d.total_mass() == 1

    def test_product(self):
        d = Dist.uniform([0, 1]).product(Dist.uniform(["a", "b"]))
        assert d((0, "a")) == Fraction(1, 4)

    def test_monad_left_identity(self):
        kernel = lambda x: Dist.uniform([x, x + 1])  # noqa: E731
        assert Dist.point(3).bind(kernel) == kernel(3)

    def test_monad_right_identity(self):
        d = Dist.uniform([1, 2, 3])
        assert d.bind(Dist.point) == d

    @pytest.mark.parametrize("low,high", [(Fraction(1, 4), Fraction(3, 4)), (0.25, 0.75)])
    def test_operations_keep_the_mass_type(self, low, high):
        # Colliding images force every operation to add masses up.
        kind = type(low)
        d = Dist({0: low, 1: high})
        results = [
            d.map(lambda x: "same"),
            d.bind(lambda x: d),
            Dist.convex([(d, d(0)), (d, d(1))]),
            d.product(d).map(lambda pair: pair[0]),
        ]
        for result in results:
            assert result.total_mass() == 1
            assert all(type(mass) is kind for _, mass in result.items())


class TestComparisons:
    def test_equality_exact(self):
        assert Dist({"a": Fraction(1, 2), "b": Fraction(1, 2)}) == Dist(
            {"b": Fraction(1, 2), "a": Fraction(1, 2)}
        )

    def test_close_to_with_floats(self):
        a = Dist({"a": 0.5, "b": 0.5})
        b = Dist({"a": 0.5 + 1e-12, "b": 0.5 - 1e-12})
        assert a.close_to(b)

    def test_tv_distance(self):
        a = Dist.point("a")
        b = Dist.point("b")
        assert a.tv_distance(b) == pytest.approx(1.0)

    def test_dominated_by_with_ignored_outcome(self):
        a = Dist({"x": Fraction(1, 2), "drop": Fraction(1, 2)})
        b = Dist({"x": Fraction(3, 4), "drop": Fraction(1, 4)})
        assert a.dominated_by(b, ignore=frozenset({"drop"}))
        assert not b.dominated_by(a, ignore=frozenset({"drop"}))

    def test_with_floats_and_fractions(self):
        d = Dist({"a": Fraction(1, 3), "b": Fraction(2, 3)})
        floats = d.with_floats()
        assert isinstance(floats("a"), float)
        back = floats.with_fractions(limit_denominator=100)
        assert back("a") == Fraction(1, 3)


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.fractions(min_value=0, max_value=1)),
        min_size=1,
        max_size=8,
    )
)
def test_map_preserves_total_mass(pairs):
    d = Dist(pairs, check=False)
    assert d.map(lambda x: x % 2).total_mass() == d.total_mass()


@given(st.lists(st.integers(0, 20), min_size=1, max_size=10))
def test_uniform_is_a_probability_distribution(outcomes):
    d = Dist.uniform(outcomes)
    assert d.total_mass() == 1
    assert all(mass > 0 for _, mass in d.items())

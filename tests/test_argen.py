"""Impulse responses, characteristic roots, partial fractions, and c*."""

import numpy as np
import pytest

from potkernels import (
    InputError,
    c_star,
    char_roots,
    partial_fractions,
    phi_closed,
    phi_recursive,
)

ROUTE_TOL = 1e-10

SIMPLE = (0.5, 0.25)
# drift family with P(x) = (1 - x/a)(1 + x/b)^2 at a=1, b=3
REPEATED = (1 / 3, 5 / 9, 1 / 9)
COMPLEX = (0.25, 0.125, 0.5)


class TestPhiRecursive:
    def test_simple_family_prefix(self):
        phi = phi_recursive(SIMPLE, 6)
        np.testing.assert_allclose(
            phi.values, [1, 1 / 2, 1 / 2, 3 / 8, 5 / 16, 1 / 4], rtol=1e-15
        )

    def test_repeated_family_prefix(self):
        phi = phi_recursive(REPEATED, 8)
        expected = [1, 1 / 3, 2 / 3, 14 / 27, 47 / 81, 5 / 9, 412 / 729, 1228 / 2187]
        np.testing.assert_allclose(phi.values, expected, rtol=1e-14)

    def test_complex_family_term(self):
        phi = phi_recursive(COMPLEX, 5)
        assert phi.values[4] == pytest.approx(75 / 256, abs=1e-15)

    def test_drift_coefficient_only_at_unit_mass(self):
        assert phi_recursive(SIMPLE, 4).c1 is None
        drift = phi_recursive(REPEATED, 4)
        assert drift.c1 == pytest.approx(9 / 16, abs=1e-14)


class TestCharRoots:
    def test_simple_roots(self):
        rs = char_roots(SIMPLE)
        assert rs.classification == "all-outside-unit-disk"
        assert list(rs.multiplicities) == [1, 1]
        got = sorted(rs.roots.real)
        np.testing.assert_allclose(
            got, [-1 - np.sqrt(5), -1 + np.sqrt(5)], rtol=1e-12
        )

    def test_repeated_root_multiplicity(self):
        rs = char_roots(REPEATED)
        assert rs.classification == "unit-root-simple"
        assert sorted(rs.multiplicities) == [1, 2]
        np.testing.assert_allclose(sorted(rs.roots.real), [-3.0, 1.0], atol=1e-9)

    def test_complex_pair(self):
        rs = char_roots(COMPLEX)
        assert rs.classification == "all-outside-unit-disk"
        assert np.any(np.abs(rs.roots.imag) > 0.1)
        moduli = np.sort(np.abs(rs.roots))
        np.testing.assert_allclose(moduli[0], 1.0595644767948156, rtol=1e-12)
        assert np.all(moduli > 1.0)

    def test_residuals_are_small(self):
        for p in (SIMPLE, REPEATED, COMPLEX):
            rs = char_roots(p)
            assert np.max(rs.residuals) < 1e-9


class TestPartialFractions:
    def test_simple_weights(self):
        table = partial_fractions(SIMPLE)
        weights = sorted(float(b[0].real) for b in table.B)
        target = 2.0 * np.sqrt(5.0) / 5.0
        np.testing.assert_allclose(weights, [-target, target], rtol=1e-12)

    def test_repeated_weights(self):
        table = partial_fractions(REPEATED)
        flat = sorted(
            float(b.real) for row in table.B for b in np.atleast_1d(row)
        )
        np.testing.assert_allclose(flat, [-3 / 4, 3 / 16, 9 / 16], atol=1e-12)


class TestClosedVsRecursive:
    @pytest.mark.parametrize("p", [SIMPLE, REPEATED, COMPLEX])
    def test_routes_agree(self, p):
        n = 200
        rec = phi_recursive(p, n).values
        clo = phi_closed(p, n).values
        np.testing.assert_allclose(clo, rec, atol=ROUTE_TOL)

    def test_random_stable_families(self):
        r = np.random.default_rng(7)
        for _ in range(10):
            k = int(r.integers(1, 5))
            raw = r.uniform(0.05, 1.0, k)
            p = tuple(raw / raw.sum() * r.uniform(0.3, 0.999))
            rec = phi_recursive(p, 120).values
            clo = phi_closed(p, 120).values
            np.testing.assert_allclose(clo, rec, atol=ROUTE_TOL)


class TestCStar:
    def test_simple_value_and_routes(self):
        res = c_star(SIMPLE)
        assert res.value == pytest.approx(48 / 25, abs=1e-9)
        assert abs(res.value - res.direct) <= 1e-9

    def test_simple_l1_and_bounds(self):
        res = c_star(SIMPLE)
        assert res.l1 == pytest.approx(4.0, rel=1e-12)
        assert res.l1_expected == pytest.approx(4.0, rel=1e-12)
        assert res.lower == pytest.approx(1.25, rel=1e-12)
        assert res.upper == pytest.approx(16 / 7, rel=1e-12)
        assert res.lower <= res.value <= res.upper

    def test_complex_family(self):
        res = c_star(COMPLEX)
        assert res.value == pytest.approx(2.4615384615384615, rel=1e-10)
        assert res.l1 == pytest.approx(8.0, rel=1e-10)
        assert res.lower <= res.value <= res.upper

    def test_drift_family_has_no_finite_variance(self):
        with pytest.raises(ValueError):
            c_star(REPEATED)


class TestValidation:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            phi_recursive((0.5, -0.1), 5)

    def test_rejects_supercritical_mass(self):
        with pytest.raises(ValueError):
            phi_recursive((0.8, 0.4), 5)

    @pytest.mark.parametrize("route", [phi_recursive, phi_closed])
    def test_rejects_no_terms(self, route):
        with pytest.raises(InputError, match="N must be >= 1"):
            route((0.5, 0.25), 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "route", [lambda p: phi_recursive(p, 3), c_star], ids=["phi_recursive", "c_star"]
    )
    def test_rejects_non_finite_weights(self, route, bad):
        # NaN passes the sign and mass checks, which compare False
        with pytest.raises(InputError, match="p must be finite"):
            route([bad])

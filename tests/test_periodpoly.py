"""Exact cocycle algebra: zero-tolerance identities over the symbolic basis."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modzeta.errors import DomainError
from modzeta.exactnum import SymScalar, zeta_even_exact, zeta_odd_numeric
from modzeta.periodpoly import (
    IDENTITY,
    Poly,
    RationalPeriodFunction,
    S,
    T,
    T_INV,
    bol_check,
    cocycle_compose,
    diff_relation_constant,
    eichler_shimura_check,
    p_T,
    pbar,
    pbar_cocycle,
    rbar,
    rbar_cocycle,
    stroke,
)
from modzeta.qseries import phi_bar


# ------------------------------------------------------------------- group
def test_group_element_algebra():
    assert S * S.inverse() == IDENTITY
    assert T * T_INV == IDENTITY
    ts = T * S
    assert ts * ts * ts == GroupElementNeg()  # (TS)^3 = -I
    with pytest.raises(DomainError):
        from modzeta.periodpoly import GroupElement

        GroupElement(1, 1, 1, 1)
    with pytest.raises(DomainError):
        T._replace(c=1)  # _replace checks as the constructor does
    with pytest.raises(TypeError):
        T * 2  # not a tuple repeated
    with pytest.raises(TypeError):
        2 * T


def GroupElementNeg():
    from modzeta.periodpoly import GroupElement

    return GroupElement(-1, 0, 0, -1)


# -------------------------------------------------------------------- pbar
def test_pbar_value_at_zero():
    v = pbar(2).to_poly().eval_exact(0)
    assert v == SymScalar.pi_term(-2, 1, 3)
    assert abs(v.numeric() + 2 * math.pi * zeta_odd_numeric(3)) < 1e-14


def test_pbar_t2_explicit_coefficients():
    # -2 pi zeta(3)(x^2 + 1) + 4 zeta(2)^2 x, with 4 zeta(2)^2 = pi^4/9
    c = pbar(2).coeffs
    assert c[0] == SymScalar.pi_term(-2, 1, 3)
    assert c[2] == SymScalar.pi_term(-2, 1, 3)
    assert c[1] == SymScalar.pi_term(Fraction(1, 9), 4)


def test_pbar_antisymmetry_exact():
    # p(x) + (i x)^{2t-2} p(1/x) = 0, i.e. in the tau picture
    # pbar_cocycle|(1+S) = 0, exactly, for t = 2..6
    for t in range(2, 7):
        pc = pbar_cocycle(t)
        assert (pc + stroke(pc, S)).is_zero()
        assert stroke(pc, S).equals(-pc)


def test_pbar_real_on_real_axis():
    for t in (2, 3, 4):
        for c in pbar(t).coeffs:
            assert isinstance(c, SymScalar)
            assert all(e == 0 for _, _, e, _ in c.terms)  # by construction: no i part


def test_pbar_matches_phi_bar_gap_numerically():
    t, x = 2, 0.9
    gap = phi_bar(t, x).value - (-1) ** (t - 1) * x ** (2 * t - 2) * phi_bar(t, 1 / x).value
    assert abs(gap - pbar(t).eval_numeric(x)) < 1e-10


def test_pbar_at_large_t():
    # one growing Bernoulli table keeps the exact coefficients cheap, and
    # past t = 91 zeta(2t - 1) rounds to 1 instead of overflowing.  Oracle:
    # the exact coefficients summed by mpmath at 40 digits give
    # -3.4324310073409956 at t = 92, 200, 300 and 310
    for t in (91, 92, 100):
        assert abs(pbar(t).eval_numeric(0.5) + 3.4324310073409956) < 1e-13


def test_pbar_domain():
    with pytest.raises(DomainError):
        pbar(1)


# -------------------------------------------------------------------- rbar
def test_rbar_lemniscate_value():
    got = rbar(2).eval_exact(1).numeric()
    expect = 2 * (7 * math.pi ** 4 / 90 - 2 * math.pi * zeta_odd_numeric(3))
    assert abs(got - expect) < 1e-13


def test_rbar_minus_pbar_is_the_two_end_terms():
    for t in (2, 3):
        z2t = zeta_even_exact(2 * t)
        diff = rbar(t) - RationalPeriodFunction.from_poly(pbar(t).to_poly(), 2 * t - 2)
        end = RationalPeriodFunction(
            Poly.monomial(Fraction(2 * (-1) ** t) * z2t, 2 * t)
            + Poly([2 * z2t]),
            Poly.monomial(1, 1),
            2 * t - 2,
        )
        assert diff.equals(end)


def test_rbar_antisymmetry_exact():
    for t in (2, 3, 4, 5, 6):
        rc = rbar_cocycle(t)
        assert (rc + stroke(rc, S)).is_zero()


def test_rbar_zeta_coefficients_equal_bernoulli_form():
    # the zeta(2j) zeta(2t-2j) products in the extended polynomial equal
    # their Bernoulli/pi^{2t} form with overall (2 pi)^{2t} scaling (the
    # step behind the classical Bernoulli writing of the coefficients)
    from modzeta.exactnum import bernoulli

    for t in (2, 3, 4):
        for j in range(0, t + 1):
            if j == 0 or j == t:
                # zeta(0) zeta(2t) = -(1/2) zeta(2t)
                zz = SymScalar.rational(Fraction(-1, 2)) * zeta_even_exact(2 * t)
            else:
                zz = zeta_even_exact(2 * j) * zeta_even_exact(2 * t - 2 * j)
            bform = Fraction((-1) ** t) * Fraction(2) ** (2 * t) * bernoulli(2 * j) * bernoulli(
                2 * t - 2 * j
            ) / (4 * math.factorial(2 * j) * math.factorial(2 * t - 2 * j))
            expect = SymScalar.pi_term(bform, 2 * t)
            assert zz == expect


# --------------------------------------------------------------------- p_T
def test_p_T_value_and_decay():
    v = p_T(2).eval_exact(1)
    assert v == zeta_even_exact(4)  # 2 zeta(4) (1 - 1/2)
    assert abs(v.numeric() - math.pi ** 4 / 90) < 1e-14
    # vanishes at infinity: numerator degree < denominator degree
    assert p_T(3).num.degree < p_T(3).den.degree


def test_p_T_matches_phi_bar_translation_gap():
    # in the tau picture the gap of phi_bar is i P(T); evaluate at
    # tau0 = 0.3 + 1.1i, i.e. x0 = -i tau0 in the right half-plane
    t = 2
    tau0 = 0.3 + 1.1j
    x0 = -1j * tau0
    gap = phi_bar(t, x0 - 1j).value - phi_bar(t, x0).value
    assert abs(-1j * gap - p_T(t).eval_numeric(tau0)) < 1e-10


# ------------------------------------------------------------------ stroke
def test_stroke_identity_and_right_action():
    f = p_T(2)
    assert stroke(f, IDENTITY).equals(f)
    rng = random.Random(2718)
    letters = [S, T, T_INV]
    for _ in range(8):
        g1 = letters[rng.randrange(3)] * letters[rng.randrange(3)]
        g2 = letters[rng.randrange(3)]
        assert stroke(stroke(f, g1), g2).equals(stroke(f, g1 * g2))


# ---------------------------------------------------------------- cocycles
@pytest.mark.parametrize("t", [2, 3])
def test_cocycle_displays_TS_and_ST(t):
    gens = {"S": pbar_cocycle(t), "T": p_T(t)}
    z2t = zeta_even_exact(2 * t)
    got = cocycle_compose(gens, [T, S])
    expect = RationalPeriodFunction(
        Poly.monomial(2 * z2t, 2 * t), Poly([1, -1]), 2 * t - 2
    ) + pbar_cocycle(t)
    assert got.equals(expect)
    got2 = cocycle_compose(gens, [S, T])
    pbar_shift = stroke(pbar_cocycle(t), T)  # (tau+1) substitution, weight factor 1
    expect2 = RationalPeriodFunction(
        Poly([2 * z2t]), Poly([0, 1, 1]), 2 * t - 2
    ) + pbar_shift
    assert got2.equals(expect2)


def test_cocycle_on_inverse_pair_vanishes():
    gens = {"S": pbar_cocycle(2), "T": p_T(2)}
    assert cocycle_compose(gens, [T, T_INV]).is_zero()


def test_cocycle_word_refuses_a_product_letter():
    gens = {"S": pbar_cocycle(2), "T": p_T(2)}
    with pytest.raises(DomainError, match=r"word letters must be S, T or T\^-1; got GroupElement\(a=0, b=-1, c=1, d=1\)"):
        cocycle_compose(gens, [T, S * T])


def test_cocycle_law_on_random_words():
    rng = random.Random(58008)
    letters = [S, T, T_INV]
    for t in (2, 3, 4, 5, 6):
        gens = {"S": pbar_cocycle(t), "T": p_T(t)}
        for _ in range(10):
            w1 = [rng.choice(letters) for _ in range(rng.randint(1, 3))]
            w2 = [rng.choice(letters) for _ in range(rng.randint(1, 3))]
            g2 = w2[0]
            for g in w2[1:]:
                g2 = g2 * g
            lhs = cocycle_compose(gens, w1 + w2)
            rhs = stroke(cocycle_compose(gens, w1), g2) + cocycle_compose(gens, w2)
            assert lhs.equals(rhs)


# ----------------------------------------------------------- Eichler-Shimura
def test_eichler_shimura_eisenstein_cocycle():
    for t in (2, 3):
        res = eichler_shimura_check(pbar_cocycle(t))
        assert res.first
        # the non-cusp cocycle has P(T) != 0, so the cusp-only second
        # relation fails even though the full cocycle law holds
        assert not res.second


def test_eichler_shimura_zero_cocycle():
    zero = RationalPeriodFunction.from_poly(Poly(), 4)
    res = eichler_shimura_check(zero)
    assert res.first and res.second and bool(res)


# --------------------------------------------------------------------- Bol
def test_bol_annihilates_low_degree():
    # D^{r+1} of degree <= r: both sides vanish
    assert bol_check(Poly([1]), S, 3)
    assert bol_check(Poly([2, 5, 1]), S, 2)


def test_bol_specific_examples():
    assert bol_check(Poly.monomial(1, 3), S, 2)  # tau^{r+1}, S
    assert bol_check(Poly.monomial(1, 4), T, 2)  # tau^{2r}, T


def test_bol_monomial_sweep():
    ts = T * S
    for r in (0, 1, 2, 4, 6):
        for g in (S, T, ts):
            for k in range(0, r + 5):
                assert bol_check(Poly.monomial(1, k), g, r)


# --------------------------------------------------- differential relation
def test_diff_relation_constant_measured():
    for t in (2, 3):
        c = diff_relation_constant(t)
        # constancy at 1e-8 is asserted inside; the measured value is
        # 2^{2t+1} pi in the D(q^{2m}) = 2m q^{2m} normalization
        assert abs(c - 2 ** (2 * t + 1) * math.pi) < 1e-9 * c


def test_diff_relation_kernel_part():
    # D^{2t-1} annihilates the degree-(2t-2) complementary polynomial:
    # its (2t-1)-th tau-derivative is identically zero
    theta = Poly([1, 2, 3])  # degree 2 = 2t-2 for t=2
    d = theta
    for _ in range(3):
        d = d.derivative()
    assert d.is_zero()


# ------------------------------------------------- exact algebra, controls
I = SymScalar({(0, 0, 1): 1})


def _times_minus_i_power(c, k):
    # (-i)^k c through SymScalar arithmetic, independent of Poly storage
    for _ in range(k):
        c = c * SymScalar({(0, 0, 1): -1})
    return c


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_tiny_perturbation_breaks_exact_equality(t):
    pc = pbar_cocycle(t)
    assert (pc + stroke(pc, S)).is_zero()
    for k in range(2 * t - 1):
        for c in (Fraction(1, 10 ** 30), SymScalar.pi_term(1, 2 * t)):
            bump = RationalPeriodFunction.from_poly(Poly.monomial(c, k), 2 * t - 2)
            bad = pc + bump
            assert not bad.equals(pc)
            assert not (bad - pc).equals(RationalPeriodFunction.from_poly(Poly(), 2 * t - 2))
            assert not (bad - pc).is_zero()
            if k != t - 1 or k % 2 == 0:
                # tau^k|(1+S) = tau^k + (-1)^k tau^(2t-2-k) vanishes only
                # for odd k = t-1
                assert not (bad + stroke(bad, S)).is_zero()


_COCYCLES = {"pbar": pbar_cocycle, "rbar": rbar_cocycle, "p_T": p_T}
_WORD = st.lists(st.sampled_from([S, T, T_INV]), min_size=1, max_size=4)


def _product(word):
    g = IDENTITY
    for h in word:
        g = g * h
    return g


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(_COCYCLES)),
    t=st.integers(2, 6),
    w1=_WORD,
    w2=_WORD,
)
def test_stroke_is_a_right_action_property(name, t, w1, w2):
    f = _COCYCLES[name](t)
    g, h = _product(w1), _product(w2)
    lhs = stroke(stroke(f, g), h)
    rhs = stroke(f, g * h)
    assert lhs.equals(rhs)
    assert (lhs - rhs).is_zero()
    other = stroke(f, g)
    assert other.equals(f) == (other - f).is_zero()


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_coefficient_views_match_symcomplex_reference(t):
    ref = list(pbar(t).coeffs)
    assert pbar(t).to_poly().coeffs == tuple(ref)
    assert pbar_cocycle(t).num.coeffs == tuple(_times_minus_i_power(c, k) for k, c in enumerate(ref))
    assert pbar_cocycle(t).den.coeffs == (1,)
    z2t = zeta_even_exact(2 * t)
    end = Fraction(2 * (-1) ** t) * z2t
    assert rbar(t).num.coeffs == (2 * z2t, *ref, end)
    assert rbar(t).den.coeffs == (0, 1)
    assert rbar_cocycle(t).den.coeffs == (0, -I)
    assert p_T(t).num.coeffs == (2 * z2t,)
    assert p_T(t).den.coeffs == (0, 1, 1)
    # equality is by value, whatever the construction order or denominator
    assert Poly(ref) == pbar(t).to_poly() == Poly(list(reversed(ref[::-1])))
    assert (pbar(t).to_poly() + Poly([Fraction(1, 3)])) - Poly([Fraction(1, 3)]) == Poly(ref)
    assert Poly([Fraction(1, 2), 1]) * 2 == Poly([1, 2])
    assert Poly(ref) != Poly(ref[:-1])


@pytest.mark.parametrize("t", [2, 3, 4])
def test_eval_exact_matches_symscalar_reference(t):
    z2t = zeta_even_exact(2 * t)
    for x in (Fraction(1), Fraction(3, 2), Fraction(-2, 7)):
        px = sum((c * SymScalar.rational(x ** k) for k, c in enumerate(pbar(t).coeffs)), SymScalar())
        assert pbar(t).to_poly().eval_exact(x) == px
        end = Fraction(2 * (-1) ** t) * z2t * SymScalar.rational(x ** (2 * t - 1))
        end = end + 2 * z2t * SymScalar.rational(1 / x)
        assert rbar(t).eval_exact(x) == px + end
        assert p_T(t).eval_exact(x) == 2 * z2t * SymScalar.rational(1 / (x + x * x))


def test_poly_product_matches_symcomplex_product():
    z3 = SymScalar.pi_term(Fraction(-2, 3), 1, 3)
    z4 = zeta_even_exact(4)
    zeta_free = [I, Fraction(1, 7) + I * z4, z4 - I]
    for a in zeta_free + [z3 + I * z4, 1 + I * z3]:
        for b in zeta_free:
            assert (Poly([a, b]) * Poly([b, 1])).coeffs == (a * b, a + b * b, b)
    # (-i tau)^2 = -tau^2
    assert (rbar_cocycle(2).den ** 2).coeffs == (0, 0, -1)

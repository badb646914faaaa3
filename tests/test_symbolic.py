"""Symbolic proofs of the closed forms in u = e^{-2t}.

Each probe distance is D = b sqrt(S) / E with b = sqrt(1 - a^2), and each
derivative prefactor is c b u / (E^2 sqrt(S)) with S, E > 0.  The proofs
below show that -2u dD/du (which is dD/dt) equals that prefactor times the
table bracket of ``detect``, that D is the distance of the closed-form
weights, and that the u-form weights of ``control`` equal their
x = e^{2t} forms.  Brackets enter as the package computes them, called on
symbols; the other forms are stated here and pinned to the package's
numbers at sample points.
"""

import numpy as np
import pytest

sp = pytest.importorskip("sympy")

from backflow import control, detect  # noqa: E402

a, p, u, x = sp.symbols("a p u x", positive=True)
v = 1 - u

# x-form weights of the plus-outcome outputs
PATH_X = (2 * (x + 1) / ((4 + p) * x - p), (x - 1) / ((4 + p) * x - p))
SWITCH_DEN_X = (4 + 3 * p) * x**2 + 2 * p * x - p
SWITCH_X = (
    ((2 + p) * x**2 + 2 * p * x + p + 2) / SWITCH_DEN_X,
    2 * (1 + p) * (x**2 - 1) / SWITCH_DEN_X,
    ((1 + 2 * p) * x**2 + 2 * x + 2 * p + 1) / SWITCH_DEN_X,
)

# u-form weights, as control.path_coefficients / switch_coefficients state them
PATH_U = (2 * (1 + u) / (4 + p * v), v / (4 + p * v))
SWITCH_DEN_U = 4 + 3 * p + p * u * (2 - u)
SWITCH_U = (
    ((2 + p) + 2 * p * u + (p + 2) * u**2) / SWITCH_DEN_U,
    2 * (1 + p) * (1 - u**2) / SWITCH_DEN_U,
    ((1 + 2 * p) + 2 * u + (2 * p + 1) * u**2) / SWITCH_DEN_U,
)

# (S, E, c) of each mode: D = b sqrt(S) / E, prefactor = c b u / (E^2 sqrt(S))
FORMS = {
    "bare": (a**2 * (1 + 2 * u) + (4 - 3 * a**2) * u**2, sp.Integer(2), 4),
    "path": (4 * a**2 * (p + 1) * (1 + 2 * u - 3 * u**2) + (p - (p + 4) * u) ** 2, 4 + p * v, 16),
    "switch": (
        a**2 * (p + 1) * (1 + u + 3 * u**2 - 5 * u**3) * ((3 * p + 1) + (p + 3) * u)
        + (p * (1 - 3 * u) * (1 + u) - 4 * u**2) ** 2,
        SWITCH_DEN_U,
        8 * (p + 1),
    ),
}

# D^2 from the closed-form weights
DISTANCE_SQUARED = {
    "bare": (1 - a**2) * FORMS["bare"][0] / 4,
    "path": (1 - a**2) * ((1 - a**2) * (2 * PATH_U[0] - 1) ** 2 + a**2 * (PATH_U[0] + p * PATH_U[1]) ** 2),
    "switch": (1 - a**2) * ((1 - a**2) * (SWITCH_U[0] - SWITCH_U[1]) ** 2 + a**2 * SWITCH_U[2] ** 2),
}

SAMPLES = [(a_, p_, t_) for a_ in (0.05, 0.5, 0.9) for p_ in (0.0, 0.4, 1.0) for t_ in (0.0, 1e-3, 0.7, 5.0, 300.0)]


def table_bracket(mode):
    """The package's bracket for a mode, as an exact polynomial in u."""
    coeffs = detect._MODES[mode].bracket(a, p)
    return sp.nsimplify(sum(c * u**k for k, c in enumerate(coeffs)), rational=True)


def _is_zero(expr):
    """True when the numerator of the rational function expr expands to 0."""
    return sp.expand(sp.numer(sp.together(expr))) == 0


def _distance_and_prefactor(mode, b):
    s, e, c = FORMS[mode]
    return b * sp.sqrt(s) / e, c * b * u / (e**2 * sp.sqrt(s))


@pytest.mark.parametrize("mode", list(FORMS))
def test_derivative_is_prefactor_times_table_bracket(mode):
    # b = sqrt(1 - a^2) does not depend on u, so a free symbol stands for it
    b = sp.Symbol("b", positive=True)
    s, e, _ = FORMS[mode]
    distance, prefactor = _distance_and_prefactor(mode, b)
    residual = -2 * u * sp.diff(distance, u) - prefactor * table_bracket(mode)
    # sqrt(S) E^2 / (b u) clears every root
    assert _is_zero(residual * sp.sqrt(s) * e**2 / (b * u))


@pytest.mark.parametrize("mode", list(FORMS))
def test_distance_is_that_of_the_weights(mode):
    s, e, _ = FORMS[mode]
    assert _is_zero(DISTANCE_SQUARED[mode] - (1 - a**2) * s / e**2)


@pytest.mark.parametrize("in_u, in_x", [(PATH_U, PATH_X), (SWITCH_U, SWITCH_X)], ids=["path", "switch"])
def test_u_form_weights_equal_x_form_weights(in_u, in_x):
    for w_u, w_x in zip(in_u, in_x):
        assert _is_zero(w_u.subs(u, 1 / x) - w_x)


def test_pure_control_brackets_reduce():
    # at p = 1: x times the path bracket is 14a^2 - 15 - 3(2a^2 - 1)x, and
    # x^4 times the switch quartic is the hyperbolic quadratic
    # 8(1-a^2) sinh 2t - (2-a^2)(3 cosh 2t + 1) times 2x(x^2 + 6x + 1)
    path = table_bracket("path").subs({p: 1, u: 1 / x}) * x
    assert _is_zero(path - (14 * a**2 - 15 - 3 * (2 * a**2 - 1) * x))
    sinh2, cosh2 = (x - 1 / x) / 2, (x + 1 / x) / 2
    quadratic = 8 * (1 - a**2) * sinh2 - (2 - a**2) * (3 * cosh2 + 1)
    switch = table_bracket("switch").subs({p: 1, u: 1 / x}) * x**4
    assert _is_zero(switch - quadratic * 2 * x * (x**2 + 6 * x + 1))


def _numeric(expr):
    return sp.lambdify((a, p, u), expr, "numpy")


@pytest.mark.parametrize("mode", list(FORMS))
def test_package_forms_are_the_proven_ones(mode):
    distance, prefactor = map(_numeric, _distance_and_prefactor(mode, sp.sqrt(1 - a**2)))
    for a_, p_, t_ in SAMPLES:
        u_ = np.exp(-2.0 * t_)
        assert detect._MODES[mode].distance(a_, p_, t_) == pytest.approx(distance(a_, p_, u_), rel=1e-13)
        assert detect._MODES[mode].prefactor(a_, p_, t_) == pytest.approx(prefactor(a_, p_, u_), rel=1e-13, abs=1e-300)


def test_package_weights_are_the_proven_ones():
    for coefficients, forms in ((control.path_coefficients, PATH_U), (control.switch_coefficients, SWITCH_U)):
        numeric = [_numeric(w) for w in forms]
        for a_, p_, t_ in SAMPLES:
            got = coefficients(t_, p_)
            want = [w(a_, p_, np.exp(-2.0 * t_)) for w in numeric]
            assert got == pytest.approx(want, rel=1e-13)


def squared_threshold(mode):
    """a^2 at which the bracket's u^0 coefficient, its sign as u = e^{-2t} -> 0,
    vanishes; the coefficient is linear in a^2."""
    coeff0 = table_bracket(mode).subs(u, 0)
    a2 = sp.Symbol("a2", positive=True)
    (root,) = sp.solve(coeff0.subs(a, sp.sqrt(a2)), a2)
    return coeff0, root


@pytest.mark.parametrize("mode, expected", [("path", p / (1 + p)), ("switch", 2 * p**2 / (3 * p + 2))])
def test_thresholds_follow_from_the_late_time_coefficient(mode, expected):
    coeff0, root = squared_threshold(mode)
    assert _is_zero(root - expected)
    # coeff0 = c(p) (root - a^2) with c(p) > 0 on [0, 1], so late-time
    # backflow (coeff0 > 0) holds exactly for a below sqrt(root)
    c = sp.factor(coeff0 / (root - a**2))
    assert not c.has(a)
    assert sp.minimum(c, p, sp.Interval(0, 1)) > 0
    for p_ in (0.0, 0.1, 0.5, 1.0):
        assert detect._MODES[mode].threshold(p_) ** 2 == pytest.approx(float(root.subs(p, p_)), rel=1e-15, abs=0.0)


def test_path_threshold_dominates_switch():
    # path ⊇ switch: p/(1+p) - 2p^2/(3p+2) = p (2 + p - 2p^2) / ((1+p)(3p+2)),
    # and 2 + p - 2p^2 >= 1 on [0, 1], so the difference is >= 0 there
    gap = squared_threshold("path")[1] - squared_threshold("switch")[1]
    assert _is_zero(gap - p * (2 + p - 2 * p**2) / ((1 + p) * (3 * p + 2)))
    assert sp.minimum(2 + p - 2 * p**2, p, sp.Interval(0, 1)) == 1

"""Symbolic proofs of the closed forms in u = e^{-2t}.

Every configuration is a Pauli-diagonal qubit channel: its output for an
input with Bloch vector r is (I + sum_j lambda_j r_j sigma_j) / 2, with
lambda_j = n_j / Delta from the row of ``control.BLOCH_ROWS``.  The proofs
below derive those rows from the Kraus supermaps, post-selected on |+>, and
from the closed-form weights; show that the outcome probability does not
depend on the input; and show that the probe distance D = b sqrt(S) / Delta,
S = a^2 n_x^2 + b^2 n_z^2 with b = sqrt(1 - a^2), has the derivative
-2u dD/du = b u / (Delta^2 sqrt(S)) times the bracket that ``detect``
derives from the row.  That bracket is c times the hand-written bracket
stated here, which is kept only as this oracle, and it reduces at p = 1 to
the paper's forms in ``conftest``.  Rows and brackets enter as the package
computes them, called on symbols; the weights are stated here and pinned to
the package's numbers at sample points.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

sp = pytest.importorskip("sympy")

from backflow import control, detect, poly  # noqa: E402
from backflow.cli import main  # noqa: E402
from conftest import pure_control_parts  # noqa: E402

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

# u-form weights: path (A, B) and switch (A, B, C)
PATH_U = (2 * (1 + u) / (4 + p * v), v / (4 + p * v))
SWITCH_DEN_U = 4 + 3 * p + p * u * (2 - u)
SWITCH_U = (
    ((2 + p) + 2 * p * u + (p + 2) * u**2) / SWITCH_DEN_U,
    2 * (1 + p) * (1 - u**2) / SWITCH_DEN_U,
    ((1 + 2 * p) + 2 * u + (2 * p + 1) * u**2) / SWITCH_DEN_U,
)

# Bloch multipliers of the weights: the entry maps
# [s11 A + (2+p) s22 B, s12 A + p s21 B; p s12 B + s21 A, (2+p) s11 B + s22 A]
# (path) and [s11 A + s22 B, s12 C; s21 C, s11 B + s22 A] (switch)
WEIGHT_MULTIPLIERS = {
    "path": (PATH_U[0] + p * PATH_U[1], PATH_U[0] - p * PATH_U[1], PATH_U[0] - (2 + p) * PATH_U[1]),
    "switch": (SWITCH_U[2], SWITCH_U[2], SWITCH_U[0] - SWITCH_U[1]),
}

# D^2 from the closed-form weights, and for bare from the stated radicand
DISTANCE_SQUARED = {
    "bare": (1 - a**2) * (a**2 * (1 + 2 * u) + (4 - 3 * a**2) * u**2) / 4,
    "path": (1 - a**2) * ((1 - a**2) * (2 * PATH_U[0] - 1) ** 2 + a**2 * (PATH_U[0] + p * PATH_U[1]) ** 2),
    "switch": (1 - a**2) * ((1 - a**2) * (SWITCH_U[0] - SWITCH_U[1]) ** 2 + a**2 * SWITCH_U[2] ** 2),
}

MODES = tuple(control.BLOCH_ROWS)
SAMPLES = [(a_, p_, t_) for a_ in (0.05, 0.5, 0.9) for p_ in (0.0, 0.4, 1.0) for t_ in (0.0, 1e-3, 0.7, 5.0, 300.0)]


def _exact(expr):
    return sp.nsimplify(expr, rational=True)


def table_row(mode):
    """The package's (Delta, n_x, n_y, n_z) for a mode, as exact expressions in p and u."""
    return tuple(_exact(sp.expand(e)) for e in control.BLOCH_ROWS[mode](p, u, v))


def table_bracket(mode):
    """The package's bracket for a mode, as an exact polynomial in u."""
    return _exact(sum(c * u**k for k, c in enumerate(detect._bracket_coeffs(mode, a, p))))


def bare_bracket(a):
    """Bare bracket coefficients in ascending powers of u = e^{-2t}: -a^2 + (3a^2 - 4) u.
    With primes in u, 2 S Delta' - S' Delta = 4 bracket."""
    return -a * a, 3 * a * a - 4


def path_bracket(a, p):
    """Path bracket coefficients in ascending powers of u = e^{-2t}.

    bracket = (p+2)(p - a^2(p+1)) + (a^2 (p+1)(p+6) - (p+2)(p+4)) u

    With primes in u, 2 S Delta' - S' Delta = 16 bracket.  The u^0
    coefficient sets the large-time sign, hence the backflow condition
    a^2 < p / (1+p).
    """
    return (p + 2) * (p - a * a * (p + 1)), a * a * (p + 1) * (p + 6) - (p + 2) * (p + 4)


def switch_bracket(a, p):
    """Switch bracket coefficients A1 ... A5, ascending in u = e^{-2t}:
    bracket = A1 + A2 u + A3 u^2 + A4 u^3 + A5 u^4.

        A1 = 2p^2 - a^2 (3p+2)
        A2 = -2 (a^2 (p+1)(4p+3) - 4p)
        A3 = 6 (a^2 (2p^2+2p-1) - 2p(p+2))
        A4 = 2 a^2 (4p^2+15p+15) - 8 (p(2p+5)+4)
        A5 = p (a^2 (4p+7) - 6p - 8)

    With primes in u, 2 S Delta' - S' Delta = 8 (p+1) bracket.  A1 sets
    the large-time sign, hence the backflow condition a^2 < 2p^2 / (3p+2).
    """
    a2 = a * a
    return (
        2 * p * p - a2 * (3 * p + 2),
        -2 * (a2 * (p + 1) * (4 * p + 3) - 4 * p),
        6 * (a2 * (2 * p * p + 2 * p - 1) - 2 * p * (p + 2)),
        2 * a2 * (4 * p * p + 15 * p + 15) - 8 * (p * (2 * p + 5) + 4),
        p * (a2 * (4 * p + 7) - 6 * p - 8),
    )


# each mode's hand-written bracket of (a, p) and the positive constant c(p)
# with 2 S Delta' - S' Delta = c bracket; both take symbols, floats or fractions
HAND_BRACKETS = {
    "bare": (lambda a, p: bare_bracket(a), lambda p: 4),
    "path": (path_bracket, lambda p: 16),
    "switch": (switch_bracket, lambda p: 8 * (p + 1)),
}


def radicand(mode):
    """Delta and S = a^2 n_x^2 + b^2 n_z^2 of a mode's row, so D = b sqrt(S) / Delta."""
    delta, n_x, _, n_z = table_row(mode)
    return delta, a**2 * n_x**2 + (1 - a**2) * n_z**2


def _is_zero(expr):
    """True when the numerator of the rational function expr expands to 0."""
    return sp.expand(sp.numer(sp.together(expr))) == 0


# Bloch vector of a general input and the Paulis
r = sp.symbols("r_x r_y r_z", real=True)
PAULI = (sp.Matrix([[0, 1], [1, 0]]), sp.Matrix([[0, -sp.I], [sp.I, 0]]), sp.Matrix([[1, 0], [0, -1]]))


def _bloch_state(multipliers):
    return (sp.eye(2) + sum((m * r_j * s for m, r_j, s in zip(multipliers, r, PAULI)), sp.zeros(2))) / 2


def _phi_kraus():
    """The lossy channel's real Kraus operators: sqrt((1-u)/2) |0><1|,
    sqrt((1-u)/2) |1><0| and sqrt((1+u)/2) I, the weights of ``phi_t_kraus``."""
    flip = sp.sqrt(v / 2)
    return [flip * sp.Matrix([[0, 1], [0, 0]]), flip * sp.Matrix([[0, 0], [1, 0]]), sp.sqrt((1 + u) / 2) * sp.eye(2)]


def _joint_kraus(mode):
    """The supermap's joint operators over system (x) control, system-major:
    switch E_i F_j (x) |0><0| + F_j E_i (x) |1><1|, path with the default
    amplitudes alpha = beta = (1, 1, 0) / sqrt(2)."""
    ops = _phi_kraus()
    amps = (1 / sp.sqrt(2), 1 / sp.sqrt(2), 0)
    p0, p1 = sp.diag(1, 0), sp.diag(0, 1)
    joint = []
    for i, e in enumerate(ops):
        for j, f in enumerate(ops):
            if mode == "switch":
                joint.append(sp.kronecker_product(e * f, p0) + sp.kronecker_product(f * e, p1))
            else:
                joint.append(amps[j] * sp.kronecker_product(e, p0) + amps[i] * sp.kronecker_product(f, p1))
    return joint


def _postselected(mode, sign):
    """Unnormalized block and outcome probability of the supermap output for
    the general input, with the control measured on (|0> + sign |1>) / sqrt(2)."""
    omega = sp.Matrix([[1, p], [p, 1]]) / 2
    joint_state = sp.kronecker_product(_bloch_state((1, 1, 1)), omega)
    # every operator is real, so its adjoint is its transpose
    out = sum((k * joint_state * k.T for k in _joint_kraus(mode)), sp.zeros(4))
    ket = (1, sign)
    block = sp.Matrix(2, 2, lambda i, j: sum(ket[c] * ket[d] * out[2 * i + c, 2 * j + d] for c in (0, 1) for d in (0, 1)) / 2)
    return block, sp.expand(block.trace())


@pytest.mark.parametrize("mode", MODES)
def test_table_rows_are_the_kraus_multipliers(mode):
    # bare: the lossy channel itself; path and switch: the supermap output
    # post-selected on |+> and renormalized
    if mode == "bare":
        state = _bloch_state((1, 1, 1))
        output = sum((k * state * k.T for k in _phi_kraus()), sp.zeros(2))
    else:
        block, prob = _postselected(mode, +1)
        output = block / prob
    delta, *n = table_row(mode)
    expected = _bloch_state([n_j / delta for n_j in n])
    assert all(_is_zero(output[i, j] - expected[i, j]) for i in (0, 1) for j in (0, 1))


@pytest.mark.parametrize("sign", [+1, -1], ids=["plus", "minus"])
@pytest.mark.parametrize("mode", ["path", "switch"])
def test_outcome_probability_does_not_depend_on_the_input(mode, sign):
    _, prob = _postselected(mode, sign)
    assert not prob.free_symbols & set(r)
    assert prob != 0


@pytest.mark.parametrize("mode", ["path", "switch"])
def test_table_rows_are_the_weights_multipliers(mode):
    delta, *n = table_row(mode)
    assert all(_is_zero(n_j / delta - lam) for n_j, lam in zip(n, WEIGHT_MULTIPLIERS[mode]))


def test_entry_map_is_the_bloch_form():
    # the entry map of control's closed-form outputs, for any 2x2 input:
    # diagonal tr/2 +- l_z (s11 - s22)/2, off-diagonal l+ s12 + l- s21 with
    # l+- = (l_x +- l_y)/2; on a Hermitian unit-trace input it is the Bloch
    # form, and it keeps the trace of every input exactly
    lam = sp.symbols("l_x l_y l_z")
    s11, s12, s21, s22 = sp.symbols("s11 s12 s21 s22")
    plus, minus = (lam[0] + lam[1]) / 2, (lam[0] - lam[1]) / 2
    half_trace, half_z = (s11 + s22) / 2, lam[2] * (s11 - s22) / 2
    entry_map = sp.Matrix([[half_trace + half_z, plus * s12 + minus * s21], [plus * s21 + minus * s12, half_trace - half_z]])
    assert sp.expand(entry_map.trace() - (s11 + s22)) == 0
    bloch = {s11: (1 + r[2]) / 2, s22: (1 - r[2]) / 2, s12: (r[0] - sp.I * r[1]) / 2, s21: (r[0] + sp.I * r[1]) / 2}
    assert sp.expand(entry_map.subs(bloch) - _bloch_state(lam)) == sp.zeros(2)


@pytest.mark.parametrize("mode", MODES)
def test_derivative_is_prefactor_times_table_bracket(mode):
    # with primes in u, the table bracket is N = 2 S Delta' - S' Delta ...
    delta, s = radicand(mode)
    numerator = 2 * s * sp.diff(delta, u) - sp.diff(s, u) * delta
    assert _is_zero(numerator - table_bracket(mode))
    # ... so -2u dD/du (which is dD/dt) is the prefactor b u / (Delta^2
    # sqrt(S)) times the bracket; b = sqrt(1 - a^2) does not depend on u, so
    # a free symbol stands for it, and sqrt(S) Delta^2 / (b u) clears every root
    b = sp.Symbol("b", positive=True)
    prefactor = b * u / (delta**2 * sp.sqrt(s))
    residual = -2 * u * sp.diff(b * sp.sqrt(s) / delta, u) - prefactor * table_bracket(mode)
    assert _is_zero(residual * sp.sqrt(s) * delta**2 / (b * u))


@pytest.mark.parametrize("mode", MODES)
def test_table_bracket_is_c_times_the_hand_bracket(mode):
    hand, c = HAND_BRACKETS[mode]
    assert _is_zero(table_bracket(mode) - c(p) * sum(h * u**k for k, h in enumerate(hand(a, p))))


def z_packed_bracket_table(row):
    """The (B_x, B_z) table of a Bloch row by numpy Polynomials, kept as an
    oracle for ``poly._bracket_table``: a polynomial in (p, u) is held as
    one in z, with p^i u^j -> z^(i + 8j), exact while no product reaches
    degree 8 in p."""
    from numpy.polynomial import Polynomial

    span = 8

    def by_u(poly):
        coef = poly.coef
        return np.pad(coef, (0, -len(coef) % span)).reshape(-1, span)

    def d_du(poly):
        rows = by_u(poly)
        return Polynomial((rows[1:] * np.arange(1, len(rows))[:, None]).ravel() if len(rows) > 1 else [0.0])

    def in_p(coeffs):
        return tuple(float(c) for c in np.trim_zeros(coeffs, "b")) or (0.0,)

    p_, u_ = Polynomial([0.0, 1.0]), Polynomial([0.0] * span + [1.0])
    delta, n_x, _, n_z = (Polynomial([0.0]) + entry for entry in row(p_, u_, 1.0 - u_))
    d_delta = d_du(delta)
    b_x, b_z = (by_u((2.0 * n * (n * d_delta - d_du(n) * delta)).trim()) for n in (n_x, n_z))
    return tuple((in_p(bx), in_p(bz)) for bx, bz in itertools.zip_longest(b_x, b_z, fillvalue=()))


def row_with_p_squared(p, u, v):
    """A Bloch-row shape with p^2 terms, which no mode has yet."""
    return 4.0 + p * p * v, 2.0 * (1.0 + u) + p * v, 2.0, 4.0 * u * u - p * p * (1.0 + u) * v


@pytest.mark.parametrize("mode", MODES)
def test_bracket_tables_equal_the_z_packed_derivation(mode):
    assert poly._BRACKET_TABLES[mode] == z_packed_bracket_table(control.BLOCH_ROWS[mode])


def test_exact_polynomial_product_and_d_du():
    pu = poly._PolyPU
    p_, u_ = pu({(1, 0): 1}), pu({(0, 1): 1})
    # (1 + p u)(1 - p u) = 1 - p^2 u^2, whose p u terms cancel to zero entries
    product = (1.0 + p_ * u_) * (1.0 - p_ * u_)
    assert {key: c for key, c in product.items() if c} == {(0, 0): 1.0, (2, 2): -1.0}
    assert {key: c for key, c in product.d_du().items() if c} == {(2, 1): -2.0}
    assert product.by_u() == ((1,), (0,), (0, 0, -1))
    # the n_z entry of row_with_p_squared: 4u^2 - p^2 (1 + u)(1 - u) = 4u^2 - p^2 + p^2 u^2
    n_z = row_with_p_squared(p_, u_, 1.0 - u_)[3]
    assert {key: c for key, c in n_z.items() if c} == {(0, 2): 4.0, (2, 0): -1.0, (2, 2): 1.0}
    assert {key: c for key, c in n_z.d_du().items() if c} == {(0, 1): 8.0, (2, 1): 2.0}
    assert poly._bracket_table(*poly._brackets(row_with_p_squared)) == z_packed_bracket_table(row_with_p_squared)
    # a number is a constant polynomial; a constant's derivative is zero
    assert (2.0 - u_) * 3.0 == {(0, 0): 6.0, (0, 1): -3.0}
    assert pu.of(2.0).d_du() == {} and pu.of(2.0).by_u() == ((2,),)


def test_tables_are_exact_ints():
    # the rows' constants are integers, and the derivation refuses any other
    bracket = [c for table in poly._BRACKET_TABLES.values() for pair in table for b in pair for c in b]
    peak = [c for table in poly._PEAK_TABLES.values() for b in table for c in b]
    # and each has an exact float, which the float views read
    assert all(type(c) is int and abs(c) < 2**53 for c in bracket + peak)
    with pytest.raises(ValueError, match="must be an integer, got 0.5"):
        poly._PolyPU.of(0.5)
    with pytest.raises(ValueError, match="must be an integer, got 0.5"):
        poly._brackets(lambda p, u, v: (4.0 + p * v, 0.5 + u, 0.5 + u, 4.0 * u))


@settings(max_examples=300, deadline=None)
@given(
    mode=st.sampled_from(MODES),
    a_=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    p_=st.floats(min_value=0.0, max_value=1.0),
)
def test_float_bracket_is_c_times_the_hand_bracket(mode, a_, p_):
    # against the exact rational value of c times the hand bracket: that
    # bracket evaluated in floats carries up to about 1.4e-15 of the largest
    # coefficient in rounding itself
    hand, c = HAND_BRACKETS[mode]
    exact = [c(Fraction(p_)) * h for h in hand(Fraction(a_), Fraction(p_))]
    error = max(abs(Fraction(got) - want) for got, want in zip(detect._bracket_coeffs(mode, a_, p_), exact, strict=True))
    assert error <= Fraction(1e-15) * max(map(abs, exact))


@pytest.mark.parametrize("mode", MODES)
def test_distance_is_that_of_the_weights(mode):
    delta, s = radicand(mode)
    assert _is_zero(DISTANCE_SQUARED[mode] - (1 - a**2) * s / delta**2)


@pytest.mark.parametrize("in_u, in_x", [(PATH_U, PATH_X), (SWITCH_U, SWITCH_X)], ids=["path", "switch"])
def test_u_form_weights_equal_x_form_weights(in_u, in_x):
    for w_u, w_x in zip(in_u, in_x):
        assert _is_zero(w_u.subs(u, 1 / x) - w_x)


def _pure_control_in_x(mode):
    """The paper's p = 1 prefactor and bracket as functions of x = e^{2t}."""
    t = sp.Symbol("t", positive=True)
    return [e.rewrite(sp.exp).subs(t, sp.log(x) / 2) for e in pure_control_parts(mode, a, t, sp)]


# at p = 1 the table bracket is the paper's bracket times this positive factor
PURE_CONTROL_FACTOR = {"path": 16 / x, "switch": 32 * (x**2 + 6 * x + 1) / x**3}


def test_pure_control_brackets_reduce():
    # at p = 1, x times the path bracket is 16 (14a^2 - 15 - 3(2a^2 - 1)x),
    # and x^3 times the switch quartic is 32 (x^2 + 6x + 1) times the
    # hyperbolic quadratic 8(1-a^2) sinh 2t - (2-a^2)(3 cosh 2t + 1); the
    # factors are positive, so each pair of brackets has one sign
    for mode, factor in PURE_CONTROL_FACTOR.items():
        _, bracket = _pure_control_in_x(mode)
        assert _is_zero(table_bracket(mode).subs({p: 1, u: 1 / x}) - factor * bracket)
        assert all(c > 0 for c in sp.Poly(sp.numer(factor), x).coeffs() + sp.Poly(sp.denom(factor), x).coeffs())


@pytest.mark.parametrize("mode", ["path", "switch"])
def test_pure_control_prefactors_reduce(mode):
    # the paper's prefactor is the general one at p = 1 times the bracket
    # factor, so the products agree; both prefactors are positive, so
    # comparing squares clears the roots
    prefactor, _ = _pure_control_in_x(mode)
    delta, s = (e.subs({p: 1, u: 1 / x}) for e in radicand(mode))
    general = (1 - a**2) * u**2 / (delta**4 * s)
    assert _is_zero(prefactor**2 - (PURE_CONTROL_FACTOR[mode] ** 2 * general).subs(u, 1 / x))


def _numeric(expr):
    return sp.lambdify((a, p, u), expr, "numpy")


@pytest.mark.parametrize("mode", MODES)
def test_package_forms_are_the_proven_ones(mode):
    delta, s = radicand(mode)
    b = sp.sqrt(1 - a**2)
    distance = _numeric(b * sp.sqrt(s) / delta)
    prefactor = _numeric(b * u / (delta**2 * sp.sqrt(s)))
    for a_, p_, t_ in SAMPLES:
        u_ = np.exp(-2.0 * t_)
        assert detect._distance(a_, detect._terms(mode, a_, p_, *control._decay(t_))) == pytest.approx(distance(a_, p_, u_), rel=1e-13)
        got = detect._derivative_parts(mode, a_, p_, t_)[0]
        assert got == pytest.approx(prefactor(a_, p_, u_), rel=1e-13, abs=1e-300)


def test_package_weights_are_the_proven_ones():
    # the package's closed-form outputs equal the weights' entry maps
    sigma = np.array([[0.3, 0.2 - 0.7j], [-0.4 + 0.1j, 0.9]])
    (s11, s12), (s21, s22) = sigma
    path_weights, switch_weights = [_numeric(w) for w in PATH_U], [_numeric(w) for w in SWITCH_U]
    for a_, p_, t_ in SAMPLES:
        u_ = np.exp(-2.0 * t_)
        w_a, w_b = (w(a_, p_, u_) for w in path_weights)
        want = [[s11 * w_a + (2 + p_) * s22 * w_b, s12 * w_a + p_ * s21 * w_b], [p_ * s12 * w_b + s21 * w_a, (2 + p_) * s11 * w_b + s22 * w_a]]
        assert np.abs(control.closed_form_output(control.path_config(p_), sigma, t_) - want).max() <= 1e-15
        w_a, w_b, w_c = (w(a_, p_, u_) for w in switch_weights)
        want = [[s11 * w_a + s22 * w_b, s12 * w_c], [s21 * w_c, s11 * w_b + s22 * w_a]]
        assert np.abs(control.closed_form_output(control.switch_config(p_), sigma, t_) - want).max() <= 1e-15


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
    # the package's ratio B_z / (B_z - B_x) of the u^0 table entries is that root
    b_x, b_z = (_exact(poly._horner(b, p)) for b in poly._BRACKET_TABLES[mode][0])
    assert _is_zero(b_z / (b_z - b_x) - expected)
    for p_ in (0.0, 0.1, 0.5, 1.0):
        config = control.ControlConfig(mode, p_)
        assert detect.asymptotic_threshold(config) ** 2 == pytest.approx(float(root.subs(p, p_)), rel=1e-15, abs=0.0)


def test_path_threshold_dominates_switch():
    # path ⊇ switch: p/(1+p) - 2p^2/(3p+2) = p (2 + p - 2p^2) / ((1+p)(3p+2)),
    # and 2 + p - 2p^2 >= 1 on [0, 1], so the difference is >= 0 there
    gap = squared_threshold("path")[1] - squared_threshold("switch")[1]
    assert _is_zero(gap - p * (2 + p - 2 * p**2) / ((1 + p) * (3 * p + 2)))
    assert sp.minimum(2 + p - 2 * p**2, p, sp.Interval(0, 1)) == 1


@pytest.mark.parametrize("mode", MODES)
def test_x_part_of_the_bracket_is_negative(mode):
    # B_x = sum_j c_j(p) u^j with every c_j <= 0 and c_0 < 0 on p in [0, 1],
    # so B_x <= c_0 < 0 for every u >= 0: the bracket a^2 B_x + b^2 B_z is
    # positive only where B_z is, and then only for a^2 below B_z / (B_z - B_x)
    maxima = [sp.maximum(_exact(poly._horner(b_x, p)), p, sp.Interval(0, 1)) for b_x, _ in poly._BRACKET_TABLES[mode]]
    assert all(m <= 0 for m in maxima)
    assert maxima[0] < 0


@pytest.mark.parametrize("mode", MODES)
def test_peak_table_is_the_fold_of_a_palindromic_w(mode):
    # W = B_x B_z' - B_z B_x' is -(B_z - B_x)^2 times the slope of
    # r = B_z / (B_z - B_x) in u; it reads the same in both directions, and
    # the table is W / u^m as a polynomial in w = u + 1/u
    # B_x and B_z are the bracket at a = 1 and at a = 0
    b_x, b_z = (table_bracket(mode).subs(a, a_) for a_ in (1, 0))
    w_u = sp.Poly(sp.expand(b_x * sp.diff(b_z, u) - b_z * sp.diff(b_x, u)), u)
    coeffs = w_u.all_coeffs()
    assert all(_is_zero(c - d) for c, d in zip(coeffs, coeffs[::-1]))
    table = poly._PEAK_TABLES[mode]
    m = len(table) - 1
    assert w_u.degree() == 2 * m
    w = sp.Symbol("w")
    folded = sum(_exact(poly._horner(c, p)) * w**k for k, c in enumerate(table))
    assert _is_zero(folded.subs(w, u + 1 / u) * u**m - w_u.as_expr())
    if mode == "path":
        # W > 0, so the path's r falls in u and peaks at the range's low end u_lo
        assert _is_zero(w_u.as_expr() - 2048 * (p + 1) * (p + 2))
        assert sp.minimum(w_u.as_expr(), p, sp.Interval(0, 1)) > 0


def exact_bracket(mode, a_, p_):
    """A mode's bracket at the floats a_ and p_ in exact arithmetic, as a
    polynomial in u over the rationals: the coefficients from
    ``_BRACKET_TABLES`` at the exact values of a_ and p_."""
    a2, p_exact = Fraction(a_) ** 2, Fraction(p_)
    coeffs = [
        a2 * poly._horner([Fraction(c) for c in x], p_exact) + (1 - a2) * poly._horner([Fraction(c) for c in z], p_exact)
        for x, z in poly._BRACKET_TABLES[mode]
    ]
    return sp.Poly([sp.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], u, domain=sp.QQ)


def odd_part(bracket):
    """The product of a nonzero bracket's factors of odd multiplicity, with
    its leading coefficient: it changes sign exactly where the bracket does."""
    lead, factors = bracket.sqf_list()
    odd = sp.Poly(lead, u, domain=sp.QQ)
    for factor, multiplicity in factors:
        if multiplicity % 2:
            odd *= factor
    return odd


def exact_verdict(mode, a_, p_, t_max):
    """Whether a mode's bracket at the floats a_ and p_ is positive somewhere
    on the u range of [DEFAULT_T_MIN, t_max] that ``scan_region`` decides,
    in exact arithmetic: ``exact_bracket``, over the range from the exact
    values of the floats ``_u_range`` gives.  The bracket changes sign only
    at the roots of its odd part; with none strictly inside the range, it
    has the sign of that part at the middle."""
    bracket = exact_bracket(mode, a_, p_)
    if bracket.is_zero:
        return False
    lo, hi = (sp.Rational(*end.as_integer_ratio()) for end in detect._u_range(detect.DEFAULT_T_MIN, t_max))
    odd = odd_part(bracket)
    inside = odd.count_roots(lo, hi) - (odd.eval(lo) == 0) - (odd.eval(hi) == 0)
    return bool(inside > 0 or odd.eval((lo + hi) / 2) > 0)


@pytest.mark.parametrize(
    "t_max, points, min_checked",
    [
        # at 0.75 the switch's r peaks at an interior root of W, and the path
        # has no backflow on most rows (251 checks); at 400, u_lo = 0
        pytest.param(0.75, 100, 251, id="0.75"),
        *(pytest.param(t_max, 100, 300, id=str(t_max)) for t_max in (1.0, 12.0, 400.0)),
        # the 10^6-cell scan: about 3,300 and 4,000 exact checks, 3 s each case
        *(pytest.param(t_max, 1000, 3000, id=f"1000x1000-{t_max}", marks=pytest.mark.slow) for t_max in (1.0, 12.0)),
    ],
)
def test_scan_row_boundaries_are_exact(t_max, points, min_checked):
    # on the scan grid of the default range, each row's last a with backflow
    # and first a without, per mode, have the exact verdict the scan gives
    # them; the scan decides a row by one sign at the peak of its ratio, so it
    # gives each row one run of backflow cells, and the exact verdict is
    # monotone in a (test_x_part_of_the_bracket_is_negative), so these two
    # cells certify every cell of the row
    a_grid, p_grid = np.linspace(0.005, 0.995, points), np.linspace(0.0, 1.0, points)
    scan = detect.scan_region(a_grid, p_grid, t_max=t_max)
    checked = 0
    for mode in control.SUPERMAPS:
        for p_, row in zip(p_grid, getattr(scan, f"backflow_{mode}")):
            edge = int(row.sum())  # the first a without backflow
            for j, want in ((edge - 1, True), (edge, False)):
                if 0 <= j < len(a_grid):
                    assert exact_verdict(mode, a_grid[j], p_, t_max) is want, (mode, a_grid[j], p_)
                    checked += 1
    assert checked >= min_checked


def test_scan_within_ulps_of_a_switch_boundary_is_exact():
    # three consecutive floats a at the switch's row boundary at p = 0.898...,
    # t_max 0.75, where the float bracket of each cell on its own is not
    # monotone in a: the scan's one sign per cell at the peak of the ratio
    # gives the exact verdicts, one run from the smallest a
    a_min, a_max, p_, t_max = 0.28828366874744277, 0.2882836687474429, 0.8983050847457628, 0.75
    args = ["scan", "--a-min", repr(a_min), "--a-max", repr(a_max), "--a-points", "3"]
    args += ["--p-min", repr(p_), "--p-max", repr(p_), "--p-points", "1", "--t-max", repr(t_max)]
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    rows = [line.split(",") for line in result.output.splitlines()[1:]]
    assert [row[3] for row in rows] == ["true", "true", "false"]
    for a_, row in zip(np.linspace(a_min, a_max, 3), rows):
        for mode, verdict in zip(("path", "switch"), row[2:]):
            assert exact_verdict(mode, a_, p_, t_max) is (verdict == "true"), (mode, a_)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="B_z at the peak and a^2 both underflow to 0.0")
def test_scan_is_exact_where_b_z_and_a_squared_underflow():
    # a* is about 2.8e-226 at p = 1e-300, so a = 1e-250 has backflow; the
    # scan's one sign at the peak reads 0.0 > 0.0 (the README's tiny-p limit)
    verdict = bool(detect.scan_region([1e-250], [1e-300], t_max=200.0).backflow_switch[0, 0])
    assert verdict is exact_verdict("switch", 1e-250, 1e-300, 200.0)


def exact_roots(odd, lo, hi):
    """The roots of ``odd`` in [lo, hi], in ascending u, each as an interval
    (s, t) of rationals bisected, by the exact sign of ``odd``, down to
    t - s <= 2^-52 t."""
    roots = []
    for (s, t), _ in odd.intervals(inf=lo, sup=hi):
        while (t - s) * 2**52 > t:
            mid = (s + t) / 2
            s, t = (s, mid) if (odd.eval(mid) > 0) == (odd.eval(t) > 0) else (mid, t)
        roots.append((Fraction(int(s.p), int(s.q)), Fraction(int(t.p), int(t.q))))
    return roots


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the u^0 coefficient underflows to 0.0 (F17)")
def test_window_ends_are_exact_where_the_u0_coefficient_underflows():
    # the switch's u^0 coefficient, about -16 a^2 = -2.0e-369, rounds to 0.0,
    # so the u^1 coefficient, about 64 p = 2.3e-199, sets the float bracket's
    # sign as u -> 0 and detect_backflow misses the root near u = a^2 / (4 p):
    # each exact inner end must be a reported one, within the relative band
    # of test_window_ends_are_exact_roots
    a_, p_ = 1.1220643295568773e-185, 3.631161828270041e-201
    report = detect.detect_backflow(control.switch_config(p_), a_, detect.log_time_grid(t_max=400.0))
    t_lo, t_hi = float(report.times[0]), float(report.times[-1])
    ends = [t for window in report.backflow_intervals for t in window if t_lo < t < t_hi]
    lo, hi = (sp.Rational(*end.as_integer_ratio()) for end in detect._u_range(t_lo, t_hi))
    roots = exact_roots(odd_part(exact_bracket("switch", a_, p_)), lo, hi)[::-1]
    exact_ends = [-0.5 * math.log(s) for s, _ in roots]
    assert len(ends) == len(roots), (ends, exact_ends)
    for t_e, (s, t) in zip(ends, roots):
        u_e, band = Fraction(np.exp(-2.0 * t_e)), 4 * Fraction(2.0**-52) * (1 + Fraction(t_e))
        assert u_e * (1 - band) <= s and t <= u_e * (1 + band), (t_e, exact_ends)


# the inner window ends certified: below t = 118, u^3 = e^{-6t} is a normal
# number; past it Horner's bracket can go subnormal at tiny a and p (the
# README's late-tail limit), and its float roots need not be exact
CERTIFIED_T = 118.0
WINDOW_END_CASES = [
    (mode, a_, p_, t_max)
    for mode in control.SUPERMAPS
    for a_ in (1e-181, 1e-60, 1e-20, 1e-6, 0.01, 0.05, 0.1, 0.2, 0.3, 0.45, 0.6)
    for p_ in (1e-94, 1e-30, 1e-8, 1e-3, 0.05, 0.2, 0.5, 0.9, 1.0)
    for t_max in (0.75, 2.0, 12.0, 50.0, CERTIFIED_T)
] + [
    # the README's two switch windows, (0.73859, 0.75) and (1.18669, 1.92924)
    ("switch", 0.3, 1.0, 0.75),
    ("switch", 0.12, 0.1, detect.DEFAULT_T_MAX),
    # a flat bracket that Newton's method alone left at t = 40.70, for the root at t = 54.40
    ("switch", 1.2902291926294362e-181, 1.245257901104921e-94, 372.0),
]


def test_window_ends_are_exact_roots():
    # each inner end t_e of detect_backflow's intervals below CERTIFIED_T
    # holds exactly one sign change of the exact bracket within the relative
    # band 4 eps (1 + t_e) of u_e = e^{-2 t_e}, eps = 2^-52: the root found in
    # floats, and u_e rebuilt from t_e, each carry about (2 t_e + 1) ulps of
    # rounding; 2 eps (1 + t_e) already holds every end, 1 eps (1 + t_e) not
    checked = 0
    for mode, a_, p_, t_max in WINDOW_END_CASES:
        report = detect.detect_backflow(control.ControlConfig(mode, p_), a_, detect.log_time_grid(detect.DEFAULT_T_MIN, t_max))
        ends = [t for window in report.backflow_intervals for t in window if report.times[0] < t < min(report.times[-1], CERTIFIED_T)]
        odd = odd_part(exact_bracket(mode, a_, p_)) if ends else None
        for t_e in ends:
            u_e, band = Fraction(np.exp(-2.0 * t_e)), 4 * Fraction(2.0**-52) * (1 + Fraction(t_e))
            lo, hi = (sp.Rational(x.numerator, x.denominator) for x in (u_e * (1 - band), u_e * (1 + band)))
            assert odd.count_roots(lo, hi) == 1, (mode, a_, p_, t_max, t_e)
            checked += 1
    assert checked == 458

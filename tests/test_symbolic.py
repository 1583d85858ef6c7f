"""Symbolic certificates of route 1, the closed form, and of the ladder
route's scaled lowering, for every j.

`cg_alternative` and the closed-form states sum ``(-1)^l sqrt(R_l)`` over
l = K..N, with R_l the weight as `oracles.beta_closed_form` writes it from
binomials (`oracles.weight_binomials`), at p = k - l.  The kernel
`formulas._closed_form_component` writes that sum as sqrt(U) times the
integer sum of (-1)^l T_l, with T_l a product of three binomials and
U = R_K / T_K^2, and steps T_l to T_(l+1) in its loop by the exact integer
division ``term = -term * a_l // b_l``.

`_route1_binomials` transcribes T_l and U_l from the kernel, and
`_kernel_step` reads (a_l, b_l) out of the kernel's source.  The
certificates prove, with symbols, that a_l / b_l is the ratio of the T_l,
so the division is exact, and that U_l T_l^2 is the radicand R_l.  A
numeric test holds the transcription to the kernel's own arguments, so
that neither can drift from the other.

The ladder route lowers in a basis scaled by 1 / sqrt(C(2j, j-m)), where
`ladder._scaled_lowering_element` is the J- element; its certificate
proves that element from `ladder._lowering_element`, the J- element of
the unscaled basis.
"""

import ast
import inspect
import textwrap

import pytest

sympy = pytest.importorskip("sympy")

from cgexact import formulas, ladder  # noqa: E402
from oracles import binomial, weight_binomials  # noqa: E402


def _route1_binomials(tj1, tj2, m, s, k, l, choose=binomial):
    """T_l and the pair (numerator, denominator) of U_l = R_l / T_l^2 of the
    closed-form component at (m, s, k), as `_closed_form_component` writes
    them at l = K, with q2 = 2j2 - m, d = s - k and 2J = 2j1 + 2j2 - 2m.
    The factors C(2j1, m) and C(2J, s) C(2J+m+1, m) are `_shared_factor`."""
    q2, d, tJ = tj2 - m, s - k, tj1 + tj2 - 2 * m
    term = choose(tj1 - l, k - l) * choose(q2 + l, d + l) * choose(m, l)
    numer = choose(q2 + l, l) * choose(k, l) * choose(m + d, d + l) * choose(tj1, m)
    denom = choose(tj1, l) * term * choose(tJ, s) * choose(tJ + m + 1, m)
    return term, numer, denom


_SYMBOLS = "tj1 tj2 m s k l"


def _kernel_step():
    """The symbols of `_SYMBOLS` and (a_l, b_l) of the step
    ``term = -term * a_l // b_l`` in the loop of `_closed_form_component`,
    evaluated on those symbols from the kernel's own source, with its local
    names (q2, d) evaluated from its own assignments."""
    source = textwrap.dedent(inspect.getsource(formulas._closed_form_component))
    function = ast.parse(source).body[0]
    (loop,) = [node for node in function.body if isinstance(node, ast.For)]
    (step,) = [
        node for node in loop.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "term"
    ]
    division = step.value
    assert isinstance(division, ast.BinOp) and isinstance(division.op, ast.FloorDiv)
    product = division.left
    assert isinstance(product, ast.BinOp) and isinstance(product.op, ast.Mult)
    assert ast.unparse(product.left) == "-term"
    symbols = sympy.symbols(_SYMBOLS, integer=True)
    namespace = dict(zip(_SYMBOLS.split(), symbols))
    for node in function.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) in ("q2", "d"):
            namespace[node.targets[0].id] = eval(ast.unparse(node.value), {}, namespace)

    def evaluated(node):
        return eval(ast.unparse(node), {}, namespace)

    return symbols, evaluated(product.right), evaluated(division.right)


def test_closed_form_step_is_the_ratio_of_the_binomial_terms():
    (tj1, tj2, m, s, k, l), a, b = _kernel_step()

    def term(i):
        return _route1_binomials(tj1, tj2, m, s, k, i, sympy.binomial)[0]

    ratio = sympy.combsimp(term(l + 1) / term(l))
    assert sympy.cancel(ratio - a / b) == 0


def test_closed_form_radical_times_the_term_squared_is_the_radicand():
    tj1, tj2, m, s, k, l = sympy.symbols(_SYMBOLS, integer=True)
    term, numer, denom = _route1_binomials(tj1, tj2, m, s, k, l, sympy.binomial)
    r_numer, r_denom = weight_binomials(tj1, tj2, m, s, l, k - l, sympy.binomial)
    tJ = tj1 + tj2 - 2 * m
    radicand = r_numer / r_denom * sympy.binomial(tj1, m) / sympy.binomial(tJ + m + 1, m)
    ratio = sympy.combsimp(numer / denom * term**2 / radicand)
    assert sympy.cancel(ratio - 1) == 0


def test_closed_form_step_squared_is_the_weight_ratio():
    (tj1, tj2, m, s, k, l), a, b = _kernel_step()

    def weight(i):
        numer, denom = weight_binomials(tj1, tj2, m, s, i, k - i, sympy.binomial)
        return numer / denom

    ratio = sympy.combsimp(weight(l + 1) / weight(l))
    assert sympy.cancel(ratio - a**2 / b**2) == 0


def test_the_kernel_sums_the_transcribed_terms_over_the_transcribed_radical(monkeypatch):
    recorded = []
    original = formulas.sum_signed_sqrts

    def recording(terms, n, d):
        terms = list(terms)
        recorded.append((terms, n, d))
        return original(terms, n, d)

    monkeypatch.setattr(formulas, "sum_signed_sqrts", recording)
    components = 0
    for tj1 in range(9):
        for tj2 in range(9):
            recorded.clear()
            list(ladder._cell_values(tj1, tj2, ladder.TableRoute.CLOSED_FORM))
            # in the walk's order: ascending J, then M = J - s, then m1 = j1 - k
            expected = []
            for m in range(min(tj1, tj2), -1, -1):
                for s in range(tj1 + tj2 - 2 * m, -1, -1):
                    for k in range(min(tj1, m + s), max(0, s + m - tj2) - 1, -1):
                        lo = max(0, k - s)
                        _, numer, denom = _route1_binomials(tj1, tj2, m, s, k, lo)
                        terms = [
                            (-1) ** l * _route1_binomials(tj1, tj2, m, s, k, l)[0]
                            for l in range(lo, min(m, k) + 1)
                        ]
                        expected.append((terms, numer, denom))
            assert recorded == expected, (tj1, tj2)
            components += len(expected)
    # one component per well-formed spec: the agreement check's 7809 cases
    assert components == 7809


def _without_floor(expr):
    """``expr`` with each floor(x) of an integer x replaced by x, which it
    equals; the doubled-argument elements divide exactly, and with symbols
    that division reads as a floor."""
    def exact(x):
        x = sympy.expand(x)
        assert x.is_integer, x
        return x

    return expr.replace(sympy.floor, exact)


def test_scaled_lowering_element_squared_is_the_rescaled_lowering_element():
    # a = j + m and b = j - m, so 2j = a + b, 2m = a - b and
    # C(2j, j-m+1) / C(2j, j-m) = a / (b + 1)
    a, b = sympy.symbols("a b", integer=True, nonnegative=True)
    tj, tm = a + b, a - b
    scaled = _without_floor(sympy.sympify(ladder._scaled_lowering_element(tj, tm)))
    element = _without_floor(sympy.sympify(ladder._lowering_element(tj, tm)))
    rescaling = sympy.combsimp(sympy.binomial(tj, b + 1) / sympy.binomial(tj, b))
    assert sympy.cancel(scaled**2 - element * rescaling) == 0


def test_scaled_raising_element_squared_is_the_rescaled_raising_element():
    # a = j + m and b = j - m, so 2j = a + b, 2m = a - b and
    # C(2j, j-m-1) / C(2j, j-m) = b / (a + 1)
    a, b = sympy.symbols("a b", integer=True, nonnegative=True)
    tj, tm = a + b, a - b
    scaled = _without_floor(sympy.sympify(ladder._scaled_raising_element(tj, tm)))
    element = _without_floor(sympy.sympify(ladder._raising_element(tj, tm)))
    rescaling = sympy.combsimp(sympy.binomial(tj, b - 1) / sympy.binomial(tj, b))
    assert sympy.cancel(scaled**2 - element * rescaling) == 0


def test_signed_binomials_solve_the_annihilation_recurrence_for_every_j():
    # J+ |J, J> = 0 at depth m in the scaled basis: the J+(1) contribution
    # from k = l + 1 (m1 = j1 - l - 1) cancels the J+(2) contribution from
    # k = l (j2 - m2 = m - l), each with its `_scaled_raising_element`
    tj1, tj2, m, l = sympy.symbols("tj1 tj2 m l", integer=True, nonnegative=True)
    e1 = _without_floor(sympy.sympify(ladder._scaled_raising_element(tj1, tj1 - 2 * (l + 1))))
    e2 = _without_floor(sympy.sympify(ladder._scaled_raising_element(tj2, tj2 - 2 * (m - l))))

    def x(i):
        return (-1) ** i * sympy.binomial(m, i)

    assert sympy.simplify(sympy.combsimp((x(l + 1) * e1 + x(l) * e2) / x(l))) == 0

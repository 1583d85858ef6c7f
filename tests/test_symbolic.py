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
that neither can drift from the other.  Racah's kernel
`formulas._racah_sum` steps its terms t_z = C(g1, z) C(g2, a-z) C(g3, b-z)
the same way, and `_kernel_step` reads that step out of its source too.

Route 1's integer sum equals Racah's for every j.  With m = j1 + j2 - J,
s = J - M and k = j1 - m1, route 1 sums (-1)^l C(2j1-l, k-l)
C(2j2-m+l, s-k+l) C(m, l) over l, and Racah (-1)^z C(m, z) C(2j1-m, k-z)
C(2j2-m, s-k+z) over z.  Three textbook identities (Graham, Knuth &
Patashnik, *Concrete Mathematics*, 2nd ed., 1994, sections 5.1-5.2) take
the first to the second: Vandermonde splits C(2j1-l, k-l) into
sum_z C(2j1-m, k-z) C(m-l, z-l); trinomial revision regroups
C(m, l) C(m-l, z-l) as C(m, z) C(z, l), which leaves the inner sum
F(z) = sum_l (-1)^l C(z, l) C(2j2-m+l, s-k+l); and F(z) is
(-1)^z C(2j2-m, s-k+z), their eq. (5.24).  The certificates below prove
all three: Vandermonde's identity, written once as `_vandermonde`, by
induction on its lower argument, the second step by `combsimp`, and the
third by induction on z.

The ladder route's power J-^s is sum_p C(s, p) J-(1)^p J-(2)^(s-p), since
J-(1) and J-(2) commute.  One certificate proves that each of its terms,
in the scaled basis, is s! times route 1's binomials
C(2j1-l, k-l) C(2j2-m+l, s-k+l) at p = k - l.

The ladder route lowers in a basis scaled by 1 / sqrt(C(2j, j-m)), where
`ladder._scaled_lowering_element` is the J- element; its certificate
proves the route's scaled elements from the ladder check's unscaled ones,
`verification._lowering_element` and `verification._raising_element`.

Unitarity and the ladder check factor each value as sqrt(A B) P / L
(`verification._factored_cell`).  `_factored_weights` reads A and B out of
that helper's source; the certificates prove Racah's ratios
A(m1+1, m2) / A(m1, m2) = (j1+m1+1) / (j1-m1) and B(J, M) / B(J, M-1) =
(J+M) / (J-M+1).  The ladder check takes each step factor of its integer
recurrences from an element and the ratio of two weights
(`verification._step_factor`); the certificates read those ratios out of
`verification._particle_steps` and `verification._ladder_cell` and prove
them A's and B's, so that the recurrences are the J± relations whatever
the elements, and that the unscaled elements give integer factors.
"""

import ast
import inspect
import textwrap

import pytest

sympy = pytest.importorskip("sympy")

from cgexact import formulas, ladder, verification  # noqa: E402
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


def _kernel_step(kernel, names: str, local_names: set[str]):
    """The symbols ``names`` and (a, b) of the step ``term = -term * a // b``
    in the loop of ``kernel``, evaluated on those symbols from the kernel's
    own source, with its local names ``local_names`` evaluated from its own
    assignments."""
    source = textwrap.dedent(inspect.getsource(kernel))
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
    symbols = sympy.symbols(names, integer=True)
    namespace = dict(zip(names.split(), symbols))
    for node in function.body:
        if isinstance(node, ast.Assign):
            targets = {n.id for n in ast.walk(node.targets[0]) if isinstance(n, ast.Name)}
            if targets <= local_names:
                exec(ast.unparse(node), {}, namespace)

    def evaluated(node):
        return eval(ast.unparse(node), {}, namespace)

    return symbols, evaluated(product.right), evaluated(division.right)


def _closed_form_step():
    """`_kernel_step` of `_closed_form_component`: (a_l, b_l) on `_SYMBOLS`,
    with its local names (q2, d)."""
    return _kernel_step(formulas._closed_form_component, _SYMBOLS, {"q2", "d"})


def test_closed_form_step_is_the_ratio_of_the_binomial_terms():
    (tj1, tj2, m, s, k, l), a, b = _closed_form_step()

    def term(i):
        return _route1_binomials(tj1, tj2, m, s, k, i, sympy.binomial)[0]

    ratio = sympy.combsimp(term(l + 1) / term(l))
    assert sympy.cancel(ratio - a / b) == 0


def test_racah_step_is_the_ratio_of_the_binomial_terms():
    # t_z = C(g1, z) C(g2, a-z) C(g3, b-z), with `_racah_sum`'s d1 and d2
    # evaluated from its own assignment on the symbols g2, g3, a and b
    (g1, g2, g3, a, b, z), up, down = _kernel_step(
        formulas._racah_sum, "g1 g2 g3 a b z", {"d1", "d2"}
    )

    def term(i):
        return sympy.binomial(g1, i) * sympy.binomial(g2, a - i) * sympy.binomial(g3, b - i)

    ratio = sympy.combsimp(term(z + 1) / term(z))
    assert sympy.cancel(ratio - up / down) == 0


def _vandermonde(a, b, n, choose=binomial):
    """V_b(n) = sum_i C(a, n-i) C(b, i) over i = 0..b, for an integer
    b >= 0.  Vandermonde's identity (Graham, Knuth & Patashnik, eq. (5.22))
    is V_b(n) = C(a+b, n); the two tests after this one prove it, for every
    a, b and n, by induction on b.  Written once, for every certificate
    that rests on it."""
    return sum(choose(a, n - i) * choose(b, i) for i in range(b + 1))


def test_vandermonde_starts_at_the_binomial():
    # the base case: V_0(n) = C(a, n) C(0, 0) = C(a+0, n)
    a, n = sympy.symbols("a n", integer=True, nonnegative=True)
    assert _vandermonde(a, 0, n, sympy.binomial) == sympy.binomial(a, n)


def test_vandermonde_steps_by_pascals_rule():
    # Pascal's rule C(b+1, i) = C(b, i) + C(b, i-1) splits V_(b+1)(n) into
    # V_b(n) + V_b(n-1); with the claim for b at n and at n-1, V_(b+1)(n) is
    # C(a+b, n) + C(a+b, n-1), which is the claim for b + 1 exactly when
    # the closing identity below holds
    for a in range(8):
        for b in range(8):
            for n in range(14):
                step = _vandermonde(a, b, n) + _vandermonde(a, b, n - 1)
                assert _vandermonde(a, b + 1, n) == step, (a, b, n)
                assert _vandermonde(a, b, n) == binomial(a + b, n), (a, b, n)
    a, b, n = sympy.symbols("a b n", integer=True, nonnegative=True)
    choose = sympy.binomial
    closing = choose(a + b, n) + choose(a + b, n - 1) - choose(a + b + 1, n)
    assert sympy.combsimp(closing.rewrite(sympy.factorial)) == 0


def test_vandermonde_splits_route_ones_first_binomial():
    # step 1: C(2j1-l, k-l) = sum_z C(2j1-m, k-z) C(m-l, z-l) over z = l..m
    # is V_b(n) at a = 2j1 - m, b = m - l and n = k - l, summed over i = z - l
    tj1, m, k, l, z = sympy.symbols("tj1 m k l z", integer=True, nonnegative=True)
    choose = sympy.binomial
    a, b, n, i = tj1 - m, m - l, k - l, z - l
    assert sympy.expand(a + b) == tj1 - l
    summand = choose(a, n - i) * choose(b, i)
    assert summand == choose(tj1 - m, k - z) * choose(m - l, z - l)
    for tj1 in range(12):
        for m in range(tj1 + 1):
            for l in range(m + 1):
                for k in range(l, tj1 + 1):
                    split = sum(
                        binomial(tj1 - m, k - z) * binomial(m - l, z - l) for z in range(l, m + 1)
                    )
                    assert split == binomial(tj1 - l, k - l) == _vandermonde(
                        tj1 - m, m - l, k - l
                    ), (tj1, m, l, k)


def test_trinomial_revision_regroups_route_one_under_racahs_binomial():
    # C(m, l) C(m-l, z-l) = C(m, z) C(z, l): route 1's C(m, l) times
    # Vandermonde's C(m-l, z-l) is Racah's C(m, z) times the C(z, l) of F(z)
    m, l, z = sympy.symbols("m l z", integer=True, nonnegative=True)
    choose = sympy.binomial
    ratio = sympy.combsimp(choose(m, l) * choose(m - l, z - l) / (choose(m, z) * choose(z, l)))
    assert ratio == 1


def _inner_sum(b, r, z, choose=binomial):
    """F_b(z) = sum_l (-1)^l C(z, l) C(b+l, r) for an integer z >= 0.  At
    b = 2j2 - m and r = 2j2 - m - s + k, C(b+l, r) is C(2j2-m+l, s-k+l),
    and the claim F_b(z) = (-1)^z C(b, r-z) is Racah's C(2j2-m, s-k+z)."""
    return sum((-1) ** l * choose(z, l) * choose(b + l, r) for l in range(z + 1))


def test_the_inner_sum_starts_at_racahs_binomial():
    # the base case: F_b(0) = C(b, r), which is (-1)^z C(b, r-z) at z = 0
    b, r = sympy.symbols("b r", integer=True, nonnegative=True)
    assert _inner_sum(b, r, 0, sympy.binomial) == sympy.binomial(b, r)


def test_the_inner_sum_steps_to_racahs_binomial_by_pascals_rule():
    # Pascal's rule C(z+1, l) = C(z, l) + C(z, l-1) splits F_b(z+1) into
    # F_b(z) - F_(b+1)(z); with the claim for z at b and at b+1, F_b(z+1)
    # is (-1)^z (C(b, r-z) - C(b+1, r-z)), which is the claim for z + 1
    # exactly when the closing identity below holds
    for b in range(8):
        for r in range(10):
            for z in range(6):
                step = _inner_sum(b, r, z) - _inner_sum(b + 1, r, z)
                assert _inner_sum(b, r, z + 1) == step, (b, r, z)
                assert _inner_sum(b, r, z) == (-1) ** z * binomial(b, r - z), (b, r, z)
    b, r, z = sympy.symbols("b r z", integer=True, nonnegative=True)
    choose = sympy.binomial
    closing = choose(b, r - z) - choose(b + 1, r - z) + choose(b, r - z - 1)
    assert sympy.combsimp(closing.rewrite(sympy.factorial)) == 0


def test_a_term_of_the_lowering_power_is_s_factorial_times_route_ones_binomials():
    # J-^s = sum_p C(s, p) J-(1)^p J-(2)^(s-p).  In the scaled basis, the
    # p = k - l steps of J-(1) from m1 = j1 - l multiply by
    # (2j1-l)! / (2j1-k)!, and the s - p steps of J-(2) by
    # (2j2-m+l)! / (2j2-m+k-s)!; the term is s! C(2j1-l, k-l) C(2j2-m+l, s-k+l)
    tj1, tj2, m, s, k, l = sympy.symbols(_SYMBOLS, integer=True, nonnegative=True)
    choose, factorial = sympy.binomial, sympy.factorial
    term = (
        choose(s, k - l)
        * factorial(tj1 - l) / factorial(tj1 - k)
        * factorial(tj2 - m + l) / factorial(tj2 - m + k - s)
    )
    binomials = factorial(s) * choose(tj1 - l, k - l) * choose(tj2 - m + l, s - k + l)
    assert sympy.combsimp(term / binomials) == 1


def _chain_sum(tj1, tj2, m, s, k, choose=binomial):
    """X_k(s) = s! sum_l (-1)^l T_l over l = 0..m, with T_l route 1's
    binomials C(2j1-l, k-l) C(2j2-m+l, s-k+l) C(m, l): the closed sum that
    the ladder route's integer coordinate x_k at step s should be."""
    return sympy.factorial(s) * sum(
        (-1) ** l * choose(tj1 - l, k - l) * choose(tj2 - m + l, s - k + l) * choose(m, l)
        for l in range(m + 1)
    )


def _chain_step():
    """The step of `ladder._integer_chain` read from its source: the
    symbols (tj1, tj2, m, s, k, lo), and x'_k with its x_(k-1) and x_k as
    the symbolic X(k-1, s) and X(k, s).  ``padded`` holds x_(lo-1+i) at
    i; ``up``, ``down`` and ``base`` are evaluated from the kernel's own
    assignments, so the elements are `_scaled_lowering_element`'s."""
    function = ast.parse(textwrap.dedent(inspect.getsource(ladder._integer_chain))).body[0]
    (loop,) = [node for node in function.body if isinstance(node, ast.For)]
    assignments = {
        ast.unparse(node.targets[0]): node
        for body in (function.body, loop.body)
        for node in body
        if isinstance(node, ast.Assign)
    }
    assert ast.unparse(assignments["padded"].value) == "[0, *xs, 0]"
    symbols = sympy.symbols("tj1 tj2 m s k lo", integer=True, nonnegative=True)
    tj1, tj2, m, s, k, lo = symbols
    X = sympy.Function("X")
    namespace = dict(zip(("tj1", "tj2", "m", "s", "k", "lo"), symbols))

    class Elements:
        """A list comprehension of the kernel as a function of its index."""

        def __init__(self, comprehension):
            (self.loop,) = comprehension.generators
            self.element = comprehension.elt

        def __getitem__(self, i):
            scope = {**namespace, ast.unparse(self.loop.target): i}
            scope["_scaled_lowering_element"] = ladder._scaled_lowering_element
            return _without_floor(sympy.sympify(eval(ast.unparse(self.element), {}, scope)))

    class Padded:
        def __getitem__(self, i):
            return X(lo - 1 + i, s)

    namespace["up"] = Elements(assignments["up"].value)
    namespace["down"] = Elements(assignments["down"].value)
    exec(ast.unparse(assignments["base"]), {}, namespace)
    namespace["padded"] = Padded()
    step = assignments["xs"].value
    assert isinstance(step, ast.ListComp)
    assert ast.unparse(step.generators[0].target) == "k"
    return symbols, X, sympy.expand(eval(ast.unparse(step.elt), {}, namespace))


def test_route_ones_sum_satisfies_the_integer_chains_step():
    # the chain's step is x'_k = x_(k-1) (j1 + m1 at k-1) + x_k (j2 + m2 at
    # k).  Term l of X_k(s + 1) is, by the lowering-power identity above,
    # C(s+1, p) F1(p) F2(s+1-p) with p = k - l, F1(p) = (2j1-l)! / (2j1-l-p)!
    # and F2(q) = (2j2-m+l)! / (2j2-m+l-q)!; Pascal's rule
    # C(s+1, p) = C(s, p) + C(s, p-1) splits it into term l of X_k(s)
    # times the J(2) element and term l of X_(k-1)(s) times the J(1)
    # element, each a `combsimp` identity.  Summed over l, X_k(s) solves
    # the chain's recurrence from X_k(0) = (-1)^k C(m, k), `_top`'s x_k
    (tj1, tj2, m, s, k, lo), X, step = _chain_step()
    moved, kept = step.coeff(X(k - 1, s)), step.coeff(X(k, s))
    assert sympy.expand(step - moved * X(k - 1, s) - kept * X(k, s)) == 0
    l = sympy.Symbol("l", integer=True, nonnegative=True)
    choose, factorial = sympy.binomial, sympy.factorial

    def term(k, s):
        return factorial(s) * choose(tj1 - l, k - l) * choose(tj2 - m + l, s - k + l)

    p = k - l
    lowered = factorial(tj1 - l) / factorial(tj1 - l - p)
    lowered *= factorial(tj2 - m + l) / factorial(tj2 - m + l - (s + 1 - p))
    assert sympy.combsimp(choose(s + 1, p) * lowered / term(k, s + 1)) == 1
    assert sympy.combsimp(choose(s, p) * lowered / (term(k, s) * kept)) == 1
    assert sympy.combsimp(choose(s, p - 1) * lowered / (term(k - 1, s) * moved)) == 1
    # the same step on integers, binomials outside their range 0, where the
    # ratios above are 0 / 0; and the chain's own coordinates are X_k(s)
    for tj1 in range(5):
        for tj2 in range(5):
            for m in range(min(tj1, tj2) + 1):
                for s in range(tj1 + tj2 - 2 * m):
                    for k in range(tj1 + 2):
                        up = ladder._scaled_lowering_element(tj1, tj1 - 2 * (k - 1))
                        down = ladder._scaled_lowering_element(tj2, tj2 - 2 * (m + s - k))
                        assert _chain_sum(tj1, tj2, m, s + 1, k) == (
                            _chain_sum(tj1, tj2, m, s, k - 1) * up
                            + _chain_sum(tj1, tj2, m, s, k) * down
                        ), (tj1, tj2, m, s, k)
                for s, (lo, xs, _, _) in enumerate(ladder._integer_chain(tj1, tj2, tj1 + tj2 - 2 * m)):
                    assert xs == [_chain_sum(tj1, tj2, m, s, lo + i) for i in range(len(xs))]


def test_closed_form_radical_times_the_term_squared_is_the_radicand():
    tj1, tj2, m, s, k, l = sympy.symbols(_SYMBOLS, integer=True)
    term, numer, denom = _route1_binomials(tj1, tj2, m, s, k, l, sympy.binomial)
    r_numer, r_denom = weight_binomials(tj1, tj2, m, s, l, k - l, sympy.binomial)
    tJ = tj1 + tj2 - 2 * m
    radicand = r_numer / r_denom * sympy.binomial(tj1, m) / sympy.binomial(tJ + m + 1, m)
    ratio = sympy.combsimp(numer / denom * term**2 / radicand)
    assert sympy.cancel(ratio - 1) == 0


def test_closed_form_step_squared_is_the_weight_ratio():
    (tj1, tj2, m, s, k, l), a, b = _closed_form_step()

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
            list(formulas._closed_form_walk(tj1, tj2))
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
    element = _without_floor(sympy.sympify(verification._lowering_element(tj, tm)))
    rescaling = sympy.combsimp(sympy.binomial(tj, b + 1) / sympy.binomial(tj, b))
    assert sympy.cancel(scaled**2 - element * rescaling) == 0


def test_scaled_raising_element_squared_is_the_rescaled_raising_element():
    # a = j + m and b = j - m, so 2j = a + b, 2m = a - b and
    # C(2j, j-m-1) / C(2j, j-m) = b / (a + 1)
    a, b = sympy.symbols("a b", integer=True, nonnegative=True)
    tj, tm = a + b, a - b
    scaled = _without_floor(sympy.sympify(ladder._scaled_raising_element(tj, tm)))
    element = _without_floor(sympy.sympify(verification._raising_element(tj, tm)))
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


def _factored_weights():
    """A(2j1, 2m1, 2j2, 2m2) and B(2j1, 2j2, 2J, 2M) as
    `verification._factored_cell` writes them, read from its source: the
    value it assigns to ``product_weight[tm1 + tm2][tm1]`` and the
    numerator over the denominator of its ``coupled_weight`` comprehension,
    with ``factorial[x]`` as x!."""
    source = textwrap.dedent(inspect.getsource(verification._factored_cell))
    assigned = {
        ast.unparse(node.targets[0]): node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assign)
    }
    product, coupled = assigned["product_weight[tm1 + tm2][tm1]"], assigned["coupled_weight"]
    assert isinstance(coupled, ast.DictComp) and ast.unparse(coupled.key) == "(tJ, tM)"

    class Factorials:
        def __getitem__(self, x):
            return sympy.factorial(_without_floor(sympy.sympify(x)))

    def weight(node, **names):
        return eval(ast.unparse(node), {}, {"factorial": Factorials(), **names})

    def A(tj1, tm1, tj2, tm2):
        return weight(product, tj1=tj1, tm1=tm1, tj2=tj2, tm2=tm2)

    def B(tj1, tj2, tJ, tM):
        top, bottom = weight(coupled.value, tj1=tj1, tj2=tj2, tJ=tJ, tM=tM)
        return top / bottom

    return A, B


#: j1 + m1, j1 - m1, j2 + m2 and j2 - m2
_PRODUCT = sympy.symbols("a1 b1 a2 b2", integer=True, nonnegative=True)
#: j1 + j2 - J, J + j1 - j2, J + j2 - j1 and J - M
_COUPLED = sympy.symbols("g1 g2 g3 v", integer=True, nonnegative=True)


def test_the_factored_weights_step_by_racahs_ratios():
    # A(m1+1, m2) / A(m1, m2) = (j1+m1+1) / (j1-m1) and
    # B(J, M) / B(J, M-1) = (J+M) / (J-M+1), from the helper's own A and B
    A, B = _factored_weights()
    a1, b1, a2, b2 = _PRODUCT
    tj1, tm1, tj2, tm2 = a1 + b1, a1 - b1, a2 + b2, a2 - b2
    assert sympy.combsimp(A(tj1, tm1 + 2, tj2, tm2) / A(tj1, tm1, tj2, tm2)) == (a1 + 1) / b1
    g1, g2, g3, v = _COUPLED
    tj1, tj2, tJ = g1 + g2, g1 + g3, g2 + g3
    ratio = sympy.combsimp(B(tj1, tj2, tJ, tJ - 2 * v) / B(tj1, tj2, tJ, tJ - 2 * v - 2))
    assert sympy.simplify(ratio - (tJ - v) / (v + 1)) == 0


def _step_factor_calls(function):
    """{name: its argument texts} of each list that ``function`` builds
    as ``[_step_factor(element, weight, next_weight) ...]``, and of each
    other list comprehension as ``{name: [its element text]}``, read from
    its source."""
    calls = {}
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(function)))):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.ListComp):
            elt = node.value.elt
            is_step = isinstance(elt, ast.Call) and ast.unparse(elt.func) == "_step_factor"
            calls[ast.unparse(node.targets[0])] = [
                ast.unparse(arg) for arg in (elt.args if is_step else [elt])
            ]
    return calls


def _read(text, **names):
    """The expression ``text`` of the check's source with ``names`` bound,
    its elements taken from `verification`, floors of exact divisions
    dropped."""
    scope = {
        name: getattr(verification, name)
        for name in ("_raising_element", "_lowering_element", "_ladder_element")
    }
    return _without_floor(sympy.sympify(eval(text, scope, names)))


def test_each_step_factor_moves_between_the_factored_weights():
    # `_step_factor(e, w, w')` is f = 2 sqrt(e w / w'), so sqrt(e w) =
    # (f/2) sqrt(w').  Each integer recurrence of `_ladder_cell` is then the
    # J+ or J- relation that `_apply_ladder` acts out, whatever the element
    # e, exactly when each w / w' is the ratio of the weights that its step
    # goes between: A's for a particle, B's for a coupled state.  With the
    # unscaled elements every f is an integer, 2(j-m) and 2(j+m) for a
    # particle and 2(J+M+1) and 2(J-M) for a coupled state, so a correct
    # table is decided in integers
    A, B = _factored_weights()
    particle = _step_factor_calls(verification._particle_steps)
    assert {"up", "down"} <= set(particle)
    a1, b1, a2, b2 = _PRODUCT
    tj1, tm1, tj2, tm2 = a1 + b1, a1 - b1, a2 + b2, a2 - b2
    for name, step, factors in (("up", 2, (2 * b1, 2 * b2)), ("down", -2, (2 * a1, 2 * a2))):
        for moved, (tj, tm) in enumerate(((tj1, tm1), (tj2, tm2))):
            e, w, w_next = (_read(text, tj=tj, tm=tm) for text in particle[name])
            there = A(tj1, tm1 + step * (1 - moved), tj2, tm2 + step * moved)
            ratio = sympy.combsimp(A(tj1, tm1, tj2, tm2) / there)
            assert sympy.simplify(ratio - w / w_next) == 0
            assert sympy.cancel(4 * e * w / w_next - factors[moved] ** 2) == 0
    coupled = _step_factor_calls(verification._ladder_cell)
    assert {"rises", "falls"} <= set(coupled)
    g1, g2, g3, v = _COUPLED
    tj1, tj2, tJ = g1 + g2, g1 + g3, g2 + g3
    tM = tJ - 2 * v - 2  # the lower state, v = J - M - 1 >= 0
    (element,) = coupled["elements"]
    d = _read(element, tJ=tJ, tM=tM)
    # J+ |J, M> = sqrt(d) |J, M+1> steps B(M) to B(M+1); J- the other way
    for name, (here, there), factor in (
        ("rises", (tM + 2, tM), tJ + tM + 2),
        ("falls", (tM, tM + 2), tJ - tM),
    ):
        e, w, w_next = (_read(text, tJ=tJ, tM=tM, d=d) for text in coupled[name])
        ratio = sympy.combsimp(B(tj1, tj2, tJ, here) / B(tj1, tj2, tJ, there))
        assert sympy.simplify(ratio - w / w_next) == 0
        assert sympy.cancel(4 * e * w / w_next - factor**2) == 0

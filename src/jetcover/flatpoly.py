"""Monic polynomials with a high-order root at 1 and small coefficients.

The construction needs, for each N, a monic Q with (x-1)^N | Q whose
non-leading coefficients have L1 norm strictly below 2.  That existence
is classical; here it is made effective: at fixed degree n the L1
minimum is an exact linear program, solved in integers by Stiefel's
single-point exchange on its N-node bases, with a least-index rule among
tied optimal vertices.  Degree escalation runs one warm exchange per
degree until the optimum clears the requested margin.  A degree's
certificate is what its result states: the coefficients, and the dual p in
the falling-factorial basis.  `certify_degree` checks it by LP duality in
integers and runs none of the exchange's code.

Scaling Q to P(x) = lam^{-n} Q(lam x) feeds the jet covering system.
Scaling only computes: `jetcovering.build_system` is the one place that
verifies a scaled P and builds the projection from it.
"""

from __future__ import annotations

from bisect import bisect, bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, islice, repeat
from math import factorial, lcm, perm, prod
from typing import List, Sequence, Tuple

from .errors import (
    ConstructionError,
    DegenerateInputError,
    ResourceLimitError,
    SearchExhaustedError,
)
from .rational import cleared, rat, rat_str

Coeffs = Tuple[Fraction, ...]  # index = power, last entry = leading

DEFAULT_MARGIN = Fraction(1, 16)
FLAT_DEGREE_CAP = 128  # the ladder's default and largest accepted degree cap


# --- dense polynomial helpers ------------------------------------------------


def l1_tail(coeffs: Sequence[Fraction]) -> Fraction:
    """L1 norm of the non-leading coefficients, summed over one denominator."""
    ints, d = cleared(coeffs[:-1])
    return Fraction(sum(map(abs, ints)), d)


def _assemble(nodes: Sequence[int], scaled: Sequence[int], m: int, n: int) -> List[int]:
    """M Q / x^{x_0}, index = power: the node coefficients, zeros between
    them, and the leading M."""
    a = dict(zip(nodes, scaled))
    return [a.get(j, 0) for j in range(nodes[0], n)] + [m]


# --- the L1 linear program and its exchange ------------------------------------


@dataclass(frozen=True)
class FlatPolyResult:
    """Monic Q with (x-1)^flatness | Q, plus its LP dual certificate."""

    flatness: int  # N: order of the root at 1
    coeffs: Coeffs  # monic, coeffs[0] != 0 after normalization
    optimum: Fraction  # certified minimal L1 of non-leading coefficients
    dual: Tuple[Fraction, ...]
    search_degree: int  # the LP's n; x^{x_0} is divided out of coeffs
    history: Tuple[Tuple[int, Fraction], ...] = ()

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def minimal_flat_poly(big_n: int, n: int) -> FlatPolyResult:
    """Exact L1-minimal monic degree-n polynomial with an order-N root at 1:
    one certified `_degree` from the nodes 0..N-1."""
    if not 1 <= big_n <= n:
        raise DegenerateInputError("need n >= N >= 1")
    if n > FLAT_DEGREE_CAP:
        raise ResourceLimitError(f"degree {n} is above {FLAT_DEGREE_CAP}")
    return _result(big_n, n, *_degree(big_n, n, list(range(big_n)))[1])


def _degree(big_n: int, n: int, nodes: List[int]):
    """(nodes, certificate) at degree n: `_exchange` from `nodes`, the dual p
    in the falling-factorial basis, y_i = Delta^i p(0) / i! held as integers
    over d = M (N-1)!, and M Q / x^{x_0} from `_assemble`; the certificate
    (coefficients, y, d, optimum) passes `certify_degree`."""
    nodes, scaled, diffs, _, m = _exchange(n, nodes)
    y = [c * perm(big_n - 1, big_n - 1 - i) for i, c in enumerate(diffs)]  # d y_i
    certificate = (_assemble(nodes, scaled, m, n), y, m * factorial(big_n - 1),
                   Fraction(sum(map(abs, scaled)), m))
    certify_degree(big_n, n, *certificate)
    return nodes, certificate


def _result(big_n, n, coeffs, y, d, optimum, history=()) -> FlatPolyResult:
    """A certified degree as Fractions: Q over its leading M, y over d."""
    return FlatPolyResult(flatness=big_n, coeffs=tuple(Fraction(c, coeffs[-1]) for c in coeffs),
                          optimum=optimum, dual=tuple(Fraction(v, d) for v in y),
                          search_degree=n, history=tuple(history))


def _basis(nodes: Sequence[int], n: int):
    """The degree-n basis on `nodes` over M = lcm |d_k|, d_k = prod (x_k - x_m):
    (M, M a_{x_k} = -M l_k(n) for the Lagrange basis l_k, sigma_k = sign a_{x_k},
    the differences M Delta^i p(0) of p = sum_k sigma_k l_k, the value list
    M p(0), M p(1), ..., and the lowest j < n with |p(j)| > 1 or None).  The
    list stops at the first barycentric seed j < N that fails, with the
    differences None; else N - 1 passes of additions run it to j = n - 1."""
    d = [prod(x - y for y in nodes if y != x) for x in nodes]
    m, wn = lcm(*d), prod(n - y for y in nodes)  # W(n), n is no node
    scaled = [-(m // dk) * (wn // (n - x)) for x, dk in zip(nodes, d)]
    sigma = [1 if a > 0 else -1 for a in scaled]
    weights = [s * (m // dk) for s, dk in zip(sigma, d)]
    seeds = []  # M p(j), j < N: sum_k M sigma_k W(j) / ((j - x_k) d_k) off the nodes
    for j in range(len(nodes)):
        wj = 0 if j in nodes else prod(j - y for y in nodes)
        seeds.append(sum(c * (wj // (j - x)) for c, x in zip(weights, nodes)) if wj
                     else m * sigma[nodes.index(j)])
        if abs(seeds[-1]) > m:  # the lowest violation: stop at this seed
            return m, scaled, sigma, None, seeds, j
    for i in range(1, len(seeds)):  # in place: seeds[i] becomes M Delta^i p(0)
        seeds[i:] = [b - a for a, b in zip(seeds[i - 1:], seeds[i:])]
    row = repeat(seeds[-1])
    for c in reversed(seeds[:-1]):
        row = accumulate(row, initial=c)
    row = list(islice(row, n))
    return m, scaled, sigma, seeds, row, (None if -m <= min(row) and max(row) <= m else
                                          next(j for j, v in enumerate(row) if abs(v) > m))


def _exchange(n: int, nodes: List[int]):
    """Optimal (nodes, M a_{x_k}, M Delta^i p(0), the value list M p(0..n-1),
    M) at degree n by Stiefel's single-point exchange from `nodes`, sorted and
    in [0, n); among tied optimal bases it ends on the least node tuple.

    The flat LP's dual is max -p(n) over p of degree < N with |p(j)| <= 1
    on [0, n).  A basis of N nodes has primal a_{x_k} = -l_k(n) and dual
    p = sum_k sigma_k l_k, both of value sum |a_k|.  The lowest j with
    |p(j)| > 1 enters; the ratio test (a_{x_k} reaches 0 at step
    |W(n) / W(j)| |j - x_k| / (n - x_k)) picks the neighbour of j whose
    sigma_k is sign p(j): the sigma_k alternate, so the N - 1 roots of p lie
    inside the nodes, and past an end node p keeps its sign.  As n is no
    node, every basis is nondegenerate, and each such step lowers the L1 norm.
    Once p is feasible, ties go by least index: the lowest j whose upper
    neighbour x_k has sigma_k = p(j) replaces it; the L1 norm stays, the
    basis stays optimal and the sorted node tuple falls.
    """
    while True:
        m, scaled, sigma, diffs, p, j = _basis(nodes, n)  # p[j] = M p(j)
        if j is None:  # no node is a tie: the sigma_k alternate
            j = next((j for j in range(nodes[-1]) if p[j] == m * sigma[bisect(nodes, j)]), None)
            if j is None:
                return nodes, scaled, diffs, p, m
        i = bisect(nodes, j)  # nodes[i - 1] < j < nodes[i]
        out = i if i < len(nodes) and (p[j] > 0) == (sigma[i] > 0) else i - 1
        nodes = sorted(nodes[:out] + nodes[out + 1:] + [j])


def certify_degree(big_n: int, n: int, coeffs: Sequence[int], y: Sequence[int], d: int,
                   optimum: Fraction) -> None:
    """ConstructionError unless Q = coeffs / M, M = coeffs[-1] > 0, of degree
    <= n (a power of x divided out), is L1-optimal at degree n with value
    `optimum`, by LP duality in integers: the N moment rows give
    (x - 1)^N | Q; p(j) = sum_{i<N} y_i j!/(j-i)! / d, d > 0, has |p(j)| <= 1
    for j < n; and sum |a_j| = -p(n) = optimum.  Every feasible Q has
    sum_j a_j p(j) = -p(n), so -p(n) bounds every L1 norm at degree n from
    below.  d p(0..n) comes from its own difference table, d Delta^i p(0) =
    y_i i!, by additions.  No code of the exchange runs here."""
    m, l1 = coeffs[-1], sum(map(abs, coeffs[:-1]))
    terms = [(j, c) for j, c in enumerate(coeffs) if c]  # row i: sum_j c_j j!/(j-i)! = M Q^(i)(1)
    dp = repeat(0)  # Delta^{len y} p = 0 and d Delta^i p(0) = y_i i!
    for i in reversed(range(len(y))):
        dp = accumulate(dp, initial=y[i] * factorial(i))
    dp = list(islice(dp, n + 1))  # d p(0), ..., d p(n)
    over = next((j for j in range(n) if abs(dp[j]) > d), None)
    failed = [check for check, bad in [
        ("shape", not (m > 0 < d and len(coeffs) <= n + 1 and len(y) <= big_n)),
        ("moment rows", any(sum(c * perm(j, i) for j, c in terms) for i in range(big_n))),
        (f"|p({over})| <= 1", over is not None),
        ("sum |a_j| = -p(n) = optimum", not l1 * d == -dp[n] * m
         or l1 * optimum.denominator != optimum.numerator * m)] if bad]
    if failed:
        raise ConstructionError(f"degree {n} fails its certificate: {'; '.join(failed)}")


def find_flat_poly(
    big_n: int,
    margin=DEFAULT_MARGIN,
    n_max: int = FLAT_DEGREE_CAP,
) -> FlatPolyResult:
    """Escalate the degree until the optimum is <= 2 - margin.

    Each degree runs one `_degree` from the last optimal nodes rescaled
    from [0, n - 1] to [0, n] (the alternation points of the dual move
    smoothly with the degree), certified by `certify_degree` before it
    enters the history; the optimum is non-increasing in n (x Q embeds
    degree n in n + 1), and that is checked too.  The first degree that
    meets the margin is the result; as `_exchange` ends on the least tied
    vertex from any start, it is the vertex of `minimal_flat_poly` at that
    degree.  Exhausting n_max reports the best value found.  A flatness
    below 1, a cap below N or above FLAT_DEGREE_CAP, or a margin above 1
    (Q(1) = 0 puts every optimum at >= 1), is refused first.
    """
    if big_n < 1:
        raise DegenerateInputError(f"flatness {big_n} is below 1")
    margin = rat(margin)
    if not 0 < margin <= 1:
        raise DegenerateInputError(
            f"margin {rat_str(margin)} is not in (0, 1]: Q(1) = 0 puts every L1 tail at >= 1")
    if n_max < big_n:
        raise DegenerateInputError(f"degree cap {n_max} is below the flatness {big_n}: a root "
                                   f"of order {big_n} at 1 needs degree >= {big_n}")
    if n_max > FLAT_DEGREE_CAP:
        raise ResourceLimitError(f"degree cap {n_max} is above {FLAT_DEGREE_CAP}")
    target = 2 - margin
    history: List[Tuple[int, Fraction]] = []
    nodes = list(range(big_n))
    for n in range(big_n, n_max + 1):
        nodes, certificate = _degree(big_n, n, nodes)
        optimum = certificate[-1]
        if history and optimum > history[-1][1]:
            raise ConstructionError(
                f"optimum increased from {history[-1][1]} to {optimum} at degree {n}")
        history.append((n, optimum))
        if optimum <= target:
            return _result(big_n, n, *certificate, history)
        # x n / (n - 1), rounded half up, and the top node to n: the map
        # stretches gaps by n / (n - 1) > 1, so the nodes stay distinct
        nodes = [(2 * x * n + n - 1) // (2 * n - 2) for x in nodes[:-1]] + [n]
    raise SearchExhaustedError(
        f"no degree <= {n_max} reached {target}; best was {history[-1][1]}")


# --- scaling to P -------------------------------------------------------------


def scale_to_p(qres: FlatPolyResult, lam) -> Coeffs:
    """P(x) = lam^{-n} Q(lam x), coefficients index = power.

    Only scales: `jetcovering.build_system` verifies P.  Whether lam is
    close enough to 1 for this Q is the question l1_tail(P) < 2.
    """
    lam = rat(lam)
    if not 0 < lam < 1:
        raise DegenerateInputError("contraction must lie strictly in (0, 1)")
    n = qres.degree
    return tuple(qres.coeffs[j] * lam ** (j - n) for j in range(n + 1))


def lambda_threshold(qres: FlatPolyResult) -> Fraction:
    """Largest grid contraction (resolution 2^-20) that still fails the L1 bound.

    The scaled L1 norm sum |a_j| lam^{j-n} is strictly decreasing in lam,
    so the bound holds exactly for grid values above the returned
    threshold and fails at and below it.
    """
    if qres.optimum >= 2:
        raise DegenerateInputError("threshold needs an optimum below 2")
    n, (ints, den) = qres.degree, cleared(qres.coeffs)
    weights = [abs(ints[j]) << 20 * (n - j) for j in reversed(range(n))]  # |a_j| den 2^(20 (n-j))

    def holds(k: int) -> bool:
        # sum |a_j| lam^(j-n) < 2 at lam = k / 2^20, times den * 2^(20n) * lam^n
        return reduce(lambda acc, w: acc * k + w, weights, 0) < 2 * den * k ** n

    if not holds(2 ** 20 - 1):
        raise ConstructionError("bound fails even adjacent to 1")
    # the smallest grid index k in [1, 2^20) where the bound holds, lam = k / 2^20
    return Fraction(bisect_left(range(2 ** 20), True, 1, 2 ** 20 - 1, key=holds) - 1, 2 ** 20)

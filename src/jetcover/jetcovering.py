"""The jet-space covering system and the constructive realizer.

Reversing jet coordinates conjugates the two lifted maps of the standard
family to F_d: X -> J X + d T on R^N (J upper-triangular, diagonal lam,
superdiagonal N-1..1; T = e_N; d = +-1).  A scaled flat polynomial P
with coefficients b_j supplies a full-rank projection from R^n, built
column by column as pi_{k+1} = J pi_k + b_{k+1} e_N, that intertwines F_d
with explicit shift maps, transporting the easy covering of the box
Delta = (-base^n, base^n) x ... x (-base, base) to an open covered set
A = projection(Delta) in jet space.

Every verdict here is exact: the semi-conjugacy is checked as an
affine-map identity in closed form, and it judges the root of P and the
projection too, in one gcd-free pass over b and pi as integer rows over
one denominator each, which membership, the pullback and the bounds read;
the Delta covering gets two independent proofs; membership in A is the
optimum of an integer dual exchange, with an interiority margin and a
re-checked certificate; and the realizer's word comes with a proved
residual bound that the exact forward jet is verified against.

The realizer works in integers: one plan on the closed-form norm(J^k)
fixes k, the precision P and the bound before any membership work,
membership is one dual exchange, the greedy pullback runs in P-bit fixed
point with its rounding carried by the bound (midpoint-radius style), and
the forward check sums the word's jet by binary splitting over Horner
leaves.  A target not certified interior raises NotCoveredError.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import comb, gcd, lcm, perm
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .boxes import Interval
from .errors import (
    ConstructionError,
    DegenerateInputError,
    NotCoveredError,
    ResourceLimitError,
    ShapeError,
    SingularMatrixError,
)
from .flatpoly import FLAT_DEGREE_CAP, Coeffs, l1_tail
from .jets import Jet, reverse_jet
from .linalg import Mat, Vec, integer_inverse
from .rational import cleared, rat, rat_str

Word = Tuple[str, ...]
IntegerRows = Tuple[List[int], int, List[List[int]], int]  # (beta, B, rows, D)


@dataclass(frozen=True)
class JetCoveringSystem:
    """The covered jet-space IFS, fixed by four values.  The branches X -> J X
    +- T (J = lam I + S by `branch_matrix`, T = e_N) follow from jet_dim and
    lam; the members derived here are the projection intertwining shifts and
    branches as integer rows (`integer_rows`), the box radii over one
    denominator (`integer_radii`) and their `reach`.

    jet_dim:       N, the dimension of the jet space (order r = N - 1)
    lam:           shared contraction of the two base maps
    p_coeffs:      scaled flat polynomial, monic, constant term nonzero
    box_base:      base > 1 of the pullback box geometry
    """

    jet_dim: int
    lam: Fraction
    p_coeffs: Coeffs
    box_base: Fraction

    @property
    def n(self) -> int:
        return len(self.p_coeffs) - 1

    @property
    def order(self) -> int:
        return self.jet_dim - 1

    @cached_property
    def integer_rows(self) -> IntegerRows:
        """(beta, B, rows, D) of `projection_rows`: p_coeffs = beta / B and
        the projection = rows / D, in integers."""
        return projection_rows(self.p_coeffs, self.lam, self.jet_dim)

    @cached_property
    def integer_radii(self) -> Tuple[Tuple[int, ...], int]:
        """Box radii over one denominator: base^(n-i) = a^(n-i) b^i / b^n, base = a/b."""
        a, b, n = self.box_base.numerator, self.box_base.denominator, self.n
        return tuple(a ** (n - i) * b ** i for i in range(n)), b ** n

    @cached_property
    def reach(self) -> Fraction:
        """Exact sup-norm bound of the projected pullback box (it is
        centered); the step search and the residual bound share it."""
        (_, _, rows, den), (radii, scale) = self.integer_rows, self.integer_radii
        return Fraction(max(sum(map(mul, map(abs, row), radii)) for row in rows), den * scale)


def branch_matrix(jet_dim: int, lam: Fraction) -> Mat:
    """J = lam I + S, S the superdiagonal N-1, ..., 1."""
    rows = []
    for i in range(jet_dim):
        row = [Fraction(0)] * jet_dim
        row[i] = lam
        if i + 1 < jet_dim:
            row[i + 1] = Fraction(jet_dim - 1 - i)
        rows.append(tuple(row))
    return tuple(rows)


def projection_rows(p_coeffs: Sequence[Fraction], lam: Fraction, jet_dim: int) -> IntegerRows:
    """(beta, B, rows, D): b = beta / B, B the lcm of b's denominators, and the
    N x n projection pi = rows / D, D = B q^(n-1) for lam = p/q.  Column k is
    built as B q^k pi_k by pi_0 = b_0 e_N and pi_{k+1} = J pi_k + b_{k+1} e_N,
    then scaled by q^(n-1-k); entry (i, k) of pi is B_k^(N-1-i)(lam) for the
    partial sums B_k(x) = sum_{j<=k} b_j x^(k-j).  Not checked here."""
    beta, big_b = cleared(p_coeffs)
    p, q, n = lam.numerator, lam.denominator, len(beta) - 1
    cols = [[0] * (jet_dim - 1) + [beta[0]]]
    for k, c in enumerate(beta[1:-1], 1):
        col = cols[-1]
        cols.append([p * e + q * (jet_dim - 1 - i) * down
                     for i, (e, down) in enumerate(zip(col, col[1:]))] + [p * col[-1] + q ** k * c])
    scales = [q ** (n - 1 - k) for k in range(n)]
    return beta, big_b, [list(map(mul, row, scales)) for row in zip(*cols)], big_b * q ** (n - 1)


def box_inequality(base: Fraction, n: int, l1_tail: Fraction) -> Tuple[bool, Fraction, Fraction]:
    """(lhs < rhs, lhs, rhs) for the covering inequality base^n * l1_tail < base + 1."""
    lhs, rhs = base ** n * l1_tail, base + 1
    return lhs < rhs, lhs, rhs


def choose_box_base(n: int, l1_tail: Fraction) -> Fraction:
    """Base 1 + 2^-s for the first s in 10, 14, ..., 30 that satisfies the
    covering inequality of `box_inequality`.

    The root of an admissible P at 1/lam gives l1_tail > 1, so the slack
    (base + 1) - base^n * l1_tail falls strictly on base >= 1 and the grid
    point next to 1 is the grid's best.  A base close enough to 1 always
    works; the finer rungs reach it when lam sits near its threshold.
    """
    for shift in (10, 14, 18, 22, 26, 30):
        base = 1 + Fraction(1, 2 ** shift)
        if box_inequality(base, n, l1_tail)[0]:
            return base
    raise ConstructionError(
        "no grid base satisfies the covering inequality; "
        "the contraction is too close to its threshold"
    )


def build_system(
    jet_dim: int,
    lam,
    p_coeffs: Sequence[Fraction],
    box_base=None,
) -> JetCoveringSystem:
    """Assemble and exactly verify the full covering system, the only
    place a scaled polynomial is verified; each condition has one judge.

    The semi-conjugacy identity judges the projection pi, as a zero
    residual determines pi: the offset residual fixes column 0 to b_0 e_N,
    and matrix-residual column k < n-1 fixes column k+1 from column k
    (pi[:, k+1] = J pi[:, k] + b_{k+1} e_N).  Column n-1 is then the
    derivatives of order < N of x^n P(1/x) at lam, zero exactly when
    (x - 1/lam)^N | P: judged after the others, before the base is chosen,
    and an input error (the others are ConstructionError).  A zero residual
    makes pi full rank: pi[:, c] = sum_{j<=c} b_j J^(c-j) e_N, e_N is cyclic
    for J, b_0 != 0 and the root needs n >= N.  A base the caller gives
    that breaks the box inequality is an input error.
    """
    if jet_dim < 1:
        raise DegenerateInputError(f"jet dimension {jet_dim} must be at least 1")
    lam = rat(lam)
    if not 0 < lam < 1:
        raise DegenerateInputError("contraction must lie in (0, 1)")
    b = tuple(rat(c) for c in p_coeffs)
    n, l1 = len(b) - 1, l1_tail(b)
    if n < 1:
        raise DegenerateInputError("polynomial must have positive degree")
    if b[0] == 0 or b[-1] != 1:
        raise DegenerateInputError("need a monic polynomial with nonzero constant")
    if l1 >= 2:
        raise DegenerateInputError(
            f"non-leading L1 norm {rat_str(l1)} is not below 2; contraction too small")
    if n > FLAT_DEGREE_CAP:
        raise ResourceLimitError(f"degree {n} is above {FLAT_DEGREE_CAP}")
    rootless = f"polynomial has no root of order {jet_dim} at 1/lam"
    if jet_dim > n:
        raise DegenerateInputError(rootless)
    ints = projection_rows(b, lam, jet_dim)
    if any(row[-1] for row in _judge(_residual_ints(jet_dim, lam, *ints), n - 1)[0]):
        raise DegenerateInputError(rootless)
    if box_base is None:
        base = choose_box_base(n, l1)
    else:
        base = rat(box_base)
        if base <= 1:
            raise DegenerateInputError("box base must exceed 1")
        holds, lhs, rhs = box_inequality(base, n, l1)
        if not holds:
            raise DegenerateInputError(f"box inequality fails: {rat_str(lhs)} >= {rat_str(rhs)}")
    system = JetCoveringSystem(jet_dim, lam, b, base)
    vars(system)["integer_rows"] = ints  # the judged rows: pi is built once per system
    return system


def _residual_ints(big_n: int, lam: Fraction, beta, big_b, rows, den):
    """(matrix, offset, s): the residuals of branch +1 times s = q beta_0 D,
    lam = p/q, in one gcd-free pass over b = beta / B and pi = rows / D;
    matrix column c is beta_0 (p pi_c + q S pi_c - q pi_{c+1}) + q beta_{c+1}
    pi_0 and the offset is q (beta_0 D e_N - B pi_0)."""
    p, q = lam.numerator, lam.denominator
    below = rows[1:] + [[0] * len(rows[0])]  # (S pi)_i = (N - 1 - i) pi_{i+1}
    mat = [[beta[0] * (p * e + q * ((big_n - 1 - i) * down - right)) + q * c * row[0]
            for e, down, c, right in zip(row, lower, beta[1:], row[1:] + [0])]
           for i, (row, lower) in enumerate(zip(rows, below))]
    offset = [q * (beta[0] * den * (i == big_n - 1) - big_b * row[0]) for i, row in enumerate(rows)]
    return mat, offset, q * beta[0] * den


def _judge(residuals, columns: Optional[int] = None):
    """The `_residual_ints` residuals, or a ConstructionError naming the first
    nonzero entry, reading the first `columns` columns of the matrix residual
    (all by default); branch -1 shares the matrix and negates the offset."""
    mat, offset, scale = residuals
    first = next(((f"matrix[{i}][{j}]", e) for i, row in enumerate(mat)
                  for j, e in enumerate(row[:columns]) if e), None)
    first = first or next(((f"offset[{i}]", e) for i, e in enumerate(offset) if e), None)
    if first:
        raise ConstructionError(
            f"semi-conjugacy residual {first[0]} = {Fraction(first[1], scale)} for branch +1")
    return residuals


def verify_semiconjugacy(sys: JetCoveringSystem) -> None:
    """ConstructionError, naming the first violation, unless the residuals
    of branch o projection - projection o shift are zero for both branches.

    The shift of branch d is v -> M v + (d / b_0) e_0, (M v)_0 = -sum_{j>=1}
    b_j v_{j-1} / b_0 and (M v)_k = v_{k-1}, so column c of the shared matrix
    residual J pi - pi M is lam pi_c + S pi_c + (b_{c+1} / b_0) pi_0 - pi_{c+1}
    (pi_n = 0), and branch d's offset residual is d (e_N - pi_0 / b_0), with
    J = lam I + S and T = e_N as jet_dim and lam fix them, formed in integers
    from p_coeffs and the system's projection rows.  The generic products
    in `tests/jetcovering_helpers.py` are this closed form's oracle.  The
    residuals are formed once and judged.
    """
    _judge(_residual_ints(sys.jet_dim, sys.lam, *sys.integer_rows))


@dataclass(frozen=True)
class DeltaCoveringCertificate:
    """Two independent proofs that the shifts cover the pullback box.

    analytic: the exact scalar inequality base^n * l1_tail < base + 1 with
    base > 1 (each point of the closed box then admits a branch whose new
    leading coordinate stays strictly inside).
    window cover: the exact range [-R, R], R = sum_{j<n} |b_j| base^(n-j),
    of the branch functional s(u) = sum b_j u_j is split into the leaves
    [-R, 0] and [0, R], each checked to lie in its window (d - base, d +
    base), d = -1 and +1, shrunk by m = min((base + 1 - R)/2, (base - 1)/2).
    A first-fit bisection of [-R, R] ends on these two leaves: P has the
    root 1/lam > 1, so Cauchy's bound gives l1_tail >= 1/lam > 1, and R >=
    base * l1_tail > base, so [-R, R] fits neither window whole.
    """

    inequality_lhs: Fraction
    inequality_rhs: Fraction
    functional_range: Interval
    window_leaves: Tuple[Tuple[Interval, str], ...]
    margin: Fraction


def certify_delta_covering(sys: JetCoveringSystem) -> DeltaCoveringCertificate:
    base, (beta, big_b, _, _) = sys.box_base, sys.integer_rows
    holds, lhs, rhs = box_inequality(base, sys.n, Fraction(sum(map(abs, beta[:-1])), big_b))
    if not (base > 1 and holds):
        raise ConstructionError(f"analytic covering proof fails: base {base}, {lhs} !< {rhs}")
    radii, scale = sys.integer_radii
    reach = Fraction(sum(map(mul, map(abs, beta), radii)), big_b * scale)  # sum_{j<n} |b_j| r_j
    margin = min((rhs - reach) / 2, (base - 1) / 2)
    if margin <= 0:
        raise ConstructionError("no positive margin for the window cover")
    zero, leaves = Fraction(0), []
    for lo, hi, d, label in ((-reach, zero, -1, "-"), (zero, reach, 1, "+")):
        if not d - base + margin <= lo <= hi <= d + base - margin:
            raise ConstructionError(f"the window leaf {Interval(lo, hi)} leaves the {label} window")
        leaves.append((Interval(lo, hi), label))
    return DeltaCoveringCertificate(inequality_lhs=lhs, inequality_rhs=rhs,
                                    functional_range=Interval(-reach, reach),
                                    window_leaves=tuple(leaves), margin=margin)


# --- membership and realization ----------------------------------------------


@dataclass(frozen=True)
class MembershipResult:
    witness: Optional[Vec] = None  # None: not certified
    margin: Optional[Fraction] = None

    @property
    def certified(self) -> bool:
        return self.witness is not None


_MAX_EXCHANGES = 100_000
DEFAULT_MAX_STEPS = 100_000  # default cap on the realizer's step count k


def membership_certificate(sys: JetCoveringSystem, target: Jet):
    """(u, t, y): the optimal margin t of max t s.t. projection u = x and
    |u_i| <= r_i - t (r the box radii), a witness u and a dual y, by a
    bounded-variable dual simplex in integers on N x N working bases.

    A reference frees N - 1 coordinates F and holds each other one at
    u_i = sigma_i (r_i - t); its y spans the null space of pi_F^T, and it is
    dual feasible when mu_i = -sigma_i (pi^T y)_i >= 0.  From F = {0..N-2},
    the lowest free coordinate out of its bound leaves F on the side it
    broke, and the dual ratio test over the mu_i picks the one that enters
    (lowest index on ties).  Past the cap t <= r_min = min r_i, y shrinks to
    0, the lowest bound coordinate with mu_i > 0 is freed, and N free
    coordinates sit at t = r_min until a violated one blocks no mu_i.
    With pi_i = a_i P_i, P_i primitive integer vectors, one fraction-free
    inverse of the small basis [P_F | P_m] (mu_m > 0) gives y, the exchange
    direction and the primal.
    """
    if target.dim != 1 or target.order != sys.order:
        raise ShapeError(f"target must be a dim-1 jet of order {sys.order}")
    x, n, big_n = reverse_jet(target).flat(), sys.n, sys.jet_dim
    _, _, rows, pi_den = sys.integer_rows
    den = lcm(pi_den, *(e.denominator for e in x))
    ints = [[e * (den // pi_den) for e in col] for col in zip(*rows)]
    weights = [gcd(*col) or 1 for col in ints]  # pi_i den = weights_i cols_i
    cols = [[e // g for e in col] for g, col in zip(weights, ints)]
    big_r, scale = sys.integer_radii
    r_min = min(big_r)
    w, b = [0] * big_n, [scale * e.numerator * (den // e.denominator) for e in x]

    def bind(k, sk):  # add (or, with -sigma_k, drop) the term u_k = sk (r_k - t)
        for i, ci in enumerate(cols[k]):
            w[i] -= sk * weights[k] * ci
            b[i] -= sk * big_r[k] * weights[k] * ci

    def invert():  # the reference's (M, d), M = d [P_F | P_m]^-1 (no P_m under the cap)
        try:
            return integer_inverse(list(zip(*(cols[k] for k in free + [m] * (not cap)))))
        except SingularMatrixError:
            raise ConstructionError("a membership reference is singular") from None

    free, cap, m = list(range(big_n - 1)), False, big_n - 1
    inv, d = invert()  # each reference is inverted once, here or at the end of a step
    sigma = [0] * (big_n - 1) + [-1 if sum(map(mul, col, inv[-1])) > 0 else 1
                                 for col in cols[big_n - 1:]]
    for k, sk in enumerate(sigma):
        bind(k, sk)
    for _ in range(_MAX_EXCHANGES):
        beta = [sum(map(mul, row, b)) for row in inv]
        omega = [sum(map(mul, row, w)) for row in inv]
        y = [0] * big_n if cap else [-sigma[m] * e for e in inv[-1]]  # mu_m = d > 0
        # t = tau / (wn scale); y.w > 0 is the sum of the mu_i
        tau, wn = (r_min, 1) if cap else (sum(map(mul, y, b)), sum(map(mul, y, w)))
        primal = {k: bk * wn - tau * ok for k, bk, ok in zip(free, beta, omega)}
        out = next((k for k in free if abs(primal[k]) > d * weights[k] * (big_r[k] * wn - tau)),
                   None)
        if out is None and tau <= r_min * wn:
            witness = tuple(Fraction(primal[k], d * wn * scale * weights[k]) if k in primal
                            else Fraction(sigma[k] * (big_r[k] * wn - tau), wn * scale)
                            for k in range(n))
            return witness, Fraction(tau, wn * scale), tuple(y)
        c = [sum(map(mul, col, y)) if sk else 0 for sk, col in zip(sigma, cols)]
        if out is None:  # enter the cap t <= r_min
            inn, cap = next(k for k in range(n) if c[k]), True
        else:
            s = 1 if primal[out] > 0 else -1
            v = inv[free.index(out)]
            cv = [sum(map(mul, col, v)) if sk else 0 for sk, col in zip(sigma, cols)]
            # y turns towards -s v; mu_k reaches 0 at cot = -s sigma_k cv_k / mu_k,
            # and the first crossing (largest cot; +inf if mu_k = 0 falls) enters
            inn = best_num = best_den = None
            for k in range(n):
                num, den_k = -s * sigma[k] * cv[k], -sigma[k] * c[k]
                if (den_k > 0 or num > 0) and (inn is None or num * best_den > best_num * den_k):
                    inn, best_num, best_den = k, num, den_k
            if inn is None or (not cap and best_den > 0):
                cap, m = False, out  # out has mu > 0 in the next reference
            free.remove(out)
            bind(out, s)
            sigma[out] = s
        if inn is not None:
            free = sorted(free + [inn])
            bind(inn, -sigma[inn])
            sigma[inn] = 0
        inv, d = invert()
    raise ResourceLimitError(f"membership exchange exceeded {_MAX_EXCHANGES} steps")


def check_membership(sys: JetCoveringSystem, target: Jet, u, t, y) -> None:
    """ConstructionError unless, in integers over one denominator, pi u = x,
    |u_i| <= r_i - t, and t = min r_i or c = pi^T y has sum |c_i| > 0 and
    t sum |c_i| = x.y + sum r_i |c_i|.  Every feasible (u', t') has t' <=
    min r_i and t' sum |c_i| <= c.u' + sum r_i |c_i| (weak duality), so
    either equality proves t optimal."""
    x, (_, _, rows, den) = reverse_jet(target).flat(), sys.integer_rows
    radii, scale = sys.integer_radii
    m = lcm(den, scale, *(e.denominator for e in (*x, *u, *y, t)))
    xs, us, ys, (ts,) = ([e.numerator * (m // e.denominator) for e in values]
                         for values in (x, u, y, [t]))
    rs = [r * (m // scale) for r in radii]
    rows = [[e * (m // den) for e in row] for row in rows]
    if any(sum(map(mul, row, us)) != m * xi for row, xi in zip(rows, xs)):
        raise ConstructionError("the membership witness does not project to the target")
    if any(abs(ui) > ri - ts for ui, ri in zip(us, rs)):
        raise ConstructionError("the membership witness leaves its shrunk box")
    if ts == min(rs):
        return
    cs = [sum(map(mul, column, ys)) for column in zip(*rows)]
    total = sum(map(abs, cs))
    if total == 0 or ts * total != m * sum(map(mul, xs, ys)) + sum(map(mul, rs, map(abs, cs))):
        raise ConstructionError("the membership dual does not prove the margin optimal")


def certify_membership(sys: JetCoveringSystem, target: Jet) -> MembershipResult:
    """Is the reversed jet the projection of a box point with margin t >= 0?
    The margin is `membership_certificate`'s optimum, re-proved by
    `check_membership`; a negative optimum is not certified."""
    witness, margin, dual = membership_certificate(sys, target)
    check_membership(sys, target, witness, margin, dual)
    return MembershipResult() if margin < 0 else MembershipResult(witness, margin)


@dataclass(frozen=True)
class RealizationResult:
    itinerary: Word  # outermost-first branch labels "+" / "-"
    achieved_residual: Fraction
    residual_bound: Fraction
    membership: MembershipResult  # the interiority proof used

    @property
    def steps(self) -> int:
        return len(self.itinerary)


def power_norm_numerator(lam: Fraction, jet_dim: int, k: int) -> int:
    """q^k * norm(J^k), lam = p/q.  Row 0 of J^k = (lam I + S)^k holds
    C(k,m) lam^(k-m) (N-1)!/(N-1-m)!, m < N; it dominates every other row
    of the nonnegative J^k, so its sum is the norm, formed with one big power
    as p^(k-t) sum_{m<=t} C(k,m) perm(N-1,m) p^(t-m) q^m, t = min(k, N-1)."""
    p, q, top = lam.numerator, lam.denominator, min(k, jet_dim - 1)
    return p ** (k - top) * sum(comb(k, m) * perm(jet_dim - 1, m) * p ** (top - m) * q ** m
                                for m in range(top + 1))


def residual_bound(sys: JetCoveringSystem, k: int) -> Fraction:
    """norm(J^k) * reach: certified distance after k pullback steps, reduced once."""
    if k < 0:
        raise DegenerateInputError("k must be >= 0")
    reach = sys.reach
    return Fraction(power_norm_numerator(sys.lam, sys.jet_dim, k) * reach.numerator,
                    sys.lam.denominator ** k * reach.denominator)


PRECISION_FLOOR = 128  # least bits of the fixed-point pullback
_LEAF = 512  # letters of a Horner leaf in word_jet's product tree


def power_norm_sum(lam: Fraction, jet_dim: int) -> Fraction:
    """S = sum_{t>=0} norm(J^t) = sum_{m<N} perm(N-1,m) / (1-lam)^(m+1), by
    `power_norm_numerator`'s row sum and sum_t C(t,m) lam^(t-m) = (1-lam)^-(m+1)."""
    return sum(perm(jet_dim - 1, m) / (1 - lam) ** (m + 1) for m in range(jet_dim))


def realization_plan(
    sys: JetCoveringSystem, tol, max_steps: int = DEFAULT_MAX_STEPS
) -> Tuple[int, int, Fraction]:
    """(k, P, bound) of a realization, in integers before any membership
    work.  With reach = A/B, tol = t/u and lam = p/q, room(k) = t B q^k -
    q^k norm(J^k) A u, formed once per k, is u q^k B (tol - residual_bound(k)).
    k is 0 if room(0) >= 0, else the least k with room(k) > 0 (room to
    round); ResourceLimitError past max_steps, DegenerateInputError below 0.
    norm(J^k) is log-concave in k (lam^k times a binomial transform of the
    log-concave (N-1)!/(N-1-m)! lam^-m; Davenport-Polya), so it stays >= its
    k = 0 value while rising, then strictly falls: past k = 0 the k meeting
    tol form an up-set, found by doubling and exact bisection.

    P is the least P >= PRECISION_FLOOR with bound = residual_bound(k) +
    2^-P (max_i |pi_{i,n-1}| S + norm(pi)) <= tol, S = `power_norm_sum`,
    formed as one Fraction; k = 0 rounds nothing: (0, 0, reach).  A P-bit
    pullback rounds the witness and each appended coordinate by less than
    2^-P; with e_t step t's rounding, the semi-conjugacy telescopes to
    x - F_word(0) = J^k pi u~_k - sum_{t<k} J^(t+1) pi e_t + pi (u_0 - u~_0),
    u~_k in the box, and sum_{t<k} norm(J^(t+1)) <= S."""
    tol = rat(tol)
    if tol <= 0:
        raise DegenerateInputError("tolerance must be positive")
    if max_steps < 0:
        raise DegenerateInputError(f"max_steps {max_steps} is below 0")
    (big_a, big_b), (t, u) = sys.reach.as_integer_ratio(), tol.as_integer_ratio()
    q = sys.lam.denominator

    @cache
    def room(k: int) -> int:
        return t * big_b * q ** k - power_norm_numerator(sys.lam, sys.jet_dim, k) * big_a * u

    def meets(k: int) -> bool:
        return room(k) > 0 or k == room(k) == 0

    lo, hi = -1, 0  # meets(lo) is false, or lo is -1
    while not meets(hi):
        if hi >= max_steps:
            raise ResourceLimitError(f"tol {rat_str(tol)} unreachable within {max_steps} steps")
        lo, hi = hi, min(2 * hi + 1, max_steps)
    k = bisect_left(range(hi), True, lo + 1, key=meets)
    if k == 0:
        return 0, 0, sys.reach
    _, _, rows, pi_den = sys.integer_rows
    term = (max(abs(row[-1]) for row in rows) * power_norm_sum(sys.lam, sys.jet_dim)
            + max(sum(map(abs, row)) for row in rows)) / pi_den
    c, e, den, gap = term.numerator, term.denominator, q ** k * big_b, room(k)
    precision = max(PRECISION_FLOOR, (-(-c * u * den // (e * gap)) - 1).bit_length())
    scale = e << precision
    return k, precision, Fraction((t * den - gap) * scale + c * u * den, u * den * scale)


def fixed_point_pullback(sys: JetCoveringSystem, u: Sequence[Fraction], precision: int,
                         steps: int) -> Word:
    """The greedy pullback from u in `precision`-bit fixed point.

    The window holds the n entries W_i = u_i 2^P of the tracked point, and
    b_j = beta_j / B (j < n), in integers.  A step appends delta - sum b_j
    u_j for delta = +1, else -1, rounded toward zero, the first whose
    rounded value lies in (-base, base), and drops the leading entry.  The
    witness is rounded toward zero too, so every tracked point lies in the
    box and the Delta covering gives each step a feasible branch; no
    feasible branch is a ConstructionError."""
    (beta, big_b, _, _), base = sys.integer_rows, sys.box_base
    terms = [(j, c) for j, c in enumerate(beta[:-1]) if c]
    one, limit = big_b << precision, base.numerator << precision
    window, word = deque((int(x * (1 << precision)) for x in u), maxlen=len(u)), []
    for _ in range(steps):
        s = sum(c * window[j] for j, c in terms)
        for delta in (1, -1):
            num = delta * one - s
            size = abs(num) // big_b  # |appended| 2^P, rounded toward zero
            if size * base.denominator < limit:
                window.append(size if num >= 0 else -size)
                word.append("+" if delta == 1 else "-")
                break
        else:
            raise ConstructionError(f"covering violated: no branch at functional value "
                                    f"{rat_str(Fraction(s, one))}")
    return tuple(word)


def greedy_pullback_step(sys: JetCoveringSystem, u: Vec) -> Tuple[int, Vec]:
    """One exact greedy step from u: the branch taken and the new u, which
    appends delta - sum b_j u_j for delta = +1, else -1, the first inside
    (-base, base), and drops u's leading entry."""
    s = sum(map(mul, sys.p_coeffs, u))
    for delta in (1, -1):
        if abs(delta - s) < sys.box_base:
            return delta, tuple(u[1:]) + (delta - s,)
    raise ConstructionError(f"covering violated: no branch at functional value {rat_str(s)}")


def word_jet(lam: Fraction, word: Sequence[str], order: int) -> Jet:
    """Closed-form continuation jet of a word under the standard pair, from
    `_word_sums`; `continuation_jet` is the oracle."""
    den = lam.denominator ** len(word)
    return Jet.scalar([Fraction(v, den) for v in _word_sums(lam, word, order)])


def _word_sums(lam: Fraction, word: Sequence[str], order: int) -> List[int]:
    """q^k times the raw derivatives of f = sum_i d_i (lam + a)^i up to
    `order`, k = len(word), lam = p/q.  A run of at most _LEAF letters is a
    Horner sum in integers, and a longer one splits at its midpoint m into
    f_lo + (lam + a)^m f_hi (binary splitting); a run of l letters is held
    as q^l times its derivatives."""
    p, q, signs = lam.numerator, lam.denominator, [1 if d == "+" else -1 for d in word]

    def run(lo: int, hi: int) -> List[int]:
        if hi - lo <= _LEAF:
            out = []
            for r in range(order + 1):
                acc, den = 0, 1
                for i in range(hi - 1, lo + r - 1, -1):
                    acc = acc * p + signs[i] * perm(i - lo, r) * den
                    den *= q
                out.append(acc * q ** (r + 1))
            return out
        m = (hi - lo) // 2
        low, high, scale = run(lo, lo + m), run(lo + m, hi), q ** (hi - lo - m)
        # raw derivative j of (lam + a)^m, times q^m
        power = [perm(m, j) * p ** (m - j) * q ** j for j in range(min(order, m) + 1)]
        return [scale * low[r] + sum(comb(r, j) * power[j] * high[r - j]
                                     for j in range(min(r, m) + 1))
                for r in range(order + 1)]

    return run(0, len(signs))


def realize_jet(
    sys: JetCoveringSystem, target: Jet, tol, max_steps: int = DEFAULT_MAX_STEPS
) -> RealizationResult:
    """Constructively realize a certified-interior jet as a continuation jet.

    Fixes k, the precision P and the bound by one `realization_plan` call
    first, proves membership by `certify_membership` (NotCoveredError when
    the target is not certified interior with a positive margin), pulls back
    k greedy steps from its witness in P-bit fixed point, then checks exactly
    that the word's jet is within the proved bound of the target.
    """
    k, precision, bound = realization_plan(sys, tol, max_steps)
    membership = certify_membership(sys, target)
    if not membership.certified or membership.margin <= 0:
        raise NotCoveredError("target jet is not certified interior to the covered set")
    word = fixed_point_pullback(sys, membership.witness, precision, k)
    den = sys.lam.denominator ** k  # one gcd of the word's size, for the largest gap alone
    achieved = max(Fraction(abs(t.numerator * den - v * t.denominator), t.denominator) for t, v
                   in zip(target.flat(), _word_sums(sys.lam, word, sys.order))) / den
    if achieved > bound:
        raise ConstructionError(
            f"forward verification failed: residual {rat_str(achieved)} > bound {rat_str(bound)}"
        )
    return RealizationResult(word, achieved, bound, membership)


def auto_lambda(threshold: Fraction) -> Fraction:
    """Deterministic contraction choice above a threshold: a quarter of the
    way to 1, rounded up to the 2^-10 grid (keeps denominators small)."""
    raw = threshold + (1 - threshold) / 4
    grid = 2 ** 10
    num = -((-raw.numerator * grid) // raw.denominator)  # ceil
    lam = Fraction(num, grid)
    if lam >= 1:
        lam = (threshold + 1) / 2
    return lam

"""Shared oracle helpers for jet-covering tests: the system's own projection
and box radii as Fractions, exact rank, the inverse branch, the shift maps,
the semi-conjugacy judge and residuals of a stated projection, the generic
semi-conjugacy products and the exact greedy pullback."""

from fractions import Fraction
from math import lcm

from jetcover import linalg
from jetcover.errors import DegenerateInputError
from jetcover.jetcovering import (
    _judge,
    _residual_ints,
    branch_matrix,
    power_norm_sum,
    projection_rows,
)
from jetcover.rational import cleared


def projection_of(sys):
    """The system's own projection: its integer rows over D, as Fractions."""
    _, _, rows, den = sys.integer_rows
    return tuple(tuple(Fraction(e, den) for e in row) for row in rows)


def radii_of(sys):
    """The system's own box radii, outermost first: its integer radii over
    their one denominator, as Fractions."""
    radii, scale = sys.integer_radii
    return tuple(Fraction(r, scale) for r in radii)


def rank(a):
    """Exact rank by Gaussian elimination over Fraction."""
    if not a:
        return 0
    rows = [list(r) for r in a]
    nrows, ncols = len(rows), len(rows[0])
    rk = 0
    for col in range(ncols):
        piv = next((r for r in range(rk, nrows) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        for r in range(rk + 1, nrows):
            if rows[r][col] != 0:
                f = Fraction(rows[r][col]) / rows[rk][col]
                rows[r] = [rows[r][j] - f * rows[rk][j] for j in range(ncols)]
        rk += 1
        if rk == nrows:
            break
    return rk


def inverse_branch(sys, delta, x):
    """Exact inverse of X -> J X + delta T."""
    inv = linalg.inverse(branch_matrix(sys.jet_dim, sys.lam))
    shifted = linalg.vec_sub(x, (Fraction(0),) * (sys.jet_dim - 1) + (Fraction(delta),))
    return linalg.mat_vec(inv, shifted)


def shift_map(sys, delta):
    """The affine shift on pullback coordinates intertwined with branch delta.

    (v_0, ..., v_{n-1}) -> (w_0, ..., w_{n-1}) with w_k = v_{k-1} for
    k >= 1 and w_0 = (delta - sum_{j=1..n} b_j v_{j-1}) / b_0.
    """
    if delta not in (1, -1):
        raise DegenerateInputError("branch label must be +1 or -1")
    b = sys.p_coeffs
    n = sys.n
    rows = [[Fraction(0)] * n for _ in range(n)]
    for j in range(1, n + 1):
        rows[0][j - 1] = -b[j] / b[0]
    for k in range(1, n):
        rows[k][k - 1] = Fraction(1)
    offset = [Fraction(0)] * n
    offset[0] = Fraction(delta) / b[0]
    return tuple(tuple(r) for r in rows), tuple(offset)


def projection_matrix(p_coeffs, lam, jet_dim):
    """The Fraction projection of `projection_rows`, for a P that
    `build_system` may refuse (one without the root, say)."""
    _, _, rows, den = projection_rows(p_coeffs, lam, jet_dim)
    return tuple(tuple(Fraction(e, den) for e in row) for row in rows)


def stated_rows(sys, pi):
    """(beta, B, rows, D) as `projection_rows` gives them, but for a stated
    Fraction projection pi, cleared over the lcm of its denominators."""
    entries, den = cleared([e for row in pi for e in row])
    width = len(pi[0])
    rows = [entries[i:i + width] for i in range(0, len(entries), width)]
    return (*cleared(sys.p_coeffs), rows, den)


def judge_projection(sys, pi):
    """`verify_semiconjugacy`'s integer judge on the system's p_coeffs and a
    stated projection pi: None, or a ConstructionError naming the first
    nonzero residual."""
    _judge(_residual_ints(sys.jet_dim, sys.lam, *stated_rows(sys, pi)))


def semiconjugacy_residuals(sys, pi):
    """The closed-form residuals that the judge reads, unjudged and as
    Fractions per branch, for the system's p_coeffs and a stated projection
    pi, so that a tampered one shows them; branch -1 shares the matrix and
    negates the offset."""
    mat, offset, scale = _residual_ints(sys.jet_dim, sys.lam, *stated_rows(sys, pi))
    mat = tuple(tuple(Fraction(e, scale) for e in row) for row in mat)
    return {d: (mat, tuple(Fraction(d * e, scale) for e in offset)) for d in (1, -1)}


def generic_residuals(sys, pi):
    """Oracle of `semiconjugacy_residuals`: J pi - pi M and delta T - pi
    t_delta as generic products, for both branches, with J = `branch_matrix`
    and T = e_N of the system's jet dimension and contraction."""
    m_shift, _ = shift_map(sys, 1)
    mat_res = linalg.mat_sub(
        linalg.mat_mul(branch_matrix(sys.jet_dim, sys.lam), pi),
        linalg.mat_mul(pi, m_shift),
    )
    out = {}
    for delta in (1, -1):
        _, t_shift = shift_map(sys, delta)
        lhs_t = (Fraction(0),) * (sys.jet_dim - 1) + (Fraction(delta),)
        rhs_t = linalg.mat_vec(pi, t_shift)
        out[delta] = (mat_res, linalg.vec_sub(lhs_t, rhs_t))
    return out


def power_norms(jet_dim, lam, k):
    """norm(J^t) for t = 0..k, from generic matrix powers of J = lam I + S."""
    jay = tuple(tuple(lam * (i == j) + (jet_dim - 1 - i) * (j == i + 1) for j in range(jet_dim))
                for i in range(jet_dim))
    power, norms = linalg.identity(jet_dim), []
    for _ in range(k + 1):
        norms.append(linalg.inf_norm_mat(power))
        power = linalg.mat_mul(power, jay)
    return norms


def rounding_term(sys, precision):
    """2^-P (max_i |pi_{i,n-1}| S + norm(pi)), the share of a P-bit
    pullback's rounding in a realization's bound, by generic norms."""
    pi = projection_of(sys)
    last = max(abs(row[-1]) for row in pi)
    term = last * power_norm_sum(sys.lam, sys.jet_dim) + linalg.inf_norm_mat(pi)
    return term / 2 ** precision


def fraction_pullback_step(sys, u):
    """Reference greedy step in Fraction arithmetic: branch +1 first, and
    the appended coordinate delta - sum b_j u_j must lie in (-base, base)."""
    s = sum(b * x for b, x in zip(sys.p_coeffs, u))
    for delta in (1, -1):
        appended = delta - s
        if abs(appended) < sys.box_base:
            return delta, tuple(u[1:]) + (appended,)
    raise AssertionError(f"no feasible branch at functional value {s}")


class IntegerPullback:
    """Oracle of the fixed-point pullback: the exact greedy pullback from u
    in integers, with no gcd per step.

    A step appends u_new = delta - sum b_j u_j for delta = +1, else -1, the
    first keeping |u_new| < base, and drops u's leading entry.  Entries are
    V_i / (d g^i), V_i integers, d = lcm den(u), g = p * lcm_j den(b_j
    lam^(n-j)), lam = p/q.
    """

    def __init__(self, sys, u):
        n, lam, b = sys.n, sys.lam, sys.p_coeffs
        unscaled = (b[j] * lam ** (n - j) for j in range(n))
        g = lam.numerator * lcm(*(c.denominator for c in unscaled))
        d = lcm(*(x.denominator for x in u))
        self.g, self.base = g, sys.box_base
        self.terms = [(j, int(b[j] * g ** (n - j))) for j in range(n) if b[j]]
        self.window = [int(x * d * g ** i) for i, x in enumerate(u)]
        self.scale = d * g ** n  # denominator of the next appended entry

    def step(self):
        s = sum(c * self.window[j] for j, c in self.terms)
        for delta in (1, -1):
            appended = delta * self.scale - s
            if abs(appended) * self.base.denominator < self.base.numerator * self.scale:
                self.window = self.window[1:] + [appended]
                self.scale *= self.g
                return delta
        raise AssertionError(f"no feasible branch at functional value {Fraction(s, self.scale)}")

    def point(self):
        n, g = len(self.window), self.g
        return tuple(Fraction(v * g ** (n - i), self.scale)
                     for i, v in enumerate(self.window))


def fixed_point_step(sys, u, precision):
    """Reference step of the fixed-point pullback in Fraction arithmetic:
    branch +1 first; the appended coordinate delta - sum b_j u_j is rounded
    toward zero to the 2^-precision grid, and the rounded value must lie in
    (-base, base)."""
    s = sum(b * x for b, x in zip(sys.p_coeffs, u))
    for delta in (1, -1):
        exact = (delta - s) * 2 ** precision
        rounded = Fraction(int(exact), 2 ** precision)  # int() truncates toward zero
        if abs(rounded) < sys.box_base:
            return delta, tuple(u[1:]) + (rounded,)
    raise AssertionError(f"no feasible branch at functional value {s}")


def scan_box_base(n, l1_tail):
    """Reference box base by a grid scan: on each rung 2^-10, 2^-14, ...,
    2^-30 walk base = 1 + j 2^-s up from j = 1 while the slack
    (base + 1) - base^n * l1_tail grows, and return the best grid base of
    the first rung whose best slack is positive; None when no rung has one."""
    for shift in (10, 14, 18, 22, 26, 30):
        step = Fraction(1, 2 ** shift)
        best, best_slack = None, None
        for j in range(1, 2 ** 12):
            base = 1 + j * step
            slack = base + 1 - base ** n * l1_tail
            if best_slack is not None and slack <= best_slack:
                break
            best, best_slack = base, slack
        if best_slack > 0:
            return best
    return None

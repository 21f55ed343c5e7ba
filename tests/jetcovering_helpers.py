"""Shared oracle helpers for jet-covering tests."""

from fractions import Fraction

from jetcover import linalg


def inverse_branch(sys, delta, x):
    """Exact inverse of X -> J X + delta T."""
    inv = linalg.inverse(sys.branch_matrix)
    shifted = linalg.vec_sub(x, tuple(delta * e for e in sys.branch_offset))
    return linalg.mat_vec(inv, shifted)


def fraction_pullback_step(sys, u):
    """Reference greedy step in Fraction arithmetic: branch +1 first, and
    the appended coordinate delta - sum b_j u_j must lie in (-base, base)."""
    s = sum(b * x for b, x in zip(sys.p_coeffs, u))
    for delta in (1, -1):
        appended = delta - s
        if abs(appended) < sys.box_base:
            return delta, tuple(u[1:]) + (appended,)
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

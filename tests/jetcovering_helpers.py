"""Shared oracle helpers for jet-covering tests."""

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

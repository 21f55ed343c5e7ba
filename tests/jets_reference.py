"""Test-only float oracle for continuation jets: central differences.

Every certified path in the package is exact; this module is the one
place that produces binary64 numbers.  It evaluates the Taylor-polynomial
family member at sample parameters exactly and differences the samples,
sharing no code with `jets.continuation_jet` beyond the families.
"""

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from jetcover.errors import DegenerateInputError, JetcoverError
from jetcover.jets import Jet, ParamAffineFamily1D
from jetcover.rational import rat


class UnsupportedOrderError(JetcoverError, ValueError):
    """Requested derivative order outside the supported stencil range."""


def family_at(fam: ParamAffineFamily1D, a: Fraction) -> Tuple[Fraction, Fraction]:
    """Exact (slope, offset) of the polynomial representative at a.

    Raw derivatives define the degree-r Taylor polynomial
    sum_i coeffs[i] a^i / i!, which is the family member used by the
    float oracle and by exact cross-checks.
    """
    def horner(jet: Jet) -> Fraction:
        total = Fraction(0)
        fact = 1
        power = Fraction(1)
        for i, row in enumerate(jet.coeffs):
            if i > 0:
                fact *= i
                power *= a
            total += row[0] * power / fact
        return total

    return horner(fam.slope), horner(fam.offset)


# Central stencils for raw derivatives 0..4, each with O(h^2) truncation.
# Sample offsets are exact rationals and the differencing runs exactly; the
# result is cast to binary64 only at the end, so the only error term left
# is the h^2 truncation.  (Pure-float differencing loses third derivatives
# entirely at small h: the 2h^3 denominator amplifies rounding noise of the
# samples to ~1e-2 at h = 1e-4, orders of magnitude beyond truncation.)
_STENCILS = {
    0: ((0, 1),),
    1: ((1, Fraction(1, 2)), (-1, Fraction(-1, 2))),
    2: ((1, 1), (0, -2), (-1, 1)),
    3: (
        (2, Fraction(1, 2)),
        (1, -1),
        (-1, 1),
        (-2, Fraction(-1, 2)),
    ),
    4: ((2, 1), (1, -4), (0, 6), (-1, -4), (-2, 1)),
}


def _evaluate_family_word(
    families: Dict[str, ParamAffineFamily1D], word: Sequence[str], a: Fraction
) -> Fraction:
    x = Fraction(0)
    coeffs = {s: family_at(families[s], a) for s in set(word)}
    for symbol in reversed(tuple(word)):
        slope, offset = coeffs[symbol]
        x = slope * x + offset
    return x


def finite_difference_jet(
    families: Dict[str, ParamAffineFamily1D],
    word: Sequence[str],
    order: int,
    h,
) -> List[float]:
    """Approximate continuation jet by central differences; binary64 output.

    Never a certified path; results are flagged approximate on the wire.
    Orders above 4 are rejected (stencil conditioning).  Floats given for
    h are read via their decimal string, so h=1e-4 means exactly 1/10000.
    """
    if order > 4:
        raise UnsupportedOrderError("finite differences support order <= 4")
    if order < 0:
        raise DegenerateInputError("order must be >= 0")
    # decimal parsing is fine here: this path is explicitly approximate
    step = Fraction(str(h)) if isinstance(h, float) else rat(h)
    if step <= 0:
        raise DegenerateInputError("step must be positive")
    needed = sorted({m for k in range(order + 1) for m, _ in _STENCILS[k]})
    samples = {
        m: _evaluate_family_word(families, word, m * step) for m in needed
    }
    out = []
    for k in range(order + 1):
        acc = Fraction(0)
        for m, w in _STENCILS[k]:
            acc += Fraction(w) * samples[m]
        out.append(float(acc / step ** k))
    return out


def approximate_jet_payload(values: Sequence[float]) -> dict:
    return {"approximate": True, "coeffs": [float(v) for v in values]}

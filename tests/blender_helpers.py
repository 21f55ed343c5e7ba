"""Branch sample tables for the nearly-affine tests.

The package only reads these tables (`serialize.branch_table_from_csv`);
the tests make them here: the exact affine model on a grid, with an
optional known perturbation, and its CSV text.
"""

from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from jetcover.blender import BranchSample, branch_region
from jetcover.rational import rat_str
from jetcover.serialize import BRANCH_TABLE_COLUMNS


def model_branch_table(
    lam: Fraction,
    sign: int,
    nx: int,
    ny: int,
    gx_perturb: Optional[Callable[[Fraction, Fraction], Tuple[Fraction, Fraction, Fraction]]] = None,
) -> List[BranchSample]:
    """Tabulate the exact affine model on an (nx+1) x (ny+1) inclusive grid.

    gx_perturb(x, y) may inject (value, d/dx, d/dy) into the first output
    component, for calibrating the checker against a known perturbation.
    """
    region = branch_region(lam, sign)
    xs = [
        region[0].lo + (region[0].width * i) / nx for i in range(nx + 1)
    ]
    ys = [
        region[1].lo + (region[1].width * j) / ny for j in range(ny + 1)
    ]
    rows = []
    for x in xs:
        for y in ys:
            px, dpx, dpy = (
                gx_perturb(x, y) if gx_perturb else (Fraction(0),) * 3
            )
            rows.append(
                BranchSample(
                    x=x,
                    y=y,
                    gx=px,
                    gy=(y - sign) / lam,
                    dxx=dpx,
                    dxy=dpy,
                    dyx=Fraction(0),
                    dyy=1 / lam,
                )
            )
    return rows


def branch_table_to_csv(samples: Sequence[BranchSample]) -> str:
    """The CSV text `serialize.branch_table_from_csv` reads."""
    lines = [",".join(BRANCH_TABLE_COLUMNS)]
    for s in samples:
        lines.append(
            ",".join(rat_str(getattr(s, col)) for col in BRANCH_TABLE_COLUMNS)
        )
    return "\n".join(lines) + "\n"

"""Exception types shared across the package.

Verdict-like outcomes (covering failure, infeasible LP, lambda-too-small)
are returned as values, not raised; these exceptions mark genuine misuse
or internal inconsistencies.  The one raised verdict is NotCoveredError:
`realize_jet` cannot return a realization for a target outside the
certified covered set.
"""


class JetcoverError(Exception):
    """Base class for all package errors."""


class UnknownSymbolError(JetcoverError, KeyError):
    """A word contains a symbol outside the system alphabet."""


class ShapeError(JetcoverError, ValueError):
    """Dimension or order mismatch between operands."""


class DegenerateInputError(JetcoverError, ValueError):
    """Input violates a non-degeneracy precondition."""


class NotCoveredError(DegenerateInputError):
    """A target jet is not certified interior to the covered set."""


class SingularMatrixError(JetcoverError, ZeroDivisionError):
    """Exact linear solve hit a singular matrix."""


class ResourceLimitError(JetcoverError, RuntimeError):
    """An enumeration or iteration cap was exceeded."""


class SearchExhaustedError(JetcoverError, RuntimeError):
    """A bounded search ended without reaching its goal."""


class ConstructionError(JetcoverError, RuntimeError):
    """A certified construction failed one of its own exact invariants.

    Raised by the bug traps: these conditions are provably impossible for
    correctly constructed inputs, so seeing one means corrupted data or a
    defect, never a legitimate negative verdict.
    """


class CertificateFormatError(JetcoverError, ValueError):
    """A serialized certificate, system record or rational string is malformed."""

"""Exception taxonomy.

Everything raised on purpose derives from SpindleError so callers can
catch the package's own failures without swallowing programming errors.
The CLI maps ParameterError and the input-shaped subclasses to exit
code 2 and verification mismatches to exit code 1.
"""


class SpindleError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(SpindleError, ValueError):
    """A family tag or parameter tuple violates its documented constraint."""


class DimensionMismatchError(SpindleError, ValueError):
    """Operands have incompatible shapes."""


class NotAntiHermitianError(SpindleError, ValueError):
    """A Lie-algebra argument is not anti-Hermitian to tolerance."""


class NotUnitaryError(SpindleError, ValueError):
    """A group argument is not unitary to tolerance."""


class NotInTangentSpaceError(SpindleError, ValueError):
    """An element does not lie in the -1 eigenspace of the involution."""


class FormIdentityError(SpindleError, ValueError):
    """A matrix does not satisfy the algebraic identity its closed-form
    exponential relies on (wrong form tag or corrupted element)."""


class RationalizationError(SpindleError, ValueError):
    """A floating value could not be identified with a small-denominator
    rational within tolerance."""


class IrrationalRatioError(RationalizationError):
    """Frequency ratios admit no common integer rescaling: the element
    cannot be normalized to a canonical one."""


class DegenerateElementError(SpindleError, ValueError):
    """ad(xi) vanishes identically; no canonical normalization exists."""


class NotCanonicalError(SpindleError, ValueError):
    """An operation that requires a canonical element received one whose
    frequency spectrum is not canonical."""


class SpectrumBucketingError(SpindleError, RuntimeError):
    """Eigenvalue clusters are ambiguous at the requested tolerance, or the
    k/p split of the spectrum does not match the involution."""


class MembershipSearchError(SpindleError, RuntimeError):
    """The numeric return scan found no return time among the divisors of
    its bound (an isotropy predicate inconsistent with the element)."""


class CatalogInconsistencyError(SpindleError, RuntimeError):
    """Two facts the catalog states about one family disagree, such as
    the k-dimension formula and the trace of the involution."""


class MethodDisagreementError(SpindleError, RuntimeError):
    """Exact and numeric spindle computations disagree."""

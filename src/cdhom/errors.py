"""Exception and warning types shared across the package."""


class DomainError(ValueError):
    """A point lies outside the open unit disc (or another stated domain)."""


class ZeroBaseError(ValueError):
    """Complex power of a zero base was requested."""


class PoleError(ZeroDivisionError):
    """A fractional-linear map was evaluated at (or too close to) its pole."""


class ConfigError(ValueError):
    """Invalid run configuration (CLI exit code 3)."""


class NormalizationError(ArithmeticError):
    """A basis normalization constant has a non-positive radicand.

    This is the diagnostic surfaced in the degenerate regime where twice the
    weight parameter does not exceed the block size (2*lam <= m), so the
    orthonormalizing constants lose positivity.
    """


class SingularResolventError(ArithmeticError):
    """The resolvent factor c*T + d*I of a fractional-linear map is singular."""


class SingularKernelColumnError(NormalizationError):
    """K(z, 0) is numerically singular, so the normalizing map is undefined."""


class BranchWarning(UserWarning):
    """A principal-branch power was evaluated with Re(c*z + d) <= 0.

    Results remain well defined but are no longer guaranteed consistent with
    the cocycle identities; emitting this warning makes silent branch
    crossings impossible.
    """


class TruncationLossWarning(UserWarning):
    """A truncated expansion leaked a non-negligible amount of mass."""

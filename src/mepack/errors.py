"""Exception types shared across the package, and the route-agreement check."""


class MepackError(Exception):
    """Base class for all package errors."""


class DomainError(MepackError, ValueError):
    """A mathematical precondition is violated (bad variance, nu < 1, ...)."""


class PureStateLimitError(DomainError):
    """Raised where nu = 1 makes the requested object singular.

    The packet itself stays regular at nu = 1 (it is the pure Gaussian
    state); only the Lagrange multipliers diverge there.
    """


class CutoffError(MepackError, RuntimeError):
    """The configured Fock cutoff cannot resolve the requested quantity."""


class HorizonError(MepackError, RuntimeError):
    """Numeric evolution left the trusted horizon (truncation leakage)."""


class ValidationError(MepackError, ValueError):
    """A scenario/config file failed validation. Carries field diagnostics."""

    def __init__(self, message, field=None):
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)


def routes_agree(what, answer, check):
    """The runtime check that two independent routes to one result agree:
    `answer` if it equals `check`, else AssertionError "what: answer vs
    check".  Each of the engine's route checks calls it."""
    if answer != check:
        raise AssertionError(f"{what}: {answer} vs {check}")
    return answer

"""Exception types raised across the library.

Everything inherits from ConsensusLabError so callers can catch the whole
family at once.  Each class declares exit_code, the code `consensus-lab run`
ends with when the error stops a run or an analysis once the scenario file
has loaded (an error in loading it is 4): 2 for a failed verdict, 3 for a
hypothesis that does not hold or a theory that does not cover the run, 4
for an input error, and 5, the base class's, for the rest.
"""

from __future__ import annotations


class ConsensusLabError(Exception):
    """Base class for all library errors."""
    exit_code = 5


# --- coupling matrices and schedules ---------------------------------------

class NegativeOffDiagonal(ConsensusLabError):
    """An off-diagonal coupling entry is negative."""

    def __init__(self, k: int, l: int, value: float):
        self.k, self.l, self.value = k, l, value
        super().__init__(f"entry ({k},{l}) = {value!r} is negative")


class NonFiniteEntry(ConsensusLabError):
    """A coupling entry is NaN or infinite."""

    def __init__(self, k: int, l: int, value: float):
        self.k, self.l, self.value = k, l, value
        super().__init__(f"entry ({k},{l}) = {value!r} is not finite")


class RowSumViolation(ConsensusLabError):
    """A row sum exceeds the zero-row-sum tolerance."""

    def __init__(self, k: int, residual: float):
        self.k, self.residual = k, residual
        super().__init__(f"row {k} sums to {residual!r}, expected 0")


class NegativeWeight(ConsensusLabError):
    """A coupling weight that must be non-negative is negative."""


class ScheduleError(ConsensusLabError):
    """Schedule segments are malformed (gaps, overlaps, bound violation)."""


class OutOfHorizon(ConsensusLabError):
    """A time or window falls outside the schedule horizon."""
    exit_code = 4


# --- digraphs ---------------------------------------------------------------

class NegativeThreshold(ConsensusLabError):
    """The arc threshold is invalid for the requested operation."""


class NodeOutOfRange(ConsensusLabError):
    """A node label is outside 1..n."""


# --- integration ------------------------------------------------------------

class StepTooLargeWarning(UserWarning):
    """Advisory: the requested step exceeds the stability budget."""


class HistoryGap(ConsensusLabError):
    """A Hermite read falls outside the stored grid it interpolates."""


class NonFiniteState(ConsensusLabError):
    """A simulated state reached inf or NaN; t is the node where the
    integrator saw it."""

    def __init__(self, t: float, message: str):
        self.t = t
        super().__init__(f"state not finite at t = {t!r} ({message})")


class WindowNotCovered(ConsensusLabError):
    """The trajectory is too short to evaluate a sliding window."""


# --- monotone functionals ---------------------------------------------------

class EmptyVector(ConsensusLabError):
    """A state vector with no components was supplied."""


class UnknownFunction(ConsensusLabError):
    """A convex-function id is not in the registry."""


class UnknownFunctional(ConsensusLabError):
    """A trajectory-functional name is not in the audit registry."""


class BalanceViolated(ConsensusLabError):
    """The weight vector is not a left null vector of the coupling."""
    exit_code = 3

    def __init__(self, t: float, residual: float):
        self.t, self.residual = t, residual
        super().__init__(f"p'A(t) residual {residual!r} at t = {t!r}")


class NotSymmetric(ConsensusLabError):
    """The coupling matrix must be symmetric for this operation."""
    exit_code = 3


# --- certification ----------------------------------------------------------

class InvalidPartition(ConsensusLabError):
    """G, H do not partition the node set."""


class OrderingViolated(ConsensusLabError):
    """Bracket values violate mu_min <= g_min <= g_max <= mu_max."""


class NoTrappedComponent(ConsensusLabError):
    """A certification stage found no component strictly trapped."""
    exit_code = 2

    def __init__(self, stage: int, message: str = ""):
        self.stage = stage
        text = f"stage {stage}: no trapped component"
        if message:
            text += f" ({message})"
        super().__init__(text)


class HypothesisUnverified(ConsensusLabError):
    """The sampled connectivity hypothesis could not be confirmed, or the
    theory of an analysis does not cover the run."""
    exit_code = 3


class DegenerateSeries(ConsensusLabError):
    """A decay series starts at zero or has too few usable samples."""


# --- spectra ----------------------------------------------------------------

class NoConvergence(ConsensusLabError):
    """An eigenvalue computation did not converge."""


class AmbiguousSpectrum(ConsensusLabError):
    """An eigenvalue falls in the dead zone between zero and the gap."""


# --- scenarios --------------------------------------------------------------

class ParseError(ConsensusLabError):
    """The scenario file is not syntactically valid."""
    exit_code = 4

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


class ValidationError(ConsensusLabError):
    """The scenario tree has a missing, unknown, or ill-typed field."""
    exit_code = 4

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class InvalidSpec(ConsensusLabError):
    """A topology generator spec is not satisfiable, or a run's step or
    delay is so small that its nodes cannot fit in physical memory."""
    exit_code = 4

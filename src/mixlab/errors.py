"""Exception types shared across mixlab modules.

Each names a model, a request or a run that a module refuses.
"""


class MixlabError(Exception):
    """Base class for all mixlab errors."""


class InexactBranch(MixlabError):
    """Branch data that is not rational: the exact path has no integer triple for it."""


class BoundaryPoint(MixlabError):
    """Evaluation requested exactly on a partition boundary."""


class InadmissibleItinerary(MixlabError):
    """Itinerary contains a transition forbidden by the transition matrix."""


class NoReturn(MixlabError):
    """The chosen base cell is not recurrent under the transition matrix."""


class InsufficientDepth(MixlabError):
    """Too few tail points enumerated for a statistics fit."""


class InvalidRoof(MixlabError):
    """Roof data a builder rejects: a non-positive roof, or a malformed coefficient table."""


class DepthOverflow(MixlabError):
    """An enumeration would exceed its budget: the inverse-branch tree of a
    disintegration NODE_BUDGET, or a first-return map its excursion paths."""


class BinMisalignment(MixlabError):
    """Ulam bins do not refine the Markov partition."""


class NotAffineMarkov(MixlabError):
    """A method needs affine branches whose images are unions of partition cells."""


class NoConvergence(MixlabError):
    """Iterative solver hit its iteration cap before reaching tolerance."""


class CrossingBudgetExceeded(MixlabError):
    """A flow step or a batch's laps crossed the roof more often than its lower bound allows."""


class WindowTooShort(MixlabError):
    """Not enough correlation points above the noise floor to fit a rate."""


class BracketUndefined(MixlabError):
    """Points do not lie in a common product chart; no bracket exists."""


class GeometryViolation(MixlabError):
    """A solenoid parameter set violates invariance or injectivity."""


class ConfigError(MixlabError):
    """Malformed experiment configuration."""

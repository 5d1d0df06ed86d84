"""Exception and warning types shared across the package."""


class InferwattError(Exception):
    """Base class for all data and modeling errors raised by this package."""


class ConfigError(InferwattError):
    """Malformed key-value configuration file."""


class DimensionMismatch(InferwattError):
    """Design matrix and observation vector shapes disagree."""


class RankDeficient(InferwattError):
    """Least-squares system is numerically rank deficient."""


class ZeroColumn(InferwattError):
    """Design matrix contains an all-zero column."""


class InsufficientSamples(InferwattError):
    """Too few usable samples for the requested fit."""


class UnknownFormat(InferwattError):
    """Trace format name is not recognized, or a trace is not in that format."""


class EmptyInput(InferwattError):
    """Input stream or value sequence contains no data."""


class EmptySelection(InferwattError):
    """Aggregation selector matched no records."""


class BadEdges(InferwattError):
    """Histogram bin edges are not strictly increasing."""


class ModelOutOfRangeWarning(UserWarning):
    """A fitted polynomial was evaluated outside its validity range (result <= 0)."""

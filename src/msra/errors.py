"""Shared exception types."""


class ConfigurationError(Exception):
    """A component was configured inconsistently (unknown service, bad parameter set)."""


class InputError(ValueError):
    """A runtime input violated an operation precondition (out-of-order arrivals, bad range)."""


class SchemaViolation(ValueError):
    """A metric sample did not conform to the store schema (NaN, negative response time)."""


class BoundViolation(ValueError):
    """A scaling target fell outside the configured requirements; nothing was applied."""

"""Exception hierarchy; the CLI maps these onto distinct exit codes."""


class RcseqError(Exception):
    """Base class for all pipeline errors."""


class ConfigError(RcseqError):
    """Invalid configuration or an unusable parameter combination."""


class FieldError(ConfigError):
    """A ConfigError whose message starts with a field of the dataclass that
    raised it; a config or scenario file reader puts the section's dotted
    key in front."""


class DataError(RcseqError):
    """Malformed, inconsistent, or insufficient input data."""


class AnalysisError(RcseqError):
    """An analysis stage could not produce a valid result."""

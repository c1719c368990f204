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


def unreadable(cls, what: str, path, exc: OSError | UnicodeDecodeError) -> RcseqError:
    """The `cls` error for the `what` file at `path`, which exists but could
    not be read as UTF-8 text (a directory, no permission, other bytes)."""
    why = "not UTF-8 text" if isinstance(exc, UnicodeDecodeError) else exc.strerror or str(exc)
    return cls(f"cannot read {what} {path}: {why}")

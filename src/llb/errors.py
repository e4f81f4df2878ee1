"""Exception types shared across the library."""


class LlbError(Exception):
    """Base class for all library errors."""


class ConfigurationError(LlbError):
    """Invalid architecture, stream, or experiment configuration."""


def reject_unknown(what: str, given, valid, note: str = "") -> None:
    """Raise ConfigurationError unless ``given`` is known: a config object (a
    dict) whose every key is in ``valid``, or one name in ``valid`` (a
    learner or stream kind, of any JSON type).  The message names each
    unknown entry and every valid one, ``note`` qualifying the valid ones."""
    valid = sorted(valid)
    if isinstance(given, dict):
        unknown = [key for key in given if key not in valid]
        shown = f"key(s) {unknown}"
    else:
        unknown = [] if isinstance(given, str) and given in valid else [given]
        shown = repr(given)
    if unknown:
        raise ConfigurationError(f"unknown {what} {shown}; valid{note}: {valid}")


class MissingHeadError(ConfigurationError):
    """A batch routed to a task id with no registered output head."""


class NumericError(LlbError):
    """Non-finite value encountered during a numeric computation."""


class IdxFormatError(LlbError):
    """Malformed IDX file (bad magic, truncation, or count mismatch)."""


class MemoryStateError(LlbError):
    """Episodic memory used out of its task-boundary lifecycle."""


class LogConflictError(LlbError):
    """Two different accuracy values recorded under the same key."""


class IncompleteLogError(LlbError):
    """A metric was requested from an accuracy log missing required entries."""


class ProtocolError(LlbError):
    """A protocol audit failed, or hyper-parameter selection had no candidate left."""

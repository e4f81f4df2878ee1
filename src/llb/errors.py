"""Exception types shared across the library."""


class LlbError(Exception):
    """Base class for all library errors."""


class ConfigurationError(LlbError):
    """Invalid architecture, stream, or experiment configuration."""


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

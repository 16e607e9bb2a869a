"""Exception hierarchy and process exit codes."""

EXIT_OK = 0
EXIT_SCENARIO = 2
EXIT_PROTOCOL = 3
EXIT_INTERNAL = 4


class CtmError(Exception):
    """Base class for all simulator errors.  A worker's error is rebuilt in
    the parent from its message, so a subclass takes only the message."""

    exit_code = 1


class ScenarioError(CtmError):
    """Invalid scenario file, partition file, or configuration."""

    exit_code = EXIT_SCENARIO


class ProtocolError(CtmError):
    """Worker communication failure: decoder mismatch, bad frame, desync."""

    exit_code = EXIT_PROTOCOL


class InternalAssertion(CtmError):
    """A simulator invariant was violated; indicates a bug, not bad input."""

    exit_code = EXIT_INTERNAL

"""Exception types shared across the package: one per CLI exit status."""


class SnZerosError(Exception):
    """Base class for all errors raised by this package; the CLI exits 1."""


class ResourceLimit(SnZerosError):
    """A configured size cap was exceeded; the CLI exits 2."""

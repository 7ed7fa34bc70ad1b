"""Exception types shared across the package, and the byte budget."""

MAX_BYTES = 2 ** 30  # bytes that one array sized by run settings may take


class GeometryError(ValueError):
    """Survey or ray geometry is inconsistent with the mesh."""


class CapacityError(RuntimeError):
    """A dense computation would exceed the configured memory budget."""


class SolverError(RuntimeError):
    """A linear solve or an optimization loop failed numerically."""


class ManifestError(ValueError):
    """A run manifest, or an input file the CLI reads, is invalid.

    ``field`` holds the dotted path of the offending manifest entry, or
    the CLI option or path naming the file.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")

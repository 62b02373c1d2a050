"""Exception hierarchy shared across the pipeline.

Each class names, as ``exit_code``, the status the CLI exits with when it
is raised: 2 for usage and configuration, 3 for numerical failures, 4 for
file formats.  The CLI exits 4 on an OSError too.
"""


class BiozError(Exception):
    """Base class for all pipeline errors: exit 2."""
    exit_code = 2


class ConfigError(BiozError):
    """Invalid configuration, geometry parameters, or CLI usage: exit 2."""


class MeshError(BiozError):
    """Mesh construction produced a non-conforming or degenerate mesh:
    exit 3."""
    exit_code = 3


class SolverError(BiozError):
    """Forward-solver assembly or factorization failure: exit 3."""
    exit_code = 3


class NumericalError(BiozError):
    """Non-finite value during network evaluation or training: exit 3."""
    exit_code = 3


class FormatError(BiozError):
    """Corrupt or unrecognized on-disk file: exit 4."""
    exit_code = 4

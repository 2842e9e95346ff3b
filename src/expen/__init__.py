"""Exact smooth penalty models and solvers for optimization with orthogonality constraints.

The package turns minimization of a smooth f over column-orthonormal matrices
into unconstrained minimization of a penalty h that agrees with f on the
manifold, then solves it with standard first-order methods and verifies the
construction numerically.

Each module's ``__all__`` is the list of names it adds to the package.
"""

from .exceptions import *
from .linalg import *
from .model import *
from .geometry import *
from .problems import *
from .solvers import *
from .verify import *

__version__ = "0.1.0"

# The CLI names load on first use, so that `python -m expen.cli` finds no
# expen.cli in sys.modules when it starts the module as __main__.
_CLI_NAMES = ("BenchResult", "RunSpec", "TableRow", "emit_outputs", "main", "run_benchmark")


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Exception types shared across the package.

The library raises plain ``ValueError`` for every input it refuses; the
message names the quantity at fault.  ``ConfigError`` marks a refused
experiment config, table or command-line value, and the ``vanhove`` CLI
reports it as a config error.  The harness re-raises any other
``ValueError`` as a ``VanHoveError`` named after its stage.  Both exit 2.
"""


class VanHoveError(ValueError):
    """Base class for the harness's errors."""


class ConfigError(VanHoveError):
    """Experiment configuration failed to parse or validate."""

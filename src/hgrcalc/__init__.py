"""Exact-arithmetic calculus for quaternionic Grassmannian cohomology rings,
Grothendieck-Witt form algebra, Koszul dualities and inverse-limit towers.

Import each submodule by name (`from hgrcalc import forms`): the package
root loads none of them.
"""


class HgrcalcError(ValueError):
    """Base of the errors the library raises for input it cannot accept;
    the command line maps it to exit code 2."""


def _is_integer(x):
    """An int that is no bool: JSON's true and false are not counts or
    entries.  The tower specs and the CLI's --bundle both read it."""
    return isinstance(x, int) and not isinstance(x, bool)


__version__ = "0.1.0"

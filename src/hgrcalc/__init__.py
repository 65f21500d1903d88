"""Exact-arithmetic calculus for quaternionic Grassmannian cohomology rings,
Grothendieck-Witt form algebra, Koszul dualities and inverse-limit towers.

Import each submodule by name (`from hgrcalc import forms`): the package
root loads none of them.
"""


class HgrcalcError(ValueError):
    """Base of the errors the library raises for input it cannot accept;
    the command line maps it to exit code 2."""


__version__ = "0.1.0"

"""orbilens: exact spectral geometry of orbifold lens spaces.

Descriptors and isometry live in :mod:`orbilens.core`, exact spectra and
generating functions in :mod:`orbilens.spectrum`, heat-trace
asymptotics in :mod:`orbilens.heat`, range sweeps in
:mod:`orbilens.search`, and the CLI in :mod:`orbilens.cli`.

The package re-exports every name in the ``__all__`` of ``core``,
``heat``, ``search`` and ``spectrum``; its own ``__all__`` lists those
names and the submodules they load.  ``__version__`` is the release.
"""

from ._version import __version__
from .core import *
from .heat import *
from .search import *
from .spectrum import *

__all__ = [name for name in dir() if not name.startswith("_")]

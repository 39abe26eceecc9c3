"""Online learning in zero-sum matrix games.  Each name is imported from its module:
``core``, ``regularizers``, ``learners``, ``metrics``, ``nash`` (equilibria and the
certificate), ``engine`` or ``cli``; the package itself holds only ``__version__``."""

__version__ = "0.1.0"

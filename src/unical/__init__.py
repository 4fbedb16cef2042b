"""Exact units-of-measure calculus.

Units are finitely supported exponent maps over prefixed base symbols,
so products, inverses, and integer powers are free-abelian-group
operations. Conversion rules rewrite base units into replacement units
at exact rational ratios; well-founded rule sets reach a normal form in
a number of parallel passes bounded by the dependency depth, and two
units convert exactly when their normal forms share a root.

The bundled "si" registry covers the seven base units, the named
derived units, and the full decimal and binary prefix tables; "uk"
layers imperial definitions on top. See docs/format.md for the
registry file format.
"""

from . import abelian, convert, model, numeric, registry

__version__ = "0.1.0"

# Each module's __all__ is its one list of public names; the package
# exports their union. It is built before `from .convert import *`
# rebinds `convert` from the module to the function.
__all__ = ["__version__"]
__all__ += abelian.__all__
__all__ += convert.__all__
__all__ += model.__all__
__all__ += numeric.__all__
__all__ += registry.__all__

from .abelian import *
from .convert import *
from .model import *
from .numeric import *
from .registry import *

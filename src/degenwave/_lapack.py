"""The three LAPACK routines degenwave calls, from scipy's own extension.

`scipy.linalg.lapack` re-exports the f2py module `scipy.linalg._flapack`,
but importing it runs `scipy.linalg/__init__`, which costs about 0.3 s and
27 MB (it clones numpy's namespace for the array API).  This module loads
that compiled extension alone, under its full dotted name, so a later
`import scipy.linalg` finds it in `sys.modules` and reuses it: the routines
here are the very objects `scipy.linalg.lapack` exports.
"""

import os
import sys
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec, spec_from_file_location

_NAME = "scipy.linalg._flapack"


def _load_flapack():
    if _NAME in sys.modules:  # scipy.linalg is imported already
        return sys.modules[_NAME]
    # find_spec of a top-level name locates scipy without importing it
    scipy_spec = find_spec("scipy")
    roots = scipy_spec.submodule_search_locations if scipy_spec else None
    dirs = [os.path.join(d, "linalg") for d in roots or ()]
    found = PathFinder.find_spec("_flapack", dirs)
    if found is None:
        import scipy  # only to name its version
        raise ImportError(
            f"scipy's LAPACK extension _flapack is not in {dirs} "
            f"(scipy {getattr(scipy, '__version__', 'of unknown version')})",
            name=_NAME)
    spec = spec_from_file_location(_NAME, found.origin)
    module = module_from_spec(spec)
    sys.modules[_NAME] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dpttrf = _flapack.dpttrf
dpttrs = _flapack.dpttrs
dtbtrs = _flapack.dtbtrs

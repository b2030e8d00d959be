"""The paper's three evaluation applications (section 4).

Each application comes in three forms:

* a **serial reference** (plain numpy) used to verify numerics;
* a **PPM implementation** using the programming model under study;
* an **MPI implementation** written the way the paper's baselines were
  (explicit neighbour lists, packing/unpacking, collectives).

All three compute the same answer (verified by the test suite); the
PPM and MPI versions additionally report simulated execution time on
the configured machine, which is what the figures compare.

An application imports on first use (``repro.apps.cg`` or
``from repro.apps import cg``), so a process loads only the apps it
runs.  No app loads scipy: the tests use it as their reference.
"""

import importlib

__all__ = ["barneshut", "cg", "collocation", "graph", "multigrid", "sptrsv"]


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

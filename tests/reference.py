"""Reference semantics of the phase commit (docs/SEMANTICS.md R3/R4).

The runtime's commit engine (``repro.core.phase``) batches a phase's
buffered writes into a few vectorized numpy calls.  This oracle is the
rule it must reproduce bit for bit, written the slow obvious way: one
buffered operation at a time, in increasing (global VP rank, program
order), on a plain ``numpy`` array.  It shares no code with the engine
— in particular it never touches ``WriteEvent.replay`` — so a test that
compares the two checks the engine against the semantics, not against
itself.
"""

from __future__ import annotations

import numpy as np

#: The accumulate operators of R4, spelled out rather than imported so
#: the oracle stays independent of ``repro.core.shared``.
UFUNCS = {
    "add": np.add,
    "subtract": np.subtract,
    "minimum": np.minimum,
    "maximum": np.maximum,
    "multiply": np.multiply,
}


def commit_oracle(initial: np.ndarray, per_vp_ops) -> np.ndarray:
    """The array one phase commit leaves behind.

    ``per_vp_ops[r]`` lists the operations VP ``r`` (global rank order)
    buffered during the phase, in program order, each a
    ``(kind, rows, values, op)`` tuple: ``kind`` is ``"write"`` (R3:
    ``arr[rows] = values``, so a later op overwrites an earlier one and
    the highest-ranked writer wins) or ``"accumulate"`` (R4:
    ``ufunc.at``, so duplicate rows combine and every contribution
    lands on whatever the ops before it left).  ``initial`` is the
    phase-start committed state; it is not modified.
    """
    arr = np.array(initial, copy=True)
    for ops in per_vp_ops:
        for kind, rows, values, op in ops:
            if kind == "write":
                arr[rows] = values
            else:
                UFUNCS[op].at(arr, rows, values)
    return arr

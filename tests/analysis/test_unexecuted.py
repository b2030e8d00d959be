"""Code the verifier never executes cannot be certified.

``KernelInterp`` runs only a ``try``'s body; its handlers, ``else`` and
``finally`` clauses, ``match`` arms and ``except*`` handlers have no
abstract effect.  A conflicting write there once earned a certificate,
so ``sanitize="auto"`` skipped the dynamic check and committed the
rank-order winner silently.  Now such a kernel is refused, and ``auto``
raises PPM201 exactly as ``strict`` does.

Each kernel and its driver are kept as source and loaded from a file:
``inspect`` then finds the kernel's source, and the analyzer's own run
over ``tests/`` does not pick them up.
"""

from __future__ import annotations

import importlib.util
import sys
import textwrap

import pytest

from repro.analysis.certify import certificate_for
from repro.core import PhaseConflictError, run_ppm
from repro.machine import Cluster

MODULE = """\
from repro.core import ppm_function


@ppm_function
def kernel(ctx, A):
    yield ctx.global_phase
{tail}

def main(ppm):
    A = ppm.global_shared("a", 4)
    ppm.do(2, kernel, A)
    return A.committed
"""

#: Kernel tails where every VP writes ``A[0]`` in one phase, out of the
#: interpreter's reach, with the construct the refusal must name.
CASES = {
    "try_finally": ("try's finally-clause", """\
        try:
            pass
        finally:
            A[0] = float(ctx.global_rank)
        """),
    "try_else": ("try's else-clause", """\
        try:
            pass
        except ValueError:
            pass
        else:
            A[0] = float(ctx.global_rank)
        """),
    "except_handler": ("except handler", """\
        try:
            raise ValueError
        except ValueError:
            A[0] = float(ctx.global_rank)
        """),
    "match_arm": ("Match statement", """\
        match ctx.global_rank:
            case _:
                A[0] = float(ctx.global_rank)
        """),
    "except_star": ("except handler", """\
        try:
            raise ValueError
        except* ValueError:
            A[0] = float(ctx.global_rank)
        """),
}


def _load(tmp_path, case: str):
    tail = textwrap.indent(textwrap.dedent(CASES[case][1]), "    ")
    path = tmp_path / f"unexecuted_{case}.py"
    path.write_text(MODULE.format(tail=tail))
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("case", list(CASES))
def test_not_certified_and_auto_raises_like_strict(case, tmp_path, config2x2):
    if case == "except_star" and sys.version_info < (3, 11):
        pytest.skip("except* needs Python 3.11")
    module = _load(tmp_path, case)

    ppm, _ = run_ppm(module.main, Cluster(config2x2), sanitize="warn")
    [a] = list(ppm.runtime.shared_registry.values())
    cert = certificate_for(module.kernel, (a,), {})
    assert cert is not None and cert.certified == {}
    assert f"{CASES[case][0]} at line" in cert.summary.reason

    raised = {}
    for mode in ("strict", "auto"):
        with pytest.raises(PhaseConflictError) as err:
            run_ppm(module.main, Cluster(config2x2), sanitize=mode)
        raised[mode] = err.value.diagnostics
    assert [d.rule for d in raised["auto"]] == ["PPM201"]
    assert raised["auto"] == raised["strict"]

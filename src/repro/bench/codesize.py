"""Table 1: application code size, PPM vs MPI.

The paper counts the lines of each application's PPM and MPI source
(CG: 161 vs 733; matrix generation: 424 vs 744; Barnes-Hut: 499 vs
N/A) to argue that implicit communication/synchronisation removes most
of the hard code.  We apply the same measurement to this repository's
implementations: logical lines only — blank lines, comments and
docstrings excluded — counted with the tokenizer so the numbers aren't
gameable by formatting.

Shared code (problem generators, the traversal engine, serial
references) is excluded from both sides, exactly as the paper's
computation-kernel lines are common to both versions.
"""

from __future__ import annotations

import io
import os
import tokenize

import repro.apps as _apps
from repro.bench.harness import SweepResult

_APPS_DIR = os.path.dirname(_apps.__file__)

#: Application -> (PPM sources, MPI sources), relative to repro/apps.
TABLE1_FILES: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "Conjugate Gradient": (("cg/ppm_cg.py",), ("cg/mpi_cg.py",)),
    "Matrix Generation": (("collocation/ppm_gen.py",), ("collocation/mpi_gen.py",)),
    "Barnes Hut": (("barneshut/ppm_bh.py",), ("barneshut/mpi_bh.py",)),
}

#: Lines reported by the paper's Table 1 (MPI Barnes-Hut was N/A).
PAPER_TABLE1: dict[str, tuple[int, int | None]] = {
    "Conjugate Gradient": (161, 733),
    "Matrix Generation": (424, 744),
    "Barnes Hut": (499, None),
}


def count_loc(path: str) -> int:
    """Logical lines of code in a Python source file: lines carrying at
    least one real token (not comments, blank lines or docstrings)."""
    with open(path, "rb") as fh:
        source = fh.read()
    lines_with_code: set[int] = set()
    at_statement_start = True  # docstring detector state
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type in (
            tokenize.COMMENT,
            tokenize.NL,
            tokenize.ENCODING,
            tokenize.ENDMARKER,
        ):
            continue
        if tok.type in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT):
            at_statement_start = True
            continue
        if tok.type == tokenize.STRING and at_statement_start:
            # Expression-statement string at statement start: a
            # docstring (or a bare no-op string) — not code.
            continue
        at_statement_start = False
        for line in range(tok.start[0], tok.end[0] + 1):
            lines_with_code.add(line)
    return len(lines_with_code)


def _count_files(relpaths: tuple[str, ...]) -> int:
    return sum(count_loc(os.path.join(_APPS_DIR, rel)) for rel in relpaths)


def table1_codesize() -> SweepResult:
    """Regenerate Table 1 for this repository's implementations."""
    rows = []
    for app, (ppm_files, mpi_files) in TABLE1_FILES.items():
        paper_ppm, paper_mpi = PAPER_TABLE1[app]
        ppm_loc = _count_files(ppm_files)
        mpi_loc = _count_files(mpi_files)
        rows.append(
            {
                "application": app,
                "ppm_loc": ppm_loc,
                "mpi_loc": mpi_loc,
                "mpi/ppm": round(mpi_loc / ppm_loc, 2),
                "paper_ppm": paper_ppm,
                "paper_mpi": paper_mpi if paper_mpi is not None else "N/A",
            }
        )
    result = SweepResult(
        name="table1_codesize",
        columns=["application", "ppm_loc", "mpi_loc", "mpi/ppm", "paper_ppm", "paper_mpi"],
        rows=rows,
        notes=(
            "Logical lines (tokenizer-counted; no blanks/comments/docstrings). "
            "Shared substrates (problem generators, traversal engine, serial "
            "references) excluded from both sides, as in the paper."
        ),
    )
    result.claim(
        "every implementation is counted (ppm_loc, mpi_loc > 0)",
        all(r["ppm_loc"] > 0 and r["mpi_loc"] > 0 for r in rows),
    )
    for r in rows:
        if r["paper_mpi"] != "N/A":  # the paper had no MPI Barnes-Hut to compare
            result.claim(
                f"{r['application']}: MPI needs substantially more code (> 1.5x PPM's)",
                r["mpi_loc"] > 1.5 * r["ppm_loc"],
            )
    return result

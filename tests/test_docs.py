"""Documentation stays honest.

The guarantees:

* every intra-repo markdown link (and ``#anchor`` fragment) in the
  user-facing documents resolves (``tools/check_docs.py --links``);
* every fenced ```python block in README.md and docs/OBSERVABILITY.md
  executes, sequentially per document (``tools/check_docs.py --exec``);
* the EXPERIMENTS.md command-reference table names exactly the
  experiments the ``repro.bench`` CLI exposes — no stale rows, no
  undocumented experiments;
* the tables that restate a code registry are pinned to it:
  docs/DIAGNOSTICS.md to the rule codes, docs/OBSERVABILITY.md's
  taxonomy to ``EVENT_TYPES``, GUIDE's option table to ``run_ppm``'s
  signature.
"""

from __future__ import annotations

import importlib.util
import inspect
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO / "tools" / "check_docs.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


check_docs = _load_check_docs()


def test_intra_repo_links_resolve():
    problems = check_docs.check_links(check_docs.LINK_DOCS)
    assert problems == []


def test_doc_python_examples_execute():
    # Subprocess: the examples mutate module state (numpy seeds, sys
    # modules) and must not leak into this test session.
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_docs.py"), "--exec"],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr


def _bench_cli_names() -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench", "--list"],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr
    return {line.strip() for line in proc.stdout.splitlines() if line.strip()}


def _documented_cli_names() -> set[str]:
    """Experiment names used as ``python -m repro.bench <name>`` in the
    EXPERIMENTS.md command-reference table."""
    text = (REPO / "EXPERIMENTS.md").read_text()
    return set(re.findall(r"python -m repro\.bench (?!--)(\S+)`", text))


def test_experiments_table_matches_bench_cli():
    documented = _documented_cli_names()
    actual = _bench_cli_names()
    assert documented == actual, (
        f"EXPERIMENTS.md command table out of sync with "
        f"`python -m repro.bench --list`: "
        f"stale rows {sorted(documented - actual)}, "
        f"undocumented experiments {sorted(actual - documented)}"
    )


def test_bench_cli_spot_run():
    # The cheapest real experiment proves the documented command shape
    # (`python -m repro.bench <name>`) actually runs.
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench", "table1"],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr
    assert "table1" in proc.stdout or proc.stdout.strip()


#: DIAGNOSTICS.md headings of codes that are never raised any more;
#: the anchors stay so old links resolve.
RETIRED_CODES = {"PPM301", "PPM304", "PPM305", "PPM410", "PPM503"}


def _raised_codes() -> set[str]:
    """Codes the runtime's configuration errors carry (``code="PPMnnn"``
    at a raise site, or a ``code: str = "PPMnnn"`` default)."""
    pattern = re.compile(r'code(?:: str)?\s*=\s*"(PPM\d{3})"')
    return {
        code
        for path in (REPO / "src" / "repro").rglob("*.py")
        for code in pattern.findall(path.read_text())
    }


def test_diagnostics_doc_covers_every_code():
    from repro.analysis.diagnostics import ALL_CODES

    text = (REPO / "docs" / "DIAGNOSTICS.md").read_text()
    documented = set(re.findall(r"^### (PPM\d{3})$", text, re.M))
    live = set(ALL_CODES) | _raised_codes()
    assert live - documented == set(), "codes missing from DIAGNOSTICS.md"
    assert documented - live == RETIRED_CODES
    assert not live & RETIRED_CODES
    for code in RETIRED_CODES:
        section = text.split(f"### {code}\n", 1)[1].lstrip()
        assert section.startswith("**Retired**"), code


def test_observability_taxonomy_lists_every_event():
    from repro.obs import EVENT_TYPES

    text = (REPO / "docs" / "OBSERVABILITY.md").read_text()
    taxonomy = text.split("## Event taxonomy", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|", taxonomy, re.M)
    assert sorted(rows) == sorted(EVENT_TYPES)


def test_guide_option_table_matches_run_ppm():
    from repro.core import run_ppm

    text = (REPO / "docs" / "GUIDE.md").read_text()
    section = text.split("## 9. Every `run_ppm` option", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| `(\w+)=` \|", section, re.M)
    kw_only = [
        name
        for name, p in inspect.signature(run_ppm).parameters.items()
        if p.kind is inspect.Parameter.KEYWORD_ONLY
    ]
    assert documented == kw_only

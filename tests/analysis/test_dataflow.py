"""Tests for the symbolic phase-dataflow verifier.

Each case feeds a small PPM module through ``verify_source`` and
checks the findings (rules PPM401-PPM404), the certification verdict,
and the cross-phase dependence graph.  The shipped apps are the
zero-false-positive regression at the end.
"""

from __future__ import annotations

import os
import textwrap

import pytest

from repro.analysis.dataflow import verify_file, verify_source

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

APP_FILES = [
    "src/repro/apps/cg/ppm_cg.py",
    "src/repro/apps/collocation/ppm_gen.py",
    "src/repro/apps/barneshut/ppm_bh.py",
    "src/repro/apps/multigrid/ppm_mg.py",
    "src/repro/apps/graph/ppm_bfs.py",
    "src/repro/apps/sptrsv/ppm_trsv.py",
]


def verify(src: str):
    return verify_source(textwrap.dedent(src), "test.py")


def rules_of(diags):
    return sorted({d.rule for d in diags})


def module(kernel_body: str, *, decls: str = 'X = ppm.global_shared("x", 64)',
           do: str = "ppm.do(cluster.total_cores(), kernel, X)",
           params: str = "ctx, X") -> str:
    return textwrap.dedent(
        f"""\
        from repro.core import ppm_function
        from repro.apps.common import split_range

        def main(ppm, cluster):
            {decls}
            {do}

        @ppm_function
        def kernel({params}):
        """
    ) + textwrap.indent(textwrap.dedent(kernel_body), "    ")


# ======================================================================
# PPM401: provable cross-VP write-write overlap
# ======================================================================
class TestWriteWriteOverlap:
    def test_ppm201_demo_is_flagged_statically(self):
        """The acceptance case: the sanitizer's PPM201 demo program is
        proven conflicting with no execution at all."""
        diags, summaries = verify_source(
            module(
                """\
                yield ctx.global_phase
                X[0] = float(ctx.global_rank)
                """
            ),
            "demo.py",
        )
        errors = [d for d in diags if d.severity == "error"]
        assert [d.rule for d in errors] == ["PPM401"]
        diag = errors[0]
        assert diag.tool == "dataflow"
        assert diag.variable == "X"
        assert diag.phase_kind == "global"
        assert diag.path == "demo.py"
        assert "demo.py" in diag.format()
        assert not summaries[0].certified

    def test_rank_offset_point_writes_are_clean(self):
        diags, summaries = verify(
            module(
                """\
                yield ctx.global_phase
                X[ctx.global_rank] = 1.0
                """
            )
        )
        assert diags == []
        assert summaries[0].certified

    def test_overlapping_chunks_from_different_bases_conflict(self):
        diags, summaries = verify(
            module(
                """\
                lo, hi = split_range(64, ctx.global_vp_count)[ctx.global_rank]
                yield ctx.global_phase
                X[lo:hi] = 0.0
                X[0:2] = 1.0
                """
            )
        )
        assert "PPM401" in rules_of(diags)
        assert not summaries[0].certified

    def test_same_uniform_value_overlap_is_warning_but_blocks(self):
        diags, summaries = verify(
            module(
                """\
                yield ctx.global_phase
                X[0] = 1.0
                """
            )
        )
        assert [d.rule for d in diags] == ["PPM401"]
        assert diags[0].severity == "warning"
        assert not summaries[0].certified

    def test_single_rank_guard_excludes_the_pair(self):
        diags, summaries = verify(
            module(
                """\
                yield ctx.global_phase
                if ctx.global_rank == 0:
                    X[0] = 1.0
                """
            )
        )
        assert diags == []
        assert summaries[0].certified


# ======================================================================
# Chunked partitioning proofs
# ======================================================================
class TestChunkProofs:
    def test_split_range_chunks_certify(self):
        diags, summaries = verify(
            module(
                """\
                lo, hi = split_range(64, ctx.global_vp_count)[ctx.global_rank]
                yield ctx.global_phase
                X[lo:hi] = float(ctx.global_rank)
                yield ctx.global_phase
                doubled = X[lo:hi] * 2.0
                X[lo:hi] = doubled
                """
            )
        )
        assert diags == []
        summary = summaries[0]
        assert summary.certified
        assert len(summary.phases) == 2

    def test_local_range_node_chunks_certify(self):
        """The CG idiom: node block from ``local_range``, split across
        the node's VPs by ``node_rank``."""
        diags, summaries = verify(
            module(
                """\
                node_lo, node_hi = X.local_range(ctx.node_id)
                lo, hi = split_range(
                    node_hi - node_lo, ctx.node_vp_count
                )[ctx.node_rank]
                yield ctx.global_phase
                X[node_lo + lo:node_lo + hi] = 1.0
                """
            )
        )
        assert diags == []
        assert summaries[0].certified


# ======================================================================
# PPM402: snapshot-semantics read-write overlap
# ======================================================================
class TestReadWriteOverlap:
    def test_read_of_own_written_rows_warns_without_blocking(self):
        diags, summaries = verify(
            module(
                """\
                yield ctx.global_phase
                X[ctx.global_rank] = 2.0
                y = X[ctx.global_rank] + 1.0
                """
            )
        )
        flow = [d for d in diags if d.tool == "dataflow"]
        # The lint layer reports the same staleness at whole-variable
        # granularity (PPM104); the dataflow finding adds index sets.
        assert "PPM104" in rules_of(diags)
        assert [d.rule for d in flow] == ["PPM402"]
        assert flow[0].severity == "warning"
        # Snapshot reads are deterministic: certification stands.
        assert summaries[0].certified

    def test_disjoint_read_and_write_rows_are_silent(self):
        diags, summaries = verify(
            module(
                """\
                lo, hi = split_range(64, ctx.global_vp_count)[ctx.global_rank]
                yield ctx.global_phase
                s = float(X[lo:hi].sum())
                X[lo:hi] = s
                yield ctx.global_phase
                t = X[lo:hi].mean()
                X[lo:hi] = t
                """
            )
        )
        # Reading the snapshot then overwriting it in one statement (or
        # before any write) is the model's idiom, not a staleness bug.
        assert "PPM402" not in rules_of(diags)
        assert summaries[0].certified


# ======================================================================
# PPM403: accumulate operator discipline
# ======================================================================
class TestAccumulate:
    def test_same_op_overlapping_accumulates_certify(self):
        diags, summaries = verify(
            module(
                """\
                yield ctx.global_phase
                X.accumulate([0], [1.0], op="add")
                """
            )
        )
        assert diags == []
        assert summaries[0].certified

    def test_mixed_ops_on_overlapping_rows_flagged(self):
        diags, summaries = verify(
            module(
                """\
                yield ctx.global_phase
                X.accumulate([0], [1.0], op="add")
                X.accumulate([0], [2.0], op="max")
                """
            )
        )
        assert "PPM403" in rules_of(diags)
        assert not summaries[0].certified

    def test_accumulate_overlapping_plain_write_flagged(self):
        """Mixed plain write + accumulate on one element (the static
        analogue of sanitizer rule PPM202) is rank-order dependent."""
        diags, summaries = verify(
            module(
                """\
                yield ctx.global_phase
                if ctx.global_rank == 0:
                    X[0] = 1.0
                else:
                    X.accumulate([0], [2.0], op="add")
                """
            )
        )
        assert rules_of(diags) == ["PPM401"]
        assert "accumulate" in diags[0].message
        assert not summaries[0].certified


# ======================================================================
# PPM404: unanalyzable accesses
# ======================================================================
class TestUnanalyzable:
    def test_data_dependent_scatter_write_names_the_expression(self):
        diags, summaries = verify(
            module(
                """\
                yield ctx.global_phase
                i = int(X[ctx.global_rank])
                yield ctx.global_phase
                X[i] = 1.0
                """
            )
        )
        ppm404 = [d for d in diags if d.rule == "PPM404"]
        assert ppm404, rules_of(diags)
        assert "X[i]" in ppm404[0].message
        assert not summaries[0].certified

    def test_unanalyzable_read_does_not_block_certification(self):
        diags, summaries = verify(
            module(
                """\
                yield ctx.global_phase
                i = int(X[ctx.global_rank])
                yield ctx.global_phase
                v = X[i]
                X[ctx.global_rank] = v + 1.0
                """
            )
        )
        assert "PPM404" not in rules_of(diags)
        assert summaries[0].certified


# ======================================================================
# Cross-phase dependence graph
# ======================================================================
class TestDependenceGraph:
    def test_raw_war_waw_edges(self):
        _, summaries = verify(
            module(
                """\
                lo, hi = split_range(64, ctx.global_vp_count)[ctx.global_rank]
                yield ctx.global_phase
                X[lo:hi] = 1.0
                yield ctx.global_phase
                s = float(X[0:64].sum())
                yield ctx.global_phase
                X[lo:hi] = s
                """
            )
        )
        summary = summaries[0]
        # Edges are keyed by the phases' declaring yield lines.
        p = [ph.yield_lineno for ph in summary.phases]
        assert len(p) == 3
        edges = {(e.src_phase, e.dst_phase, e.kind) for e in summary.edges}
        assert (p[0], p[1], "RAW") in edges   # phase 1 reads phase 0's rows
        assert (p[1], p[2], "WAR") in edges   # phase 2 overwrites them
        assert (p[0], p[2], "WAW") in edges

    def test_gather_reads_its_index_variable(self):
        """``X.gather(I, ...)`` is a read of ``I`` and of ``X``: an index
        written in one phase and gathered through in the next is a RAW
        edge on ``I``."""
        _, summaries = verify(
            module(
                """\
                lo, hi = split_range(64, ctx.global_vp_count)[ctx.global_rank]
                yield ctx.global_phase
                I[lo:hi] = 7
                yield ctx.global_phase
                rows = X.gather(I, [lo], [hi - lo])
                """,
                decls='X = ppm.global_shared("x", 64); I = ppm.global_shared("i", 64)',
                do="ppm.do(cluster.total_cores(), kernel, X, I)",
                params="ctx, X, I",
            )
        )
        summary = summaries[0]
        p = [ph.yield_lineno for ph in summary.phases]
        edges = {(e.variable, e.src_phase, e.dst_phase, e.kind) for e in summary.edges}
        assert edges == {("I", p[0], p[1], "RAW")}
        reads = [(a.variable, a.kind) for a in summary.phases[1].accesses]
        assert reads == [("I", "read"), ("X", "read")]

    def test_disjoint_phases_have_no_edge(self):
        _, summaries = verify(
            module(
                """\
                yield ctx.global_phase
                X[0:32] = 1.0
                yield ctx.global_phase
                X[32:64] = 2.0
                """,
                do="ppm.do(1, kernel, X)",
            )
        )
        assert summaries[0].edges == []


# ======================================================================
# The shipped apps: zero false positives, full certificates
# ======================================================================
class TestShippedApps:
    @pytest.mark.parametrize("rel", APP_FILES, ids=lambda p: p.split("/")[-1])
    def test_app_verifies_clean_and_certified(self, rel):
        diags, summaries = verify_file(os.path.join(REPO_ROOT, rel))
        assert diags == [], [d.format() for d in diags]
        assert summaries, "no PPM kernels found"
        for s in summaries:
            assert s.analyzable, (s.name, s.reason)
            assert s.certified, (s.name, sorted(s.certified_lines))

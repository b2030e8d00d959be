"""Unit tests for the static linter: model construction + one class
per rule."""

from __future__ import annotations

import textwrap

from repro.analysis import build_module_model, lint_paths, lint_source

#: Shared scaffold: a driver declaring shared variables and launching a
#: kernel, with a hole for the kernel body.
TEMPLATE = """\
import numpy as np
from repro.core import ppm_function, run_ppm


@ppm_function
def kernel(ctx, X, Y):
{body}


def main(ppm):
    X = ppm.global_shared("x", 100)
    Y = ppm.node_shared("y", 100)
    ppm.do(ppm.cores_per_node, kernel, X, Y)
"""


def lint_kernel(body: str):
    src = TEMPLATE.format(body=textwrap.indent(textwrap.dedent(body), "    "))
    return lint_source(src, path="case.py")


def rules_of(diagnostics):
    return sorted(d.rule for d in diagnostics)


# ======================================================================
# Model construction
# ======================================================================
class TestModuleModel:
    def test_shared_declarations_and_do_mapping(self):
        src = TEMPLATE.format(body="    yield ctx.global_phase\n    X[0] = 1.0")
        model = build_module_model(src, path="m.py")
        assert model.shared_vars["X"].kind == "global"
        assert model.shared_vars["Y"].kind == "node"
        assert len(model.do_calls) == 1
        (fn,) = model.functions
        assert fn.name == "kernel"
        assert fn.shared_params["X"].kind == "global"
        assert fn.shared_params["Y"].kind == "node"

    def test_container_of_shared_is_modelled(self):
        src = textwrap.dedent(
            """\
            from repro.core import ppm_function

            @ppm_function
            def kernel(ctx, U):
                yield ctx.global_phase
                U[0][3] = 1.0

            def main(ppm):
                U = [ppm.global_shared(f"u{l}", 10) for l in range(3)]
                ppm.do(ppm.cores_per_node, kernel, U)
            """
        )
        model = build_module_model(src, path="m.py")
        assert model.shared_vars["U"].container
        (fn,) = model.functions
        accs = [a for a in fn.accesses if a.kind == "write"]
        assert len(accs) == 1 and accs[0].name == "U"

    def test_unresolved_names_produce_no_accesses(self):
        src = textwrap.dedent(
            """\
            from repro.core import ppm_function

            @ppm_function
            def kernel(ctx, A):
                local = [0] * 4
                yield ctx.global_phase
                local[0] = 1  # not a shared variable
            """
        )
        model = build_module_model(src, path="m.py")
        assert model.functions[0].accesses == []

    def test_syntax_error_reports_ppm100(self):
        found = lint_source("def broken(:\n", path="bad.py")
        assert rules_of(found) == ["PPM100"]
        assert found[0].severity == "error"


# ======================================================================
# PPM101 — prologue access
# ======================================================================
class TestPrologueAccess:
    def test_read_before_first_yield_flagged(self):
        found = lint_kernel(
            """\
            v = X[0]
            yield ctx.global_phase
            X[1] = v
            """
        )
        assert rules_of(found) == ["PPM101"]
        assert found[0].line == 7  # the prologue read

    def test_metadata_calls_in_prologue_are_legal(self):
        found = lint_kernel(
            """\
            lo, hi = X.local_range(ctx.node_id)
            yield ctx.global_phase
            X[lo:hi] = np.zeros(hi - lo)
            """
        )
        assert found == []

    def test_accumulate_in_prologue_flagged(self):
        found = lint_kernel(
            """\
            X.accumulate(np.array([0]), np.array([1.0]))
            yield ctx.global_phase
            """
        )
        assert rules_of(found) == ["PPM101"]

    def test_read_in_match_arm_flagged(self):
        found = lint_kernel(
            """\
            match ctx.global_rank:
                case 0:
                    v = X[0]
            yield ctx.global_phase
            """
        )
        assert rules_of(found) == ["PPM101"]
        assert found[0].line == 9  # the read inside the arm


# ======================================================================
# PPM102 — global write in a node phase
# ======================================================================
class TestNodePhaseGlobalWrite:
    def test_global_write_in_node_phase_flagged(self):
        found = lint_kernel(
            """\
            yield ctx.node_phase
            X[0] = 1.0
            """
        )
        assert rules_of(found) == ["PPM102"]

    def test_global_read_in_node_phase_is_legal(self):
        found = lint_kernel(
            """\
            yield ctx.node_phase
            Y[0] = X[0]
            """
        )
        assert found == []

    def test_node_write_in_node_phase_is_legal(self):
        found = lint_kernel(
            """\
            yield ctx.node_phase
            Y[0] = 1.0
            """
        )
        assert found == []

    def test_global_write_in_global_phase_is_legal(self):
        found = lint_kernel(
            """\
            yield ctx.global_phase
            X[0] = 1.0
            """
        )
        assert found == []


# ======================================================================
# PPM103 — plain-write reduction
# ======================================================================
class TestPlainWriteReduction:
    def test_augassign_flagged(self):
        found = lint_kernel(
            """\
            yield ctx.global_phase
            X[0] += 1.0
            """
        )
        assert rules_of(found) == ["PPM103"]

    def test_spelled_out_self_update_flagged(self):
        found = lint_kernel(
            """\
            yield ctx.global_phase
            X[2:5] = X[2:5] + np.ones(3)
            """
        )
        assert rules_of(found) == ["PPM103"]

    def test_accumulate_form_is_the_fix(self):
        found = lint_kernel(
            """\
            yield ctx.global_phase
            X.accumulate(np.arange(2, 5), np.ones(3))
            """
        )
        assert found == []

    def test_plain_write_of_fresh_value_is_legal(self):
        found = lint_kernel(
            """\
            yield ctx.global_phase
            X[0] = 1.0
            """
        )
        assert found == []

    def test_different_index_self_reference_is_legal(self):
        # X[1:4] = X[0:3] + c is a stencil shift, not a reduction.
        found = lint_kernel(
            """\
            yield ctx.global_phase
            X[1:4] = X[0:3] + np.ones(3)
            """
        )
        assert found == []

    def test_container_element_augassign_flagged(self):
        src = textwrap.dedent(
            """\
            from repro.core import ppm_function

            @ppm_function
            def kernel(ctx, U):
                yield ctx.global_phase
                U[0][3] += 1.0

            def main(ppm):
                U = [ppm.global_shared(f"u{l}", 10) for l in range(3)]
                ppm.do(ppm.cores_per_node, kernel, U)
            """
        )
        assert rules_of(lint_source(src, path="m.py")) == ["PPM103"]


# ======================================================================
# PPM104 — read after write in one phase
# ======================================================================
class TestStaleReadAfterWrite:
    def test_read_after_write_flagged(self):
        found = lint_kernel(
            """\
            yield ctx.global_phase
            X[0] = 1.0
            v = X[0]
            """
        )
        assert rules_of(found) == ["PPM104"]

    def test_same_statement_read_is_legal(self):
        # Evaluation order reads before the write takes effect; this is
        # PPM103's business, not PPM104's.
        found = lint_kernel(
            """\
            yield ctx.global_phase
            X[0] = X[1] * 2.0
            """
        )
        assert found == []

    def test_read_in_next_phase_is_legal(self):
        found = lint_kernel(
            """\
            yield ctx.global_phase
            X[0] = 1.0
            yield ctx.global_phase
            v = X[0]
            """
        )
        assert found == []

    def test_mutually_exclusive_branches_are_legal(self):
        # The multigrid dispatch shape: write and read in different
        # arms of an op dispatch never execute in the same phase.
        found = lint_kernel(
            """\
            op = "smooth"
            yield ctx.global_phase
            if op == "restrict":
                X[0] = 1.0
            else:
                v = X[0]
            """
        )
        assert found == []

    def test_write_on_path_of_read_flagged(self):
        found = lint_kernel(
            """\
            yield ctx.global_phase
            X[0] = 1.0
            if ctx.global_rank == 0:
                v = X[0]
            """
        )
        assert rules_of(found) == ["PPM104"]

    def test_gather_through_a_written_index_flagged(self):
        """``X.gather(I, ...)`` reads ``I`` too: writing ``I`` earlier
        in the phase makes the gather's index stale."""
        src = TEMPLATE.replace("kernel(ctx, X, Y)", "kernel(ctx, X, I)").replace(
            'Y = ppm.node_shared("y", 100)', 'I = ppm.global_shared("i", 100, dtype=np.int64)'
        ).replace("kernel, X, Y)", "kernel, X, I)")
        body = """\
            yield ctx.global_phase
            I[0] = 3
            v = X.gather(I, [0], [1])
            """
        found = lint_source(src.format(body=textwrap.indent(textwrap.dedent(body), "    ")), path="case.py")
        assert [(d.rule, d.line) for d in found] == [("PPM104", 9)]


# ======================================================================
# PPM105 — literal VP count (warn-only)
# ======================================================================
class TestLiteralVpCount:
    def _driver(self, k_expr: str) -> str:
        return textwrap.dedent(
            f"""\
            from repro.core import ppm_function

            K = 16

            @ppm_function
            def kernel(ctx, X):
                yield ctx.global_phase
                X[0] = 1.0

            def main(ppm):
                X = ppm.global_shared("x", 10)
                ppm.do({k_expr}, kernel, X)
            """
        )

    def test_inline_literal_flagged_as_warning(self):
        found = lint_source(self._driver("8"), path="m.py")
        assert rules_of(found) == ["PPM105"]
        assert found[0].severity == "warning"

    def test_literal_list_flagged(self):
        found = lint_source(self._driver("[4, 4]"), path="m.py")
        assert rules_of(found) == ["PPM105"]

    def test_named_constant_is_legal(self):
        # The paper's own listings size K as a module constant.
        assert lint_source(self._driver("K"), path="m.py") == []

    def test_geometry_derived_count_is_legal(self):
        found = lint_source(
            self._driver("ppm.cores_per_node * 2"), path="m.py"
        )
        assert found == []


# ======================================================================
# The repository's own PPM code stays clean
# ======================================================================
class TestRepositoryGate:
    def test_examples_and_apps_are_clean(self):
        found = lint_paths(["examples", "src/repro/apps"])
        assert [d.format() for d in found] == []

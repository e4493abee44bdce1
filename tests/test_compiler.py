"""Tests for the source-to-source translator."""

import textwrap

import numpy as np
import pytest

from repro import SmpssRuntime
from repro.compiler import (
    CompileError,
    compile_annotated,
    load_annotated_module,
    translate_source,
)


SIMPLE = textwrap.dedent(
    """\
    import numpy as np

    #pragma css task input(a, b) inout(c)
    def sgemm_t(a, b, c):
        c += a @ b

    def run(a, b, c):
        sgemm_t(a, b, c)
        #pragma css barrier
        return c
    """
)


class TestTranslation:
    def test_task_pragma_becomes_decorator(self):
        out = translate_source(SIMPLE)
        assert '@__css_task__("input(a, b) inout(c)")' in out
        assert "#pragma css task" not in out

    def test_barrier_pragma_becomes_call(self):
        out = translate_source(SIMPLE)
        assert "    __css_barrier__()" in out

    def test_prelude_is_single_line(self):
        out = translate_source(SIMPLE)
        prelude, rest = out.split("\n", 1)
        assert "__css_task__" in prelude
        assert rest.splitlines()[0] == "import numpy as np"

    def test_line_count_preserved_plus_prelude(self):
        out = translate_source(SIMPLE)
        assert len(out.split("\n")) == len(SIMPLE.split("\n")) + 1

    def test_wait_on(self):
        src = "#pragma css wait on(result)\n"
        out = translate_source(src)
        assert "__css_wait_on__(result)" in out

    def test_start_finish_are_noops(self):
        src = "#pragma css start\nx = 1\n#pragma css finish\n"
        out = translate_source(src)
        assert "x = 1" in out
        assert "no-op" in out

    def test_continuation_lines(self):
        src = textwrap.dedent(
            """\
            #pragma css task input(data{i1..j1}, data{i2..j2}, i1, j1, i2, j2) \\
            # output(dest{i1..j2})
            def seqmerge(data, i1, j1, i2, j2, dest):
                pass
            """
        )
        out = translate_source(src)
        assert "output(dest{i1..j2})" in out
        # Continuation line replaced by a blank to keep numbering.
        assert len(out.split("\n")) == len(src.split("\n")) + 1

    def test_indented_task(self):
        src = textwrap.dedent(
            """\
            class Holder:
                #pragma css task inout(a)
                def bump(a):
                    a += 1
            """
        )
        out = translate_source(src)
        assert '    @__css_task__("inout(a)")' in out


class TestErrors:
    def test_invalid_clause_reports_line(self):
        src = "x = 1\n#pragma css task banana(a)\ndef f(a):\n    pass\n"
        with pytest.raises(CompileError, match=":2:"):
            translate_source(src)

    def test_task_without_def(self):
        src = "#pragma css task input(a)\nx = 1\n"
        with pytest.raises(CompileError, match="function definition"):
            translate_source(src)

    def test_task_with_wrong_indent_def(self):
        src = "#pragma css task input(a)\nif True:\n    def f(a):\n        pass\n"
        with pytest.raises(CompileError):
            translate_source(src)

    def test_barrier_with_arguments(self):
        with pytest.raises(CompileError, match="no arguments"):
            translate_source("#pragma css barrier now\n")

    def test_bad_wait(self):
        with pytest.raises(CompileError, match="wait on"):
            translate_source("#pragma css wait for(x)\n")

    def test_dangling_continuation(self):
        with pytest.raises(CompileError, match="continuation"):
            translate_source("#pragma css task input(a) \\")


class TestExecution:
    def test_compiled_module_runs_sequentially(self):
        module = compile_annotated(SIMPLE, "seq_prog")
        a = np.ones((4, 4))
        b = np.ones((4, 4))
        c = np.zeros((4, 4))
        module.run(a, b, c)
        assert (c == 4.0).all()

    def test_compiled_module_runs_in_parallel(self):
        module = compile_annotated(SIMPLE, "par_prog")
        a = np.ones((4, 4))
        b = np.ones((4, 4))
        c = np.zeros((4, 4))
        with SmpssRuntime(num_workers=2):
            module.run(a, b, c)  # the barrier pragma synchronises
        assert (c == 4.0).all()

    def test_annotated_cholesky_program(self):
        """A realistic annotated program: Figure 4 as comments only."""

        src = textwrap.dedent(
            """\
            import numpy as np
            import scipy.linalg as sla

            #pragma css task input(a, b) inout(c)
            def gemm_t(a, b, c):
                c -= a @ b.T

            #pragma css task input(a) inout(b)
            def syrk_t(a, b):
                b -= a @ a.T

            #pragma css task inout(a)
            def potrf_t(a):
                a[...] = sla.cholesky(a, lower=True)

            #pragma css task input(a) inout(b)
            def trsm_t(a, b):
                b[...] = sla.solve_triangular(a, b.T, lower=True).T

            def cholesky(A, N):
                for j in range(N):
                    for k in range(j):
                        for i in range(j + 1, N):
                            gemm_t(A[i][k], A[j][k], A[i][j])
                    for i in range(j):
                        syrk_t(A[j][i], A[j][j])
                    potrf_t(A[j][j])
                    for i in range(j + 1, N):
                        trsm_t(A[j][j], A[i][j])
                #pragma css barrier
            """
        )
        module = compile_annotated(src, "annotated_cholesky")
        n_blocks, m = 4, 8
        size = n_blocks * m
        rng = np.random.default_rng(0)
        x = rng.standard_normal((size, size))
        spd = x @ x.T + size * np.eye(size)
        blocks = [
            [np.array(spd[i * m:(i + 1) * m, j * m:(j + 1) * m])
             for j in range(n_blocks)]
            for i in range(n_blocks)
        ]
        import scipy.linalg as sla

        with SmpssRuntime(num_workers=3):
            module.cholesky(blocks, n_blocks)
        lower = np.zeros((size, size))
        for i in range(n_blocks):
            for j in range(i + 1):
                piece = blocks[i][j]
                lower[i * m:(i + 1) * m, j * m:(j + 1) * m] = (
                    np.tril(piece) if i == j else piece
                )
        assert np.allclose(lower, sla.cholesky(spd, lower=True), atol=1e-8)

    def test_wait_on_execution(self):
        src = textwrap.dedent(
            """\
            import numpy as np

            #pragma css task inout(a)
            def bump(a):
                a += 1

            def run(a):
                bump(a)
                #pragma css wait on(a)
                latest = __css_wait_on__(a)
                return float(latest[0])
            """
        )
        module = compile_annotated(src, "wait_prog")
        a = np.zeros(1)
        with SmpssRuntime(num_workers=2):
            value = module.run(a)
        assert value == 1.0

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "prog.py"
        path.write_text(SIMPLE)
        module = load_annotated_module(str(path))
        a = np.ones((2, 2))
        c = np.zeros((2, 2))
        module.run(a, a, c)
        assert (c == 2.0).all()

    def test_cli_translate(self, tmp_path, capsys):
        from repro.compiler.cli import main

        path = tmp_path / "prog.py"
        path.write_text(SIMPLE)
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "@__css_task__" in out

    def test_cli_output_file(self, tmp_path):
        from repro.compiler.cli import main

        src = tmp_path / "prog.py"
        src.write_text(SIMPLE)
        dst = tmp_path / "out.py"
        assert main([str(src), "-o", str(dst)]) == 0
        assert "@__css_task__" in dst.read_text()

    def test_cli_error_reporting(self, tmp_path, capsys):
        from repro.compiler.cli import main

        path = tmp_path / "bad.py"
        path.write_text("#pragma css task nope(a)\ndef f(a):\n    pass\n")
        assert main([str(path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestCliErrorPaths:
    """``python -m repro compile`` must fail like a compiler: exit
    code 1, message on stderr, and a faithful file:line location."""

    def _main(self):
        from repro.compiler.cli import main

        return main

    def test_malformed_pragma_exit_code_and_line(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text(
            "x = 1\n"
            "y = 2\n"
            "#pragma css task banana(a)\n"
            "def f(a):\n"
            "    pass\n"
        )
        assert self._main()([str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{path}:3:" in err  # the pragma's own line

    def test_continuation_error_reports_first_pragma_line(self, tmp_path, capsys):
        # A clause error inside a continued pragma must point at the
        # line the pragma *starts* on, not the continuation line.
        path = tmp_path / "cont.py"
        path.write_text(
            "#pragma css task input(a) \\\n"
            "# banana(b)\n"
            "def f(a, b):\n"
            "    pass\n"
        )
        assert self._main()([str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}:1:" in err
        assert "banana" in err

    def test_dangling_continuation_exit_code(self, tmp_path, capsys):
        path = tmp_path / "dangle.py"
        path.write_text("#pragma css task input(a) \\\n")
        assert self._main()([str(path)]) == 1
        assert "continuation" in capsys.readouterr().err

    def test_task_without_def_location(self, tmp_path, capsys):
        path = tmp_path / "nodef.py"
        path.write_text("x = 0\n#pragma css task input(a)\nx = 1\n")
        assert self._main()([str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}:2:" in err
        assert "function definition" in err

    def test_run_mode_reports_compile_errors(self, tmp_path, capsys):
        path = tmp_path / "bad_run.py"
        path.write_text("#pragma css barrier now\n")
        assert self._main()([str(path), "--run"]) == 1
        assert "no arguments" in capsys.readouterr().err

    def test_error_line_survives_blank_and_comment_lines(self, tmp_path, capsys):
        # Decorator lines and comments between pragma and def are legal;
        # the reported line must still be the pragma's.
        path = tmp_path / "deco.py"
        path.write_text(
            "\n"
            "# a comment\n"
            "\n"
            "#pragma css task input(a{1..)\n"
            "def f(a):\n"
            "    pass\n"
        )
        assert self._main()([str(path)]) == 1
        assert f"{path}:4:" in capsys.readouterr().err


class TestIterTaskPragmas:
    def test_payloads_and_lines(self):
        from repro.compiler import iter_task_pragmas

        source = (
            "x = 1\n"
            "#pragma css task input(a)\n"
            "def f(a):\n"
            "    pass\n"
            "#pragma css barrier\n"
            "#pragma css task inout(b)\n"
            "@decorated\n"
            "def g(b):\n"
            "    pass\n"
        )
        found = list(iter_task_pragmas(source))
        assert found == [
            ("input(a)", 2, 3),
            ("inout(b)", 6, 8),
        ]

    def test_continuation_payload_merged(self):
        from repro.compiler import iter_task_pragmas

        source = (
            "#pragma css task input(a) \\\n"
            "# inout(b)\n"
            "def f(a, b):\n"
            "    pass\n"
        )
        ((payload, pragma_line, def_line),) = iter_task_pragmas(source)
        assert payload == "input(a) inout(b)"
        assert (pragma_line, def_line) == (1, 3)

    def test_missing_def_yields_none(self):
        from repro.compiler import iter_task_pragmas

        ((_, _, def_line),) = iter_task_pragmas("#pragma css task input(a)\n")
        assert def_line is None

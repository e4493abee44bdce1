"""Source-to-source translation of ``#pragma css``-annotated programs.

The paper's programming environment "consists of a source-to-source
compiler and a supporting runtime library.  The compiler translates C
code with the aforementioned annotations into standard C99 code with
calls to the supporting runtime library."

This package is the Python analogue: it translates Python source whose
functions are annotated with ``#pragma css task ...`` *comments* (the
exact clause grammar of the paper) into standard Python that calls the
:mod:`repro.core` runtime — so a file written as a plain sequential
program, annotated only with comments, runs in parallel unmodified.

    #pragma css task input(a, b) inout(c)
    def sgemm_t(a, b, c):
        c += a @ b

    ...
    #pragma css barrier

Use :func:`translate_source` for text-to-text translation,
:func:`compile_annotated` / :func:`load_annotated_module` to get a live
module, or ``python -m repro compile in.py -o out.py`` from a shell.
"""

from .translate import (
    CompileError,
    compile_annotated,
    iter_task_pragmas,
    load_annotated_module,
    translate_source,
)

__all__ = [
    "CompileError",
    "compile_annotated",
    "iter_task_pragmas",
    "load_annotated_module",
    "translate_source",
]

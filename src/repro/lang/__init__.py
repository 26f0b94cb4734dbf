"""Textual front-end for the JStar concrete syntax (Figs 4 & 5).

Parse and run programs written the way the paper writes them::

    from repro.lang import compile_source

    src = '''
        table Ship(int frame -> int x, int y, int dx, int dy)
            orderby (Int, seq frame)
        put new Ship(0, 10, 10, 150, 0);
        foreach (Ship s) {
          if (s.x < 400) { put new Ship(s.frame+1, s.x+150, s.y, s.dx, s.dy) }
        }
    '''
    result = compile_source(src).run()

Each rule is lowered to Python source, so its causality metadata is
derived the way every rule's is (:mod:`repro.plan.analyse`) and
``program.check_causality()`` works on textual rules exactly as the
paper's compiler-to-SMT pipeline does.
"""

from repro.lang.compile import (
    CompileError,
    ReducerBox,
    compile_program,
    compile_source,
    lowered_sources,
)
from repro.lang.lexer import LangSyntaxError, tokenize
from repro.lang.parser import parse_expression, parse_program

__all__ = [
    "compile_source",
    "compile_program",
    "lowered_sources",
    "parse_program",
    "parse_expression",
    "tokenize",
    "CompileError",
    "ReducerBox",
    "LangSyntaxError",
]

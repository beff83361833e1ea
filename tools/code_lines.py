"""Size of the degenwave package, module by module.

    python3 tools/code_lines.py [package_dir]

For every module of the package (default: src/degenwave next to this
script) it prints three counts, and their totals:

  lines   physical lines, as `wc -l` counts them;
  code    lines that hold a token other than a docstring or a comment, so
          rewriting prose never changes the count;
  params  parameters of every `def` and `lambda`: positional, keyword-only,
          *args and **kwargs, self included.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that carry no code: layout, comments and the stream's ends
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of the docstrings of the module, its classes and its
    functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, False):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold a code token."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE and tok.start[0] not in docs:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def parameter_count(source: str) -> int:
    """The number of parameters of every def and lambda of source."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _FUNCTIONS):
            a = node.args
            count += (len(a.posonlyargs) + len(a.args) + len(a.kwonlyargs)
                      + (a.vararg is not None) + (a.kwarg is not None))
    return count


def module_counts(source: str) -> tuple[int, int, int]:
    """(lines, code lines, parameters) of one module's source."""
    return source.count("\n"), code_lines(source), parameter_count(source)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else \
        Path(__file__).resolve().parents[1] / "src" / "degenwave"
    paths = sorted(root.rglob("*.py"))
    if not paths:
        print(f"code_lines: no modules under {root}", file=sys.stderr)
        return 1
    print(f"{'module':<24}{'lines':>8}{'code':>8}{'params':>8}")
    totals = [0, 0, 0]
    for path in paths:
        counts = module_counts(path.read_text(encoding="utf-8"))
        totals = [a + b for a, b in zip(totals, counts)]
        name = path.relative_to(root).as_posix()
        print(f"{name:<24}" + "".join(f"{c:>8}" for c in counts))
    print(f"{'total':<24}" + "".join(f"{c:>8}" for c in totals))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

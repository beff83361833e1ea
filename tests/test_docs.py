"""The README names only package objects that exist, and its Quick start
commands parse."""

import importlib
import re
import shlex
from pathlib import Path

from degenwave.cli import make_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _resolve(dotted: str):
    # degenwave.<module>[.<name>...]: import the module, then walk the rest
    parts = dotted.split(".")
    obj = importlib.import_module(".".join(parts[:2]))
    for name in parts[2:]:
        obj = getattr(obj, name)
    return obj


def test_every_named_package_object_resolves():
    names = sorted(set(re.findall(r"\bdegenwave(?:\.[A-Za-z_]\w*)+",
                                  README.read_text(encoding="utf-8"))))
    assert names, "the README names no package objects"
    missing = []
    for name in names:
        try:
            _resolve(name)
        except (ImportError, AttributeError):
            missing.append(name)
    assert not missing, f"README names objects that do not exist: {missing}"


def test_quick_start_commands_parse():
    # parse only: each `degenwave <verb> ...` line of the Quick start block
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    block = section.split("```", 2)[1]
    lines = [ln for ln in block.splitlines() if ln.startswith("degenwave ")]
    assert lines, "the Quick start names no degenwave commands"
    parser = make_parser()
    for line in lines:
        try:
            args = parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            raise AssertionError(f"Quick start line does not parse: {line}")
        assert callable(args.func), line


def test_code_line_counter_skips_prose():
    # tools/code_lines.py (ROADMAP's size counts): docstrings, comments and
    # blank lines count 0; a string that is not a docstring is code
    import importlib.util

    path = README.parent / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    snippet = '''"""Module docstring,
over two lines."""

# a comment
def f(a, b=1, *args, c, **kw):
    """Function docstring."""
    x = """not a
docstring"""  # a trailing comment
    return lambda y, z: y + z


class C:
    """Class docstring."""

    def m(self, q):
        return q
'''
    # lines 5, 7, 8, 9, 12, 15 and 16 hold code; f has 5 parameters, the
    # lambda 2 and m 2 (self included)
    assert code_lines.module_counts(snippet) == (16, 7, 9)
    prose = '"""Only a docstring."""\n\n# and a comment\n'
    assert code_lines.module_counts(prose) == (3, 0, 0)

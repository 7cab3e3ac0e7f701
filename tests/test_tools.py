"""The repository's command-line tools under ``tools/``."""

import importlib.util
import os

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load("code_lines")


def _totals(capsys, *argv):
    # each printed (count, name), the total last
    assert code_lines.main(list(argv)) == 0
    return [(int(n), name) for n, name in (line.split() for line in
                                           capsys.readouterr().out.splitlines())]


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    text = '''"""Module docstring
over two lines."""

# a comment
x = 1  # a trailing comment


def f():
    """Function docstring."""
    return x
'''
    assert code_lines.code_lines(text) == 3


def test_code_lines_counts_each_line_of_a_statement():
    text = '''y = f(1,
      2,
      3)
s = """a string
that is assigned"""
'''
    assert code_lines.code_lines(text) == 5


def test_code_lines_directory_totals_its_files(tmp_path, capsys):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "b.py").write_text("b = 1\nc = 2\n")
    (pkg / "a.py").write_text('"""doc"""\na = 1\n')
    (pkg / "notes.txt").write_text("not python\n")
    (pkg / "sub").mkdir()
    by_dir = _totals(capsys, "--root", str(tmp_path), "pkg")
    one_by_one = _totals(capsys, "--root", str(tmp_path), "pkg/a.py", "pkg/b.py")
    assert by_dir == one_by_one == [(1, "pkg/a.py"), (2, "pkg/b.py"), (3, "total")]

"""make loc BASE=<rev>

Per-package line counts of ``src/repro`` at BASE (unpacked with ``git
archive | tar -x``, as ``tools/bench_ab.py`` does) and in this tree,
with deltas.  Two counts per package: raw lines, and code lines — a
line counts as code when a token other than a comment or a docstring
starts or continues on it, so blank lines, comments and docstrings are
excluded and reformatting a docstring moves nothing.
"""
import ast
import io
import os
import subprocess
import sys
import tempfile
import tokenize
from collections import Counter

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_line_numbers(source: str) -> set[int]:
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and body:
            first = body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - docstrings


def sources(tree: str):
    """``(package, path, source)`` of every module of ``tree``/src/repro."""
    root = os.path.join(tree, "src", "repro")
    for folder, _, files in sorted(os.walk(root)):
        relative = os.path.relpath(folder, root)
        package = "(top level)" if relative == "." else relative.split(os.sep)[0]
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as handle:
                    yield package, path, handle.read()


def count(tree: str) -> tuple[Counter, Counter]:
    """(raw, code) lines per top-level package of ``tree``/src/repro."""
    raw: Counter = Counter()
    code: Counter = Counter()
    for package, _, source in sources(tree):
        raw[package] += source.count("\n")
        code[package] += len(code_line_numbers(source))
    return raw, code


def main(base: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", base, "src"], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        before = count(tmp)
    after = count(os.getcwd())
    print(f"# src/repro lines, {base} -> working tree")
    print(f"{'package':14s} {'code':>22s} {'raw':>25s}")
    packages = sorted(set(before[0]) | set(after[0]))
    for package in [*packages, "total"]:
        cells = []
        for old, new in zip(before, after):
            a = sum(old.values()) if package == "total" else old[package]
            b = sum(new.values()) if package == "total" else new[package]
            cells.append(f"{a:7d} -> {b:7d} ({b - a:+5d})")
        print(f"{package:14s} {cells[1]}  {cells[0]}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: make loc BASE=<rev>")
    sys.exit(main(sys.argv[1]))

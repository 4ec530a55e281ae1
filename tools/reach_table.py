"""make reach

Which code lines of ``src/repro`` does anything outside ``tests/`` reach?
Runs 34 legs on a temporary copy of this tree — ten CLI legs (every
command ``make check`` runs plus ``figure --out``, ``query``, ``params``
and a binary-mode ``load``), five ``REPRO_CHECK=1`` legs (faults and
lockstep shards included), ``pytest bench``, the six examples and the
twelve ``benchmarks/bench_*.py`` — under a ``sys.setprofile`` hook
that notes every code object called, then prints code / unreached code
lines per package (code lines as ``tools/loc_table.py`` counts them) and
every function no leg called.  A function is reached when it was called
at least once; lines outside any function are reached when their module
was imported.  What is left is what only ``tests/`` (or nothing) calls.

The hook rides in on a ``sitecustomize.py`` put first on ``PYTHONPATH``,
so every interpreter a leg starts carries it.  Two things it has to know:
``pytest-benchmark`` pauses profilers around the function it times unless
``--benchmark-disable`` is given, and a forked worker (shard workers, the
sweep pool) leaves through ``os._exit``, past ``atexit`` — there the dump
is a ``multiprocessing.util.Finalize`` registered by a
``register_after_fork`` callback.  Call granularity, not line granularity:
an unreached branch inside a reached function is not reported.
"""
import ast
import glob
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from loc_table import code_line_numbers, sources  # noqa: E402

SITECUSTOMIZE = '''
import atexit, os, sys, threading
from multiprocessing import util

seen = set()


def hook(frame, event, arg, add=seen.add):
    if event == "call":
        add(frame.f_code)


def dump():
    root = os.environ["REPRO_REACH_SRC"]
    path = os.path.join(os.environ["REPRO_REACH_OUT"], f"{os.getpid()}.calls")
    with open(path, "a") as handle:
        for code in list(seen):
            filename = os.path.realpath(code.co_filename)
            if filename.startswith(root):
                handle.write(f"{filename}\\t{code.co_firstlineno}\\t{code.co_name}\\n")


def after_fork(_):
    util.Finalize(None, dump, exitpriority=0)


util.register_after_fork(hook, after_fork)
atexit.register(dump)
threading.setprofile(hook)
sys.setprofile(hook)
'''

PYTHON = sys.executable
CLI = [PYTHON, "-m", "repro.cli"]
TINY = ["--scale", "0.02", "--warmup", "30", "--measure", "20"]
CHECKED = {"REPRO_CHECK": "1"}


def legs(tmp: str) -> list[tuple[list[str], dict]]:
    """``(command, extra environment)`` per leg; ``tmp`` takes the outputs."""
    fig10, figc = f"{tmp}/fig10.jsonl", f"{tmp}/figc.jsonl"
    sharded = ["figure", "fig10", "--scale", "0.05", "--warmup", "60",
               "--measure", "40", "--shards", "4"]
    pytest = [PYTHON, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    return [
        ([*CLI, "figure", "fig10", "--values", "50", "200", *TINY,
          "--trace", fig10], {}),
        ([*CLI, "figure", "figc", "--values", "20", "60", "--scale", "0.02",
          "--warmup", "40", "--measure", "60", "--trace", figc], {}),
        ([*CLI, "trace-summary", figc], {}),
        ([*CLI, "check", "--seed", "0", "--queries", "600"], {}),
        ([*CLI, "load", "--spawn", "--count", "50", "--connections", "2",
          "--lockstep", "--expect-clean"], {}),
        ([*CLI, "load", "--spawn", "--count", "50", "--connections", "2",
          "--encoding", "binary", "--json"], {}),
        ([*CLI, *sharded, "--shard-backend", "process"], {}),
        ([*CLI, "figure", "fig12", "fig15", "--values", "3", "5", *TINY,
          "--workers", "2", "--out", f"{tmp}/figures.csv"], {}),
        ([*CLI, "query", "--region", "suburbia", "--k", "3"], {}),
        ([*CLI, "params"], {}),
        ([*CLI, "figure", "fig13", "--scale", "0.05", "--warmup", "150",
          "--measure", "100"], CHECKED),
        ([*CLI, "figure", "fig10", "--values", "50", "200", "--scale", "0.02",
          "--warmup", "150", "--measure", "100"], CHECKED),
        ([*CLI, "query", "--loss-rate", "0.2", "--retries", "2",
          "--peer-timeout", "0.05"], CHECKED),
        ([*CLI, *sharded, "--values", "100", "--exchange", "event"], CHECKED),
        ([*CLI, "figure", "figc", "--values", "20", "--scale", "0.02",
          "--warmup", "40", "--measure", "60"], CHECKED),
        ([*pytest, "bench"], {}),
        *(([PYTHON, path], {}) for path in sorted(glob.glob("examples/*.py"))),
        *(([*pytest, "--benchmark-disable", path], {})
          for path in sorted(glob.glob("benchmarks/bench_*.py"))),
    ]


def run_legs(tree: str, out: str) -> int:
    """Run every leg from ``tree`` with the hook on; returns how many failed."""
    src = os.path.join(tree, "src")
    with open(os.path.join(out, "sitecustomize.py"), "w") as handle:
        handle.write(SITECUSTOMIZE)
    base = dict(os.environ, PYTHONPATH=os.pathsep.join([out, src]),
                REPRO_REACH_OUT=out, REPRO_REACH_SRC=os.path.realpath(src))
    failed = 0
    all_legs = legs(out)
    for number, (command, extra) in enumerate(all_legs, start=1):
        started = time.perf_counter()
        done = subprocess.run(command, cwd=tree, env={**base, **extra},
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        label = " ".join([*(f"{k}={v}" for k, v in extra.items()),
                          *command[1:]]).replace(out, "$TMP")
        print(f"leg {number:2d}/{len(all_legs)} exit {done.returncode}"
              f" {time.perf_counter() - started:6.1f} s  {label}", flush=True)
        if done.returncode:
            failed += 1
            print(done.stdout[-2000:], file=sys.stderr)
    return failed


def called(out: str) -> set[tuple[str, int, str]]:
    """Every ``(file, first line, name)`` any process of any leg dumped."""
    codes = set()
    for path in glob.glob(os.path.join(out, "*.calls")):
        with open(path) as handle:
            for line in handle:
                filename, first, name = line.rstrip("\n").split("\t")
                codes.add((filename, int(first), name))
    return codes


def report(tree: str, codes: set[tuple[str, int, str]]) -> None:
    imported = {filename for filename, _, name in codes if name == "<module>"}
    starts = {(filename, first) for filename, first, _ in codes}
    total: Counter = Counter()
    missed: Counter = Counter()
    functions: list[str] = []
    for package, path, source in sources(tree):
        real = os.path.realpath(path)
        lines = code_line_numbers(source)
        total[package] += len(lines)
        if real not in imported:
            missed[package] += len(lines)
            functions.append(f"{os.path.relpath(path, tree)}: never imported"
                             f" ({len(lines)} lines)")
            continue
        defs = sorted(
            (min([node.lineno, *(d.lineno for d in node.decorator_list)]),
             node.end_lineno, node.name)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        owner: dict[int, tuple[int, str]] = {}  # line -> innermost def
        for first, last, name in defs:
            for line in range(first, last + 1):
                owner[line] = (first, name)
        unreached = Counter(
            owner[line] for line in lines
            if line in owner and (real, owner[line][0]) not in starts
        )
        missed[package] += sum(unreached.values())
        functions += [f"{os.path.relpath(path, tree)}:{first} {name} ({n} lines)"
                      for (first, name), n in sorted(unreached.items())]
    print(f"{'package':14s} {'code':>7s} {'unreached':>10s}")
    for package in [*sorted(total), "total"]:
        a = sum(total.values()) if package == "total" else total[package]
        b = sum(missed.values()) if package == "total" else missed[package]
        print(f"{package:14s} {a:7d} {b:10d}")
    print(f"# {len(functions)} unreached functions")
    print("\n".join(functions))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree, out = os.path.join(tmp, "tree"), os.path.join(tmp, "out")
        os.makedirs(out)
        for name in ("src", "bench", "benchmarks", "examples"):
            shutil.copytree(name, os.path.join(tree, name),
                            ignore=shutil.ignore_patterns("__pycache__", "out"))
        for name in ("pyproject.toml", "BENCHMARK.json"):
            shutil.copy(name, tree)
        failed = run_legs(tree, out)
        print(f"# src/repro reach: {failed} legs failed")
        report(tree, called(out))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

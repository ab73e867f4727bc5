"""Mutation testing of one panopose module, with the standard library only.

Each mutant changes one token of the module's source: it swaps ``<``/``<=``,
``>``/``>=``, ``==``/``!=``, ``+``/``-``, ``*``/``/`` or ``and``/``or``, or
changes one of the literals 0, 1, 2, 0.5, 0.0 and 1.0 (see ``SWAPS``). A
mutant that does not compile is skipped. Each sampled mutant is written into
a temporary copy of the checkout, where pytest runs with ``-x`` and the given
arguments. The mutant is killed when pytest fails, or runs ten times as long
as it does on the unmutated module, and survives when pytest passes. The
copy leaves the checkout untouched, and it puts the mutated ``src`` first on
the path, where ``pyproject.toml``'s ``pythonpath = ["src"]`` would put the
checkout's.

Run it from anywhere; pytest does not collect this file::

    python tests/mutants.py panopose.metrics --functions _match _ap_101 evaluate \\
        --sample 40 --seed 1 -- tests/test_metrics.py tests/test_coco.py

It prints the killed and survived counts, then each survivor as
``file:line: old -> new``, and apart from them each survivor that
``EQUIVALENT`` lists, with its reason. It exits 1 when a survivor is not
listed, and 0 otherwise. Progress goes to stderr.

``EQUIVALENT`` holds the mutants accepted as equivalent: each changes no
result that a test could check. An entry is keyed by the module, the
innermost function, the mutated line's stripped text and ``old -> new``, so
it holds when lines move; it does not tell apart two equal tokens of one line.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAPS = {
    "<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
    "+": "-", "-": "+", "*": "/", "/": "*", "and": "or", "or": "and",
    "0": "1", "1": "0", "2": "1", "0.5": "1.0", "0.0": "1.0", "1.0": "0.0",
}
EQUIVALENT = {
    ("panopose.metrics", "_optimal_cost", "u = [0.0] * (m + 1)", "0.0 -> 1.0"):
        "equal row potentials shift every reduced cost of a row alike, and the cost is read from the matrix",
    ("panopose.metrics", "_optimal_cost", "v = [0.0] * (n + 1)", "0.0 -> 1.0"):
        "equal column potentials shift every reduced cost alike, and the cost is read from the matrix",
    ("panopose.metrics", "_optimal_cost", "way = [0] * (n + 1)", "0 -> 1"):
        "way[j] is set whenever slack[j] first falls from inf, before the path is flipped back through it",
    ("panopose.geometry", "crop_transform", "np.where(w * out_h > h * out_w, w * (out_h / out_w), h) * padding)",
     "> -> >="):
        "at the exact aspect tie w * (out_h / out_w) is h up to rounding, so growing h to it leaves h",
    ("panopose.geometry", "_floored_spans", "wide = hi - lo >= _MIN_EXTENT", ">= -> >"):
        "at hi - lo == _MIN_EXTENT the floored span, mid -/+ _MIN_EXTENT / 2, is (lo, hi) up to rounding",
}


def _mutated(lines: list[str], mutant: tuple[int, int, str, str]) -> str:
    row, col, old, new = mutant
    line = lines[row - 1]
    return "".join(lines[:row - 1]) + line[:col] + new + line[col + len(old):] + "".join(lines[row:])


def _defs(source: str) -> list[ast.AST]:
    return [node for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _function(defs: list[ast.AST], row: int) -> str:
    """The name of the innermost of ``defs`` that holds line ``row``, or ``""``."""
    spans = [(node.lineno, node.name) for node in defs if node.lineno <= row <= node.end_lineno]
    return max(spans)[1] if spans else ""


def mutants(source: str, functions: list[str]) -> tuple[list[tuple[int, int, str, str]], int]:
    """The ``(line, column, old, new)`` mutants of ``source`` that compile,
    within the named functions when any are named, and the count of those
    skipped because they do not compile."""
    defs = _defs(source)
    missing = set(functions) - {node.name for node in defs}
    if missing:
        raise SystemExit(f"no function named {', '.join(sorted(missing))}")
    spans = [(node.lineno, node.end_lineno) for node in defs if node.name in functions]
    lines = source.splitlines(keepends=True)
    found, skipped = [], 0
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        row = tok.start[0]
        if tok.type not in (tokenize.OP, tokenize.NAME, tokenize.NUMBER) or tok.string not in SWAPS \
                or functions and not any(lo <= row <= hi for lo, hi in spans):
            continue
        mutant = (row, tok.start[1], tok.string, SWAPS[tok.string])
        try:
            compile(_mutated(lines, mutant), "<mutant>", "exec")
        except SyntaxError:
            skipped += 1
        else:
            found.append(mutant)
    return found, skipped


def _passes(copy: Path, args: list[str], timeout: float | None) -> tuple[bool, float]:
    """Whether pytest passes in ``copy`` within ``timeout`` seconds, and how
    long it ran."""
    path = [str(copy / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    # Without bytecode files, a mutant of the same size and second cannot
    # load the .pyc of the one before it.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args],
                            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        passed = proc.wait(timeout=timeout) == 0
    except subprocess.TimeoutExpired:
        passed = False
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)  # the run, if cut, and whatever it left running
    proc.wait()
    return passed, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                     epilog="Arguments after -- go to pytest (default: every test).")
    parser.add_argument("module", help="a module of src/, such as panopose.metrics")
    parser.add_argument("--functions", nargs="+", default=[], help="mutate only these functions")
    parser.add_argument("--sample", type=int, help="run this many mutants, drawn at random (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="the seed of the draw")
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args, pytest_args = parser.parse_args(argv[:split]), argv[split + 1:]

    relative = Path("src", *args.module.split(".")).with_suffix(".py")
    source = (ROOT / relative).read_text(encoding="utf-8")
    found, skipped = mutants(source, args.functions)
    sample = found if args.sample is None else random.Random(args.seed).sample(found, min(args.sample, len(found)))
    lines = source.splitlines(keepends=True)
    defs = _defs(source)
    survivors, listed = [], []
    with tempfile.TemporaryDirectory(prefix="panopose-mutants-") as tmp:
        copy = Path(tmp, "checkout")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", ".hypothesis", ".pytest_cache", "__pycache__", ".perfbench_*"))
        passed, seconds = _passes(copy, pytest_args, None)
        if not passed:
            raise SystemExit("pytest fails on the unmutated checkout; no mutant can be judged")
        for k, mutant in enumerate(sorted(sample), 1):
            (copy / relative).write_text(_mutated(lines, mutant), encoding="utf-8")
            survived, _ = _passes(copy, pytest_args, 10 * seconds)
            row, _, old, new = mutant
            where = f"{relative}:{row}: {old} -> {new}"
            reason = EQUIVALENT.get((args.module, _function(defs, row), lines[row - 1].strip(), f"{old} -> {new}"))
            print(f"[{k}/{len(sample)}] {'survived' if survived else 'killed'} {where}", file=sys.stderr, flush=True)
            if survived and reason is None:
                survivors.append(where)
            elif survived:
                listed.append(f"{where} ({reason})")
    print(f"killed {len(sample) - len(survivors) - len(listed)}, survived {len(survivors)}, equivalent "
          f"{len(listed)} of {len(sample)} sampled from {len(found)} mutants "
          f"({skipped} that do not compile skipped)")
    print("\n".join(survivors))
    if listed:
        print("\n".join(["listed as equivalent:", *listed]))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

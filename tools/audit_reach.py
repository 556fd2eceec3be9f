"""Call-reachability audit: which functions under ``src/repro`` does any
entry point of the repository actually run?

Run from anywhere:  python tools/audit_reach.py [--check] [--out FILE]

Every entry point in :func:`entry_points` (the end-to-end benchmark,
untraced and traced; the benchmark pytest items; the ``--quick`` bench
mains; the Fig. 11 measured sweep; the examples; the CLI; the API-doc
generator) runs in a subprocess whose ``PYTHONPATH`` starts with a
generated ``sitecustomize.py``. That hook records, through
``sys.setprofile`` and ``threading.setprofile``, the first call of every
code object whose file lies under ``repro/``, one append-only dump per
process, so subprocesses the entry points start are counted too. Every
output file an entry point writes goes into a temporary directory.

The report lists, per module, each function no entry point called
(outermost only: the functions nested in it are not listed again) with
its line count. A module whose functions are all unreached is a
*whole-module miss*. ``--check`` exits nonzero if a whole-module miss is
not on :data:`KEEP`, or if an entry point failed (a failed run
under-counts reach).
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

# Whole modules no entry point reaches that stay, each with its reason.
KEEP = {
    "repro/baselines/zion.py":
        "the Zion platform baseline of paper Section 3.1 (DESIGN.md "
        "section 1), asserted in tests/test_baselines.py",
    "repro/sharding/memory_validation.py":
        "safety check behind NeoTrainer.from_planner(device_memory_bytes=)",
    "repro/embedding/quantized.py":
        "training-side storage of a RepresentationPlan "
        "(NeoTrainer(representation_plan=)), asserted in "
        "tests/test_embedding_quantized.py",
}

# Loaded first in every audited process. Profile hooks see no calls made
# inside themselves, so recording costs one set lookup per call.
SITECUSTOMIZE = '''\
import os
import sys
import threading

_DUMP = {dump!r}
_MARK = os.sep + "repro" + os.sep
_seen = set()
_out = [None, None]


def _record(code):
    pid = os.getpid()
    if _out[0] != pid:  # first record, or a forked child
        _out[1] = os.open(os.path.join(_DUMP, f"{{pid}}.txt"),
                          os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        _out[0] = pid
    # unbuffered: a process that ends in os._exit loses nothing
    os.write(_out[1], f"{{code.co_filename}}\\t{{code.co_firstlineno}}\\n"
             .encode())


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            if _MARK in code.co_filename:
                _record(code)


sys.setprofile(_profile)
threading.setprofile(_profile)
'''


def entry_points(out_dir: str) -> List[Tuple[str, List[str]]]:
    """(name, argv) of every entry point; outputs go under ``out_dir``."""
    py = sys.executable

    def at(*parts: str) -> str:
        return os.path.join(REPO_ROOT, *parts)

    def out(name: str) -> str:
        return os.path.join(out_dir, name)

    e2e = at("benchmarks", "e2e", "run.py")
    points = [
        ("e2e --smoke", [py, e2e, "--smoke", "--out", out("e2e.json")]),
        ("e2e --smoke --trace 1",
         [py, e2e, "--smoke", "--trace", "1", "--out", out("e2e.json")]),
        # pytest-benchmark removes profile hooks while it times a
        # benchmark; disabled, it calls each benchmarked function once
        ("pytest benchmarks/",
         [py, "-m", "pytest", at("benchmarks"), "-q", "-m", "",
          "--benchmark-disable", "-p", "no:cacheprovider",
          "--basetemp", out("pytest")]),
    ]
    for bench in ("cache", "fleet", "fused_kernel", "online", "planner",
                  "rank_stacked", "recovery", "serving"):
        points.append((f"bench_{bench} --quick",
                       [py, at("benchmarks", f"bench_{bench}.py"), "--quick",
                        "--out", out(f"BENCH_{bench}.json")]))
    points.append(("bench_fig11_scaling --measure",
                   [py, at("benchmarks", "bench_fig11_scaling.py"),
                    "--ranks", "8,64", "--measure",
                    "--out", out("BENCH_fig11_sweep.json")]))
    for name in sorted(os.listdir(at("examples"))):
        if name.endswith(".py"):
            points.append((f"examples/{name}", [py, at("examples", name)]))
    points += [
        ("python -m repro", [py, "-m", "repro"]),
        ("python -m repro trace",
         [py, "-m", "repro", "trace", "--out", out("trace.json")]),
        # render() only: main() would overwrite docs/api.md
        ("tools/gen_api_docs.py",
         [py, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
          "import gen_api_docs; gen_api_docs.render()", at("tools")]),
    ]
    return points


def collect(points: Sequence[Tuple[str, List[str]]], work_dir: str,
            log=None) -> Tuple[Set[Tuple[str, int]], List[str]]:
    """Run ``points`` under the recording hook.

    Returns the reached ``(path relative to src/, first line)`` pairs
    and the names of the entry points that exited nonzero.
    """
    site, dump = (os.path.join(work_dir, d) for d in ("site", "dump"))
    os.makedirs(site, exist_ok=True)
    os.makedirs(dump, exist_ok=True)
    with open(os.path.join(site, "sitecustomize.py"), "w") as f:
        f.write(SITECUSTOMIZE.format(dump=dump))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [site, SRC, REPO_ROOT, os.environ.get("PYTHONPATH", "")]))
    failed = []
    for name, argv in points:
        if log:
            log(f"running {name}")
        done = subprocess.run(argv, cwd=work_dir, env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            failed.append(name)
            if log:
                # pytest reports its failures on stdout; a long report
                # would push the headline and gate lines out of the tail
                marked = [line for line in done.stdout.splitlines()
                          if line.startswith("== ") or "gate failed:" in line]
                log(f"  exit {done.returncode}: marked stdout lines:\n"
                    + "".join(f"    {line}\n" for line in marked)
                    + f"  stdout: {done.stdout[-1000:]}\n"
                    f"  stderr: {done.stderr[-1000:]}")
    reached = set()
    for name in os.listdir(dump):
        with open(os.path.join(dump, name)) as f:
            for line in f:
                path, first = line.rstrip("\n").rsplit("\t", 1)
                path = os.path.realpath(os.path.join(work_dir, path))
                if path.startswith(PACKAGE + os.sep):
                    reached.add((os.path.relpath(path, SRC), int(first)))
    return reached, failed


@dataclass(frozen=True)
class Function:
    qualname: str
    first_line: int  # first decorator line: what co_firstlineno holds
    lines: int


def functions(path: str) -> List[Tuple[Function, Tuple[Function, ...]]]:
    """Every function in ``path`` with the functions it is nested in."""
    with open(path) as f:
        tree = ast.parse(f.read(), filename=path)
    found = []

    def walk(node, prefix: str, enclosing: Tuple[Function, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] +
                            [d.lineno for d in child.decorator_list])
                fn = Function(prefix + child.name, first,
                              child.end_lineno - first + 1)
                found.append((fn, enclosing))
                walk(child, fn.qualname + ".<locals>.", enclosing + (fn,))
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", enclosing)
            else:
                walk(child, prefix, enclosing)

    walk(tree, "", ())
    return found


def audit(reached: Set[Tuple[str, int]]
          ) -> Dict[str, Tuple[int, List[Function]]]:
    """module -> (function count, outermost unreached functions)."""
    report = {}
    for root, dirs, files in os.walk(PACKAGE):
        dirs.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            module = os.path.relpath(os.path.join(root, name), SRC)
            found = functions(os.path.join(root, name))
            missed = {fn for fn, _ in found
                      if (module, fn.first_line) not in reached}
            report[module] = (len(found), [
                fn for fn, enclosing in found
                if fn in missed and not missed.intersection(enclosing)])
    return report


def whole_module_misses(report) -> List[str]:
    return [m for m, (count, missed) in report.items()
            if count and len(missed) == count]


def render(report, failed: Iterable[str] = ()) -> str:
    lines, total = [], 0
    for module, (count, missed) in report.items():
        if not missed:
            continue
        size = sum(fn.lines for fn in missed)
        total += size
        whole = " (whole module)" if len(missed) == count else ""
        lines.append(f"{module}: {len(missed)}/{count} functions "
                     f"unreached, {size} lines{whole}")
        lines += [f"    {fn.qualname}  L{fn.first_line}  {fn.lines} lines"
                  for fn in missed]
    lines.append(f"total unreached: {total} lines")
    for module in whole_module_misses(report):
        reason = KEEP.get(module)
        verdict = f"kept: {reason}" if reason else "NOT on the keep list"
        lines.append(f"whole-module miss: {module} -- {verdict}")
    lines += [f"entry point failed: {name}" for name in failed]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on a whole-module miss not on the keep "
                             "list, or on a failed entry point")
    parser.add_argument("--out", help="also write the report to FILE")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="audit_reach_") as work_dir:
        reached, failed = collect(
            entry_points(work_dir), work_dir,
            log=lambda msg: print(msg, file=sys.stderr, flush=True))
    report = audit(reached)
    text = render(report, failed)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    unkept = [m for m in whole_module_misses(report) if m not in KEEP]
    return 1 if args.check and (unkept or failed) else 0


if __name__ == "__main__":
    sys.exit(main())

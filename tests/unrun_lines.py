"""List the lines of ``src/g2forge`` that the program's own command lines
never run, and the functions they never enter.

A tool run by hand, not a test (pytest collects only ``test_*.py``):

    python tests/unrun_lines.py

It needs only the standard library.  In one process, under ``sys.settrace``
from before the package is imported, it runs ``verify --seed 7`` in JSON and
in text, every argv of ``tests/goldens/inspect_display.json``, every
``g2forge`` line of the README's ``sh`` blocks and ``triform --word-length``
0..5, from the repository root; an argv with ``--bless`` runs in a temporary
directory, since it writes ``tests/goldens/`` there.  A line is executable
when some code object of its module maps an instruction to it, and run when
a trace event reports it.  The report gives, per module, the unrun lines as
ranges, then the functions never entered, then the totals.
"""

import contextlib
import io
import json
import os
import re
import shlex
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "g2forge")


def argvs():
    """(argv, needs a scratch working directory) pairs, in run order."""
    out = [(["verify", "--seed", "7", "--format", fmt], False) for fmt in ("json", "text")]
    with open(os.path.join(ROOT, "tests", "goldens", "inspect_display.json"), encoding="utf-8") as fh:
        out += [(case["argv"], False) for case in json.load(fh)]
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        for block in re.findall(r"```sh\n(.*?)```", fh.read(), re.S):
            for line in block.splitlines():
                words = shlex.split(line, comments=True)
                if words[:1] == ["g2forge"]:
                    out.append((words[1:], "--bless" in words))
    out += [(["triform", "--word-length", str(n), "--format", "json"], False) for n in range(6)]
    return out


def code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from code_objects(const)


def executable(path):
    """The module's code objects and the lines they map instructions to."""
    with open(path, encoding="utf-8") as fh:
        codes = list(code_objects(compile(fh.read(), path, "exec")))
    lines = {line for code in codes for _, _, line in code.co_lines() if line}
    return codes, lines


def ranges(lines):
    out, start = [], None
    for n in sorted(lines):
        if start is None:
            start = end = n
        elif n == end + 1:
            end = n
        else:
            out.append(f"{start}-{end}" if end > start else str(start))
            start = end = n
    if start is not None:
        out.append(f"{start}-{end}" if end > start else str(start))
    return ", ".join(out)


def main():
    files = {os.path.join(SRC, name) for name in os.listdir(SRC) if name.endswith(".py")}
    run, entered = {path: set() for path in files}, set()

    def local(frame, event, arg):
        if event == "line":
            run[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in files:
            return None
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))
        return local

    sys.path.insert(0, os.path.dirname(SRC))
    with tempfile.TemporaryDirectory() as scratch_dir:
        sys.settrace(trace)
        try:
            from g2forge import cli

            for argv, scratch in argvs():
                os.chdir(scratch_dir if scratch else ROOT)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.run(argv)
                if code != 0:
                    sys.exit(f"g2forge {shlex.join(argv)} exited with {code}")
        finally:
            sys.settrace(None)
            os.chdir(ROOT)

    total_unrun = total_lines = 0
    never = []
    for path in sorted(files):
        codes, lines = executable(path)
        unrun = lines - run[path]
        name = os.path.basename(path)
        total_unrun += len(unrun)
        total_lines += len(lines)
        print(f"{name}: {len(unrun)} of {len(lines)} executable lines unrun")
        if unrun:
            print(f"  {ranges(unrun)}")
        never += [
            f"{name}:{code.co_firstlineno} {getattr(code, 'co_qualname', code.co_name)}"
            for code in codes
            if not code.co_name.startswith("<") and (path, code.co_firstlineno, code.co_name) not in entered
        ]
    print("functions never entered:")
    for item in never:
        print(f"  {item}")
    print(f"total: {total_unrun} of {total_lines} executable lines unrun; {len(never)} functions never entered")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run a list of qcoin command lines against two source trees and diff the results.

Usage:
    python3 tools/compare_outputs.py OLD_TREE NEW_TREE

A tree is a checkout whose ``src/`` holds the ``qcoin`` package, for
example a ``git archive`` export of a commit.  Each non-blank line of
``compare_commands.txt`` beside this script (``#`` starts a comment) holds
the arguments of one ``qcoin`` command.

Both sides run each command at the same absolute paths, in a temporary
directory WORK: ``WORK/tree`` is a symlink to the side's tree, and the
command's working directory ``WORK/run`` is made afresh from the files of
``compare_inputs/`` beside this script.  So printed paths, messages and
tracebacks read the same on both sides.  The exit code, stdout, stderr and
every file the command leaves in ``WORK/run`` are compared.  The script
prints one line per command, with the differences below it, and exits 1
if any command differs.  Standard library only.  Every command runs with
``PYTHONDONTWRITEBYTECODE=1``, so the trees stay clean, and under a 3 GB
address-space limit, so a command that tries to allocate far more fails
instead of exhausting the host.
"""

from __future__ import annotations

import argparse
import difflib
import os
import resource
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
MEMORY_LIMIT = 3 * 2**30  # bytes of address space per command
TIMEOUT_S = 600  # per command and side


def read_commands(path: Path) -> list[list[str]]:
    commands = []
    for line in path.read_text(encoding="utf-8").splitlines():
        args = shlex.split(line, comments=True)
        if args:
            commands.append(args)
    return commands


def read_tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_side(tree: Path, args: list[str], work: Path) -> dict:
    """Run ``qcoin ARGS`` from ``tree`` in a fresh ``work/run``; return what it left."""
    link = work / "tree"
    link.unlink(missing_ok=True)
    link.symlink_to(tree.resolve(), target_is_directory=True)
    run = work / "run"
    shutil.rmtree(run, ignore_errors=True)
    shutil.copytree(HERE / "compare_inputs", run)
    given = read_tree(run)
    env = dict(os.environ, PYTHONPATH=str(link / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "qcoin.cli", *args], cwd=run,
                          env=env, capture_output=True, timeout=TIMEOUT_S,
                          preexec_fn=limit_memory)
    files = {name: data for name, data in read_tree(run).items()
             if given.get(name) != data}
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "files": files}


def text_diff(label: str, old: bytes, new: bytes, limit: int = 12) -> list[str]:
    lines = list(difflib.unified_diff(
        old.decode("utf-8", "replace").splitlines(),
        new.decode("utf-8", "replace").splitlines(),
        f"old {label}", f"new {label}", n=0, lineterm=""))
    if len(lines) > limit:
        lines = lines[:limit] + [f"... {len(lines) - limit} more diff lines"]
    return lines


def differences(old: dict, new: dict) -> list[str]:
    out = []
    if old["exit"] != new["exit"]:
        out.append(f"exit code {old['exit']} -> {new['exit']}")
    for stream in ("stdout", "stderr"):
        if old[stream] != new[stream]:
            out += text_diff(stream, old[stream], new[stream])
    for name in sorted(old["files"].keys() | new["files"].keys()):
        if name not in new["files"]:
            out.append(f"file {name}: written only by old")
        elif name not in old["files"]:
            out.append(f"file {name}: written only by new")
        elif old["files"][name] != new["files"][name]:
            out += text_diff(name, old["files"][name], new["files"][name])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="source tree of the old side")
    parser.add_argument("new", type=Path, help="source tree of the new side")
    args = parser.parse_args(argv)
    for tree in (args.old, args.new):
        if not (tree / "src" / "qcoin").is_dir():
            parser.error(f"{tree} holds no src/qcoin")
    commands = read_commands(HERE / "compare_commands.txt")
    differing = 0
    with tempfile.TemporaryDirectory(prefix="qcoin-compare-") as tmp:
        for index, command in enumerate(commands, 1):
            old, new = (run_side(tree, command, Path(tmp))
                        for tree in (args.old, args.new))
            found = differences(old, new)
            differing += bool(found)
            status = "DIFF" if found else "same"
            print(f"{status} {index:3d} exit {old['exit']}/{new['exit']}  "
                  f"qcoin {shlex.join(command)}", flush=True)
            for line in found:
                print(f"         {line}")
    print(f"{len(commands) - differing} of {len(commands)} commands identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

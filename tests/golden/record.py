"""Record the digests of the golden CLI commands.

    PYTHONPATH=src python tests/golden/record.py

runs every line of commands.txt through fusionwb.cli.main in one process
and writes digests.txt: one "<sha256> <command>" line per command, the hash
taken over its exit code, its stdout and the file it names with --out.  The
corpus, golden and temp directories are written back as $D, $G and $T
before hashing, so the digests do not depend on where the checkout lives.
Stderr (timings, error messages) is not hashed.  After writing, it prints
on stderr each command whose digest changed and each command added or
removed, against the digests.txt it replaced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from collections import Counter
from pathlib import Path

from fusionwb.cli import main
from fusionwb.corpus import corpus_dir

HERE = Path(__file__).resolve().parent


def commands():
    lines = (HERE / "commands.txt").read_text().splitlines()
    return [ln for ln in lines if ln.strip() and not ln.startswith("#")]


def digests(tmp):
    """[(sha256 hex, command)] for each command, run with $T = tmp."""
    tokens = {"$D": str(corpus_dir()), "$G": str(HERE), "$T": str(tmp)}

    def untoken(text):
        for token, value in tokens.items():
            text = text.replace(value, token)
        return text.encode()

    out = []
    for line in commands():
        argv = line.split()
        for token, value in tokens.items():
            argv = [arg.replace(token, value) for arg in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        h = hashlib.sha256(f"exit {code}\n".encode())
        h.update(untoken(stdout.getvalue()))
        if "--out" in argv:
            h.update(b"--out\n")
            h.update(untoken(Path(argv[argv.index("--out") + 1]).read_text()))
        out.append((h.hexdigest(), line))
    return out


def _keyed(rows):
    """{(command, k): sha256} with k counting the command's earlier
    occurrences, so a command listed twice is compared occurrence by
    occurrence."""
    seen = Counter()
    keyed = {}
    for h, line in rows:
        keyed[line, seen[line]] = h
        seen[line] += 1
    return keyed


def changes(old, new):
    """["changed|added|removed: <command>"] taking the rows old to new."""
    old, new = _keyed(old), _keyed(new)
    out = [f"changed: {key[0]}" for key in new
           if key in old and old[key] != new[key]]
    out += [f"added: {key[0]}" for key in new if key not in old]
    out += [f"removed: {key[0]}" for key in old if key not in new]
    return out


if __name__ == "__main__":
    path = HERE / "digests.txt"
    old = [tuple(ln.split(" ", 1)) for ln in path.read_text().splitlines()]
    with tempfile.TemporaryDirectory() as tmp:
        rows = digests(tmp)
    path.write_text("".join(f"{h} {line}\n" for h, line in rows))
    print(f"recorded {len(rows)} digests", file=sys.stderr)
    for line in changes(old, rows):
        print(line, file=sys.stderr)

"""Record the digests of the golden CLI commands.

    PYTHONPATH=src python tests/golden/record.py

runs every line of commands.txt through fusionwb.cli.main in one process
and writes digests.txt: one "<sha256> <command>" line per command, the hash
taken over its exit code, its stdout and the file it names with --out.  The
corpus, golden and temp directories are written back as $D, $G and $T
before hashing, so the digests do not depend on where the checkout lives.
Stderr (timings, error messages) is not hashed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        rows = digests(tmp)
    (HERE / "digests.txt").write_text(
        "".join(f"{h} {line}\n" for h, line in rows))
    print(f"recorded {len(rows)} digests", file=sys.stderr)

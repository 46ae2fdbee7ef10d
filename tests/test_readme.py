"""Every line of the README's command block runs, in order, as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def readme_commands():
    """The command block under "## Command line": one entry per command,
    continuation lines joined, comments and blank lines dropped."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    lines = []
    for ln in block.replace("\\\n", " ").splitlines():
        ln = " ".join(ln.split())
        if ln and not ln.startswith("#"):
            lines.append(ln)
    return lines


def test_readme_commands_run(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    fusionwb = f"{shlex.quote(sys.executable)} -m fusionwb"
    commands = readme_commands()
    assert commands[0].startswith("D=")
    env["D"] = commands[0][2:]
    for line in commands[1:]:
        cmd = line.replace("/tmp/", f"{tmp_path}/")
        if cmd.startswith("fusionwb "):
            cmd = fusionwb + cmd[len("fusionwb"):]
        proc = subprocess.run(cmd, shell=True, cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=300)
        want = 1 if "v4_involution.fus" in line else 0
        assert proc.returncode == want, (line, proc.stderr)

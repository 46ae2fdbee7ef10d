"""The CLI's exit codes, stdout and --out files, byte for byte, against the
digests golden/record.py recorded (see golden/commands.txt)."""

from golden.record import HERE, digests


def test_golden_digests(tmp_path):
    want = [tuple(ln.split(" ", 1))
            for ln in (HERE / "digests.txt").read_text().splitlines()]
    got = digests(tmp_path)
    assert [line for _, line in got] == [line for _, line in want]
    changed = [line for (h, line), (w, _) in zip(got, want) if h != w]
    assert not changed

"""The CLI's exit codes, stdout and --out files, byte for byte, against the
digests golden/record.py recorded (see golden/commands.txt)."""

from collections import Counter

from golden.record import HERE, changes, commands, digests


def test_golden_digests(tmp_path):
    want = [tuple(ln.split(" ", 1))
            for ln in (HERE / "digests.txt").read_text().splitlines()]
    got = digests(tmp_path)
    assert [line for _, line in got] == [line for _, line in want]
    changed = [line for (h, line), (w, _) in zip(got, want) if h != w]
    assert not changed


def test_no_command_is_listed_twice():
    # a command listed twice runs twice for no more coverage
    repeated = [line for line, k in Counter(commands()).items() if k > 1]
    assert not repeated


def test_record_lists_changed_added_and_removed_commands():
    old = [("a", "x"), ("b", "y"), ("c", "x"), ("d", "z")]
    new = [("a", "x"), ("e", "y"), ("f", "x"), ("g", "w")]
    # the second "x" is matched with the second, not the first
    assert changes(old, new) == ["changed: y", "changed: x", "added: w",
                                 "removed: z"]

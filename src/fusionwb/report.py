"""Run reports: deterministic result text, with timings kept out of band.

The rendered report depends only on the inputs, so two identical runs give
byte-identical output; wall-clock timings are rendered separately for stderr.
"""

from __future__ import annotations

import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class RunReport:
    command: str
    lines: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    timings: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures

    def add(self, line=""):
        self.lines.append(line)

    def fail(self, line):
        self.failures.append(line)

    @contextmanager
    def step(self, name, budget=None):
        t0 = time.perf_counter()
        try:
            yield
        except Exception as exc:          # noqa: BLE001 - surfaced as failure
            origin = traceback.extract_tb(exc.__traceback__)[-1]
            self.fail(f"{name}: {type(exc).__name__}: {exc} "
                      f"({Path(origin.filename).name}:{origin.lineno})")
        finally:
            elapsed = time.perf_counter() - t0
            self.timings.append((name, elapsed, budget))
            if budget is not None and elapsed > budget:
                self.fail(f"{name}: took {elapsed:.2f}s, budget {budget:.0f}s")

    def render(self):
        out = [f"command: {self.command}"]
        out.extend(self.lines)
        for f in self.failures:
            out.append(f"FAIL {f}")
        out.append("status: " + ("ok" if self.ok else "FAILED"))
        return "\n".join(out) + "\n"

    def render_timings(self):
        out = []
        for name, secs, budget in self.timings:
            extra = f" budget {budget:.0f}s" if budget is not None else ""
            out.append(f"timing {name} {secs * 1000.0:.1f}ms{extra}")
        return "\n".join(out) + ("\n" if out else "")

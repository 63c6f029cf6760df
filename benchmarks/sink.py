"""An in-memory stand-in for sys.stdout that keeps only a digest of what it
is given: byte count, SHA-256, newline count, the number of lines that start
with PASS or FAIL, and the time of the first write."""

from __future__ import annotations

import hashlib
from time import perf_counter


class OutputSink:
    """Text stream that hashes and counts its input instead of storing it.

    Line prefixes are tested at the start of each write and after each
    newline inside it; print() writes a whole line per call, so a prefix is
    never split across writes in the CLI's output.
    """

    def __init__(self):
        self.bytes = 0
        self.lines = 0
        self.pass_lines = 0
        self.fail_lines = 0
        self.first_write = None  # perf_counter() at the first non-empty write
        self._sha = hashlib.sha256()
        self._at_line_start = True

    def write(self, text: str) -> int:
        if not text:
            return 0
        if self.first_write is None:
            self.first_write = perf_counter()
        data = text.encode("utf-8")
        self.bytes += len(data)
        self._sha.update(data)
        self.lines += text.count("\n")
        marked = "\n" + text if self._at_line_start else text
        self.pass_lines += marked.count("\nPASS ")
        self.fail_lines += marked.count("\nFAIL")
        self._at_line_start = text.endswith("\n")
        return len(text)

    def flush(self):
        pass

    def isatty(self) -> bool:
        return False

    def hexdigest(self) -> str:
        return self._sha.hexdigest()

"""Reference kernel: a fixed workload owned by the benchmark.

On a shared 2-core VM the host's speed changed by 20-50% over minutes,
so raw times of identical runs a few minutes apart disagreed by more
than any useful regression bound.  Every run therefore times a kernel
of interpreter work (string scanning, small objects, dicts, sorting,
like nanokit's layers) before its set-ups and passes, and end-to-end
times are reported scaled to a machine on which the kernel takes its
nominal time.  The kernel runs no nanokit
code, so a change to nanokit moves the scaled numbers as it moves the
raw ones; most of the host's drift cancels.  run.py prints the raw
numbers and the factors too.
"""

from __future__ import annotations

import random
import statistics
import time


class _Token:
    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value: str):
        self.kind = kind
        self.value = value


def _python_kernel(lines: list[str]) -> None:
    """Scan IRIs character by character, index them, sort them: the same
    kind of interpreter work (string scanning, small objects, dicts and
    sets, sorting) that nanokit's layers do."""
    tokens = []
    for line in lines:
        i, n = 0, len(line)
        while i < n:
            if line[i] == "<":
                j = line.index(">", i)
                tokens.append(_Token("iri", line[i + 1 : j]))
                i = j + 1
            else:
                i += 1
    index: dict[str, set[int]] = {}
    for k, token in enumerate(tokens):
        index.setdefault(token.value.rsplit("/", 1)[0], set()).add(k)
    tokens.sort(key=lambda t: (t.kind, t.value))


NOMINAL_S = 0.010  # the kernel's time on the reference machine


class Reference:
    def __init__(self):
        rng = random.Random(7)
        self._lines = [
            " ".join(
                f"<http://example.org/{''.join(rng.choice('abcdefgh') for _ in range(6))}/{rng.randrange(10**6)}>"
                for _ in range(3)
            ) + " ."
            for _ in range(1200)
        ]
        self.samples: dict[str, list[float]] = {"setup": [], "measure": []}

    def sample(self, phase: str, clock=time.perf_counter, repeats: int = 3) -> float:
        """Time the kernel with ``clock``, the clock of the phase's work.
        Returns this sample's factor (see ``factor``)."""
        times = []
        for _ in range(repeats):
            t0 = clock()
            _python_kernel(self._lines)
            times.append(clock() - t0)
        self.samples[phase] += times
        return NOMINAL_S / statistics.median(times)

    def factor(self, phase: str) -> float:
        """Nominal over the phase's median kernel time: multiply that
        phase's times by it, divide its rates by it."""
        return NOMINAL_S / statistics.median(self.samples[phase])

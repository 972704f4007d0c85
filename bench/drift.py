"""Host drift probe: one-second medians of a fixed pure-Python loop.

    python3 bench/drift.py 100

Prints each second's median loop time in ms, then the quartiles, minimum and
maximum.  On a quiet host the figures stay within a few percent of each
other; stretches of higher figures are slowdowns from outside the process.
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter


def loop() -> int:
    total = 0
    for i in range(100_000):
        total += i * i
    return total


def main(argv: list[str]) -> int:
    seconds = float(argv[0]) if argv else 60.0
    medians: list[float] = []
    window: list[float] = []
    start = window_start = perf_counter()
    while perf_counter() - start < seconds:
        t0 = perf_counter()
        loop()
        window.append((perf_counter() - t0) * 1e3)
        if perf_counter() - window_start >= 1.0:
            medians.append(statistics.median(window))
            window, window_start = [], perf_counter()
    print(" ".join(f"{m:.2f}" for m in medians))
    q1, q2, q3 = statistics.quantiles(medians, n=4)
    print(f"quartiles {q1:.2f} {q2:.2f} {q3:.2f}  min {min(medians):.2f}  "
          f"max {max(medians):.2f}  ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

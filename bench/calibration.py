"""Fixed reference tasks that measure how fast the machine is right now.

On a shared machine the same code can run 1.5 to 2 times slower for tens of
seconds when neighbours are busy, and CPU time slows with wall time, so
neither clock alone gives steady numbers. The benchmark therefore times a
reference task between its ops and reports op times scaled to the task's
nominal speed: a time of t seconds, measured in a run whose reference took
r seconds on average, is reported as t * (nominal_s / r) ** sensitivity.
The mean, not the median, is used because an op lasting many reference
lengths sees the machine's average speed.

No task runs patprob code, so a change to patprob cannot change them.
PYTHON_WORK does the same kind of work as patprob's hot paths (big-int shifts
and adds, a frozen dataclass normalised in __post_init__, dict writes).
NUMPY_START starts an interpreter that imports numpy, which tracks the
process start, loading and import costs that dominate a CLI call far better
than any in-process computation or a bare interpreter start does. Set-up is
scaled by the time a fresh interpreter takes to `import numpy`
(NUMPY_IMPORT_CODE), because set-up is mostly that import.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

_STEPS = 260


@dataclass(frozen=True)
class _Dyadic:
    """num / 2**exp with factors of 2 stripped from num."""

    num: int
    exp: int

    def __post_init__(self) -> None:
        num, exp = self.num, self.exp
        while exp and num and num % 2 == 0:
            num //= 2
            exp -= 1
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    def __add__(self, other: _Dyadic) -> _Dyadic:
        exp = max(self.exp, other.exp)
        return _Dyadic((self.num << (exp - self.exp)) + (other.num << (exp - other.exp)), exp)


def python_work() -> dict[int, int]:
    values = [_Dyadic(0, 0)] * 5
    bits = {}
    for k in range(5, _STEPS):
        v = values[-1] + values[-1] + _Dyadic(1, 5) + values[-3]
        values.append(_Dyadic(v.num, v.exp + 1))
        bits[k] = v.num.bit_length()
    return bits


def start_interpreter(code: str = "pass") -> None:
    # No timeout: with one, subprocess polls for the exit at doubling
    # intervals, and the measured time snaps to ~64 ms.
    subprocess.run([sys.executable, "-c", code], check=True)


def start_interpreter_with_numpy() -> None:
    start_interpreter("import numpy")


@dataclass(frozen=True)
class Reference:
    """A reference task, its duration on an unloaded machine, how many
    back-to-back runs make one measurement, and how strongly the ops it
    stands for slow down along with it (an exponent; 1 is in step)."""

    name: str
    run: Callable[[], object]
    nominal_s: float
    burst: int
    sensitivity: float

    def times(self) -> list[float]:
        times = []
        for _ in range(self.burst):
            started = perf_counter()
            self.run()
            times.append(perf_counter() - started)
        return times


# Nominal durations: the fast phase of a shared 2-vCPU Intel Xeon, Python
# 3.11. Only the scale of the reported times depends on them. A workload
# whose ops do other work than the reference may use a lower sensitivity
# (see run.REFERENCES). A CLI call is mostly an interpreter start plus
# `import numpy`, which on a contended machine slows two to three times as
# much as a bare start, so CLI calls move in step with NUMPY_START.
PYTHON_WORK = Reference("python_work", python_work, 0.0015, 4, 1.0)
INTERPRETER_START = Reference("interpreter_start", start_interpreter, 0.035, 1, 1.0)
NUMPY_START = Reference("numpy_start", start_interpreter_with_numpy, 0.09, 1, 1.0)

# Prints how long `import numpy` took inside a fresh interpreter; nominal
# value on the same machine.
NUMPY_IMPORT_CODE = "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"
NUMPY_IMPORT_S = 0.05

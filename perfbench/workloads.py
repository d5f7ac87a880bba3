"""The benchmark's workloads: which solves one pass runs.

This module imports nothing numeric, so the parent process can read it
without loading numpy before the thread variables are set.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

REL_TOLERANCE = 1e-6

# Set to 1 in the child's environment before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Case:
    """One solve of a pass: a built-in problem at its defaults.

    ``capture`` solves with ``capture_trace=True``; ``replay`` then also
    writes the trace, reads it back and verifies it.
    """

    problem: str
    size: int
    mask: str | None = None
    adaptivity: str = "none"
    capture: bool = False
    replay: bool = False

    @property
    def label(self) -> str:
        return f"{self.problem}-{self.size}-{self.mask or 'none'}-{self.adaptivity}"


_CAPTURED = (
    Case("saddle", 33, "pressure", "subselect-power", capture=True),
    Case("plaplace", 31, None, "randomized-power", capture=True),
)

# Why each workload exists is written down in README.md beside this file.
WORKLOADS = {
    "wide-window": (
        # Window m = 50 is the bidomain default; n = 8450.
        Case("bidomain", 65),
    ),
    "masked-sketch": (
        Case("saddle", 65, "pressure", "subselect-power"),
        Case("plaplace", 63, None, "randomized-power"),
        Case("bidomain", 33, None, "subselect-power"),
    ),
    # A round of the two captured solves takes about 0.13 s and replaying
    # their traces about 5 s. With one round per pass, solve_s had too few
    # samples to be steady, so a pass solves five rounds and replays the
    # traces of the last one.
    "traced-replay": _CAPTURED * 4 + tuple(replace(c, replay=True) for c in _CAPTURED),
}

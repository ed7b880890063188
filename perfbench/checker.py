"""Correctness checker shared by every benchmark workload.

An operation counts as failed when it raises, returns a non-finite or
non-positive resistance for distinct nodes, has two routes disagree by
more than ``REL_TOL``, gets a non-zero ``verify`` exit code, or yields a
current field whose Kirchhoff residual or path-drop mismatch is beyond
the bounds below. Checks inside an operation do not stop it, so a
failing operation costs the same time as a passing one.
"""

from __future__ import annotations

import math
from collections import Counter

# Route-agreement tolerance pinned by the test suite and the CLI default.
REL_TOL = 1e-10
# Worst node imbalance of a current field, divided by the injected current.
FIELD_RESIDUAL_BOUND = 1e-9
# Relative mismatch between a field's path drops and the closed form.
PATH_DROP_BOUND = 1e-9
# Identical nodes must come out within this many ohms of zero, times max(r, s).
ZERO_TOL = 1e-12

_MAX_REASONS = 20


def rel_dev(values) -> float:
    """(max - min) / max |value|, the CLI's route-disagreement measure."""
    values = list(values)
    scale = max(abs(v) for v in values)
    if scale == 0.0:
        return 0.0
    return (max(values) - min(values)) / scale


class Checker:
    """Counts attempted and failed operations and keeps the worst errors."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.max_rel_dev = 0.0
        self.field_residual_max = 0.0
        self.reasons: Counter[str] = Counter()
        self._op_failed = False

    def attempt(self, op) -> bool:
        """Run one operation; return True when it passed every check."""
        self.attempted += 1
        self._op_failed = False
        try:
            op(self)
        except Exception as exc:  # any error is a failed operation, never a crash
            self.fail(f"{type(exc).__name__}: {exc}")
        if self._op_failed:
            self.failed += 1
        return not self._op_failed

    def fail(self, reason: str) -> None:
        self._op_failed = True
        if len(self.reasons) < _MAX_REASONS or reason in self.reasons:
            self.reasons[reason[:200]] += 1

    def expect(self, ok: bool, reason: str) -> None:
        if not ok:
            self.fail(reason)

    def routes(self, label: str, values: dict, distinct: bool, scale: float) -> None:
        """Check the answers several routes gave for one node pair.

        ``scale`` is max(r, s) of the instance, used for identical nodes.
        """
        for route, value in values.items():
            if not math.isfinite(value):
                self.fail(f"{label}: {route} returned {value!r}")
                return
            if distinct and value <= 0.0:
                self.fail(f"{label}: {route} returned non-positive {value!r}")
                return
        if not distinct:
            worst = max(abs(v) for v in values.values())
            self.expect(worst <= ZERO_TOL * scale,
                        f"{label}: identical nodes gave {worst!r} ohms")
            return
        self.agree(label, values.values())

    def agree(self, label: str, values) -> None:
        dev = rel_dev(values)
        self.max_rel_dev = max(self.max_rel_dev, dev)
        self.expect(dev <= REL_TOL, f"{label}: routes disagree by {dev:.3e}")

    def exit_code(self, label: str, code: int) -> None:
        self.expect(code == 0, f"{label}: exit code {code}")

    def field(self, label: str, residual: float, injected: float,
              drops, reference: float) -> None:
        """Audit one current field against its bounds and the closed form."""
        share = residual / abs(injected)
        self.field_residual_max = max(self.field_residual_max, share)
        self.expect(math.isfinite(share) and share <= FIELD_RESIDUAL_BOUND,
                    f"{label}: Kirchhoff residual / J = {share:.3e}")
        self.expect(math.isfinite(reference) and reference > 0.0,
                    f"{label}: closed form returned {reference!r}")
        for drop in drops:
            dev = abs(drop - reference) / reference
            self.max_rel_dev = max(self.max_rel_dev, dev)
            self.expect(dev <= PATH_DROP_BOUND,
                        f"{label}: path drop off the closed form by {dev:.3e}")

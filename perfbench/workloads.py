"""The four benchmark workloads.

Each workload draws every input from ``random.Random(seed)``, builds its
instances in ``setup`` and then hands out rounds of operations. A round
has the same mix of instance classes for every seed, so medians taken
over whole rounds do not drift with the seed; the seed only moves sizes
within a class and picks the node pairs. Operations call the package
through module attributes at call time, so the traced run sees them.

Only the standard library is imported here: the set-up probe times the
package import, numpy's included, from a clean process.
"""

from __future__ import annotations

import contextlib
import io
import re
from fractions import Fraction
from random import Random

RATIOS = (0.5, 1.0, 3.0)  # r/s values, assigned by slot so each round has the same mix


def _spec(hn, rng: Random, rows: int, cols: int, ratio: float):
    """An instance with the given r/s; the seed only scales both resistances."""
    s = rng.uniform(0.5, 2.0)
    return hn.HammockSpec(rows, cols, s * ratio, s)


def _node(rng: Random, spec) -> tuple[int, int]:
    return rng.randint(1, spec.cols), rng.randint(1, spec.rows)


def _distinct_pair(rng: Random, spec):
    a = _node(rng, spec)
    b = _node(rng, spec)
    while b == a:
        b = _node(rng, spec)
    return a, b


def _scale(spec) -> float:
    return max(float(spec.r), float(spec.s))


def _label(spec, a, b) -> str:
    return f"{spec.rows}x{spec.cols} r={float(spec.r):.3g} s={float(spec.s):.3g} {a}->{b}"


class Workload:
    """Base: ``setup`` builds instances, ``round(i)`` lists the i-th ops.

    Each op is ``(kind, fn)``; ``fn(checker)`` runs one checked operation.
    ``kind`` is ``"cold"`` for the first query on a fresh instance and
    ``"warm"`` otherwise.
    """

    name = ""
    min_rounds = 1

    def __init__(self, seed: int) -> None:
        self.rng = Random(seed)

    def setup(self, hn) -> None:
        raise NotImplementedError

    def round(self, index: int) -> list:
        raise NotImplementedError


class PairsLarge(Workload):
    """Checked pair queries on 20 instances with 10^4..10^6 rows.

    Round 0 asks each instance once (cold: its decay table is built);
    later rounds ask the same instances again (warm). Classes are
    interleaved so every round holds four instances of each size class.
    """

    name = "pairs-large"
    min_rounds = 2
    # Row-count windows per class, in decades. The top class is 10^6 - i
    # for instance i, so peak memory does not move with the seed.
    LOG10_ROWS = ((4.0, 4.04), (4.48, 4.52), (4.98, 5.02), (5.48, 5.52))
    PER_CLASS = 4
    ASPECTS = (0.25, 1.0, 4.0)

    def setup(self, hn) -> None:
        self.hn = hn
        self.specs = []
        tables = set()  # (rows, r/s): the decay-table cache key
        for i in range(self.PER_CLASS):
            for j, window in enumerate(self.LOG10_ROWS + (None,)):
                ratio = RATIOS[(i + j) % len(RATIOS)]
                if window is None:
                    rows = 10 ** 6 - i
                else:
                    rows = round(10 ** self.rng.uniform(*window))
                    while (rows, ratio) in tables:  # keep every first query cold
                        rows = round(10 ** self.rng.uniform(*window))
                tables.add((rows, ratio))
                cols = max(2, round(rows * self.ASPECTS[i % len(self.ASPECTS)]))
                self.specs.append(_spec(hn, self.rng, rows, cols, ratio))

    def round(self, index: int) -> list:
        kind = "cold" if index == 0 else "warm"
        return [(kind, self._query(spec, *_distinct_pair(self.rng, spec)))
                for spec in self.specs]

    def _query(self, spec, a, b):
        hn = self.hn
        label, scale = _label(spec, a, b), _scale(spec)

        def op(checker) -> None:
            values = {"closed": hn.closed_form.resistance_general(spec, a, b).ohms,
                      "rt": hn.recurrence.resistance_rt(spec, a, b).ohms}
            checker.routes(label, values, True, scale)
        return op


class PairsBatch(Workload):
    """2048 warm pair queries per round on a ~100x100 and a ~28x600 instance.

    One pair in 16 is an identical node, two share a row and two share a
    column. Every query runs closed, rt and reduced spectral. Each round
    asks the same pairs again.
    """

    name = "pairs-batch"
    POOL = 1024  # pairs per instance

    def setup(self, hn) -> None:
        self.hn = hn
        rng = self.rng
        self.specs = [_spec(hn, rng, rng.randint(96, 104), rng.randint(96, 104), 1.0),
                      _spec(hn, rng, rng.randint(24, 32), rng.randint(560, 640), 3.0)]
        self.pools = [[self._pair(spec, i) for i in range(self.POOL)]
                      for spec in self.specs]
        for spec in self.specs:  # fill the decay-table and eigensystem caches
            self._query(spec, (1, 1), (spec.cols, spec.rows))(None)

    def _pair(self, spec, index: int):
        rng = self.rng
        kind = index % 16
        a = _node(rng, spec)
        if kind == 0:
            return a, a
        while True:
            if kind in (1, 2):
                b = (rng.randint(1, spec.cols), a[1])
            elif kind in (3, 4):
                b = (a[0], rng.randint(1, spec.rows))
            else:
                b = _node(rng, spec)
            if b != a:
                return a, b

    def round(self, index: int) -> list:
        return [("warm", self._query(spec, *pool[slot]))
                for slot in range(self.POOL)
                for spec, pool in zip(self.specs, self.pools)]

    def _query(self, spec, a, b):
        hn = self.hn
        label, scale = _label(spec, a, b), _scale(spec)

        def op(checker) -> None:
            values = {"closed": hn.closed_form.resistance_general(spec, a, b).ohms,
                      "rt": hn.recurrence.resistance_rt(spec, a, b).ohms,
                      "spectral": hn.spectral.resistance_spectral(spec, a, b).ohms}
            if checker is not None:
                checker.routes(label, values, a != b, scale)
        return op


class Fields(Workload):
    """Audited current fields on five shapes from 300x300 to 2000x2000.

    Two shapes are elongated. The shapes do not depend on the seed, so
    peak memory does not either: the seed picks node pairs, the current
    and the resistance scale. The mode-transform cache is cold in round 0
    only, and 2000x500 shares its transform with 2000x2000.
    """

    name = "fields"
    SHAPES = ((300, 300, 0.5), (500, 1500, 3.0), (1000, 1000, 1.0),
              (2000, 500, 0.5), (2000, 2000, 1.0))  # rows, cols, r/s

    def setup(self, hn) -> None:
        self.hn = hn
        self.specs = [_spec(hn, self.rng, rows, cols, ratio)
                      for rows, cols, ratio in self.SHAPES]

    def round(self, index: int) -> list:
        return [("warm", self._audit(spec, *_distinct_pair(self.rng, spec),
                                     self.rng.uniform(0.5, 2.0)))
                for spec in self.specs]

    def _audit(self, spec, a, b, injected: float):
        hn = self.hn
        label = _label(spec, a, b)

        def op(checker) -> None:
            rec = hn.recurrence
            field = rec.reconstruct_currents(spec, a, b, injected)
            residual = rec.kirchhoff_residual(field)
            drops = rec.potential_path_check(field)
            reference = hn.closed_form.resistance_general(spec, a, b).ohms
            checker.field(label, residual, injected, drops, reference)
        return op


class Crosscheck(Workload):
    """A round is one sweep of 20 checked operations: a CLI verify run per
    (r, s) pair, the hub queries of each small instance on the dense
    oracles, and one cold eigensystem build per large instance.

    The first build clears the eigensystem cache, so every sweep builds
    its ten ~2000x2000 eigensystems cold and holds them until the next
    sweep. Hub queries stay within the default dense caps. Short
    operations give each slot's fastest repeat more chances to miss
    other load on the machine than three long ones would.
    """

    name = "crosscheck"
    RS = ((1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (Fraction(1, 2), 1))
    VERIFY_SAMPLES = 16  # pairs per instance in each verify run
    FLOAT_SHAPES = ((8, 16), (12, 12), (16, 8), (14, 14))
    RATIONAL_SHAPES = ((3, 6), (5, 5), (6, 4))

    def setup(self, hn) -> None:
        self.hn = hn
        rng = self.rng
        self.rs = rng.sample(self.RS, 3)
        # Sizes are fixed per slot, so cost and peak memory do not move
        # with the seed; the seed picks resistances and nodes.
        self.float_specs = [_spec(hn, rng, rows, cols, RATIOS[i % len(RATIOS)])
                            for i, (rows, cols) in enumerate(self.FLOAT_SHAPES)]
        self.rational_specs = [
            hn.HammockSpec(rows, cols, Fraction(rng.randint(1, 4), rng.randint(1, 4)),
                           Fraction(rng.randint(1, 4), rng.randint(1, 4)))
            for rows, cols in self.RATIONAL_SHAPES]
        self.eigen_specs = [_spec(hn, rng, 1995 + i, 2005 - i, RATIOS[i % len(RATIOS)])
                            for i in range(10)]

    def round(self, index: int) -> list:
        rng = self.rng
        ops = [self._verify(float(r), float(s), rng.randrange(2 ** 31)) for r, s in self.rs]
        ops += [self._hubs(spec, self._hub_pairs(spec))
                for spec in self.float_specs + self.rational_specs]
        ops += [self._cold_eigensystem(spec, [_distinct_pair(rng, spec) for _ in range(2)],
                                       clear=i == 0)
                for i, spec in enumerate(self.eigen_specs)]
        return [("warm", op) for op in ops]

    def _hubs(self, spec, pairs):
        hn = self.hn
        arithmetic = "rational" if isinstance(spec.r, Fraction) else "float"

        def op(checker) -> None:
            for a, b in pairs:
                dense = hn.oracle.resistance_dense(spec, a, b, arithmetic).ohms
                eigen = hn.oracle.resistance_eigen_full(spec, a, b).ohms
                checker.routes(_label(spec, a, b),
                               {arithmetic: dense, "eigen": eigen}, True, _scale(spec))
        return op

    def _cold_eigensystem(self, spec, pairs, clear: bool):
        hn = self.hn

        def op(checker) -> None:
            if clear:
                # No fallback: if the cache is gone or renamed this raises,
                # and the operation fails rather than silently building warm.
                hn.spectral.eigen_system.cache_clear()
            for a, b in pairs:
                values = {"spectral": hn.spectral.resistance_spectral(spec, a, b).ohms,
                          "closed": hn.closed_form.resistance_general(spec, a, b).ohms}
                checker.routes(_label(spec, a, b), values, True, _scale(spec))
        return op

    def _hub_pairs(self, spec):
        node = _node(self.rng, spec)
        return [("O", node), (node, "OP"), ("O", "OP")]

    def _verify(self, r: float, s: float, seed: int):
        argv = ["verify", "--max-M", "5", "--max-N", "5", "--r", repr(r), "--s", repr(s),
                "--samples", str(self.VERIFY_SAMPLES), "--seed", str(seed)]
        cli = self.hn.cli

        def op(checker) -> None:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            checker.exit_code(f"verify r={r} s={s}", code)
            found = re.search(r"max deviation (\S+)", out.getvalue())
            if found is None:
                checker.fail(f"verify r={r} s={s}: no summary line")
            else:
                checker.max_rel_dev = max(checker.max_rel_dev, float(found.group(1)))
        return op


WORKLOADS = {cls.name: cls for cls in (PairsLarge, PairsBatch, Fields, Crosscheck)}

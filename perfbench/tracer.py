"""Span tracing around amcheck's layer boundaries, from outside the program.

Each layer's public functions are wrapped at the place their caller looks
them up (``amcheck.cli.load_model``, ``amcheck.convert.minimize``, ...), so
the trace follows whatever the command-line front end does.  Spans stay in
memory until the run writes them out.  Work the tracer does itself, such as
counting positions, is recorded as a ``trace`` span so that it never lands
in a layer's self time.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

# (module, attribute, span name): the lookup sites on the check and
# solve-game paths, in pipeline order.
WRAPPED = (
    ("amcheck.cli", "load_model", "model.load"),
    ("amcheck.cli", "parse_formula", "formula.parse"),
    ("amcheck.cli", "build_closure", "formula.closure"),
    ("amcheck.cli", "convert", "convert"),
    ("amcheck.convert", "induced_effectivity", "convert.induce"),
    ("amcheck.convert", "minimize", "convert.minimize"),
    ("amcheck.cli", "game_verdicts", "mcgame"),
    ("amcheck.mcgame", "build_game_cgf", "mcgame.build"),
    ("amcheck.mcgame", "build_game_ef", "mcgame.build"),
    ("amcheck.mcgame", "zielonka_solve", "mcgame.solve"),
    ("amcheck.cli", "import_pgsolver", "mcgame.import"),
    ("amcheck.cli", "zielonka_solve", "mcgame.solve"),
    ("amcheck.cli", "fixpoint_verdicts", "localfp"),
)

# Per-layer metric fed by each span's self time.
SELF_METRIC = {
    "cli": "cli.self_s",
    "model.load": "model.load_s",
    "formula.parse": "formula.parse_s",
    "formula.closure": "formula.closure_s",
    "convert": "convert.self_s",
    "convert.induce": "convert.induce_s",
    "convert.minimize": "convert.minimize_s",
    "mcgame": "mcgame.self_s",
    "mcgame.build": "mcgame.build_s",
    "mcgame.solve": "mcgame.solve_s",
    "mcgame.import": "mcgame.import_s",
    "localfp": "localfp.check_s",
    "trace": "trace.self_s",
}

SUMMED_COUNTS = (
    "model.bytes", "model.grand_moves", "formula.closure_nodes",
    "convert.coalitions", "convert.sets_before", "convert.sets_after",
    "mcgame.positions", "mcgame.edges", "localfp.pairs",
)
MAX_COUNTS = ("formula.max_priority", "mcgame.max_priority")


def _family_sets(frame) -> int:
    return sum(len(family) for per_state in frame.effectivity.values() for family in per_state.values())


def _count_game(counts, game) -> None:
    counts["mcgame.positions"] += len(game)
    counts["mcgame.edges"] += sum(map(len, game.successors))
    counts["mcgame.max_priority"] = max(counts["mcgame.max_priority"], game.max_priority)


def _count(name, args, result, counts) -> None:
    if name == "model.load":
        counts["model.bytes"] += os.path.getsize(args[0])
        if result.kind == "cgf":
            for w in result.states:
                moves = 1
                for c in result.move_counts[w]:
                    moves *= c
                counts["model.grand_moves"] += moves
    elif name == "formula.closure":
        counts["formula.closure_nodes"] += len(result)
        counts["formula.max_priority"] = max(counts["formula.max_priority"], result.max_priority)
    elif name == "convert.induce":
        counts["convert.coalitions"] += len(next(iter(result.effectivity.values()), {}))
        counts["convert.sets_before"] += _family_sets(result)
    elif name == "convert.minimize":
        counts["convert.sets_after"] += _family_sets(result)
    elif name in ("mcgame.build", "mcgame.import"):
        _count_game(counts, result[0])
    elif name == "localfp":
        model, closure = args[0], args[1]
        counts["localfp.pairs"] += len(model.states) * len(closure)


class Tracer:
    """Records spans as [name, start, end, parent, query, engine]; parent is
    the index of the enclosing span, or -1 for a query's root span."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._query = None
        self._engine = None
        self._restore: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._query, self._engine])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name))
            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, original, name: str):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            bookkeeping = self._open("trace")
            try:
                _count(name, args, result, self.counts)
            finally:
                self._close(bookkeeping)
            return result

        return traced

    def query(self, qid: str, engine: str, call):
        """Run call() as one query under a root ``cli`` span."""
        self._query, self._engine = qid, engine
        idx = self._open("cli")
        try:
            return call()
        finally:
            self._close(idx)
            self._query = self._engine = None

    def layer_metrics(self, first_span: int = 0) -> dict[str, float]:
        """Self time per layer metric over spans[first_span:], the counts
        gathered since the last reset, and the traced query wall time."""
        spans = self.spans[first_span:]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= first_span:
                child_time[parent - first_span] += end - start
        metrics: dict[str, float] = {m: 0.0 for m in SELF_METRIC.values()}
        engines: dict[str, float] = defaultdict(float)
        query_s = 0.0
        for (name, start, end, parent, _, engine), inner in zip(spans, child_time):
            metrics[SELF_METRIC[name]] += (end - start) - inner
            if name == "cli":
                query_s += end - start
                engines[engine] += end - start
        metrics["trace.query_s"] = query_s
        for key in SUMMED_COUNTS + MAX_COUNTS:
            metrics[key] = self.counts.get(key, 0)
        for engine in ("cgf-game", "cgf-local", "ef-game", "ef-local"):
            metrics[f"engine_s.{engine}"] = engines.get(engine, 0.0)
        return metrics

    def reset_counts(self) -> None:
        self.counts = defaultdict(int)

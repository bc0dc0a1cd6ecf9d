"""Spans around calls into qbaker's public functions, recorded from outside.

``Tracer.install`` wraps each function in ``LAYERS`` and rebinds every
``qbaker.*`` module attribute that holds the original object, because some
modules bind their helpers with ``from ... import``.  A span records its
layer, op id, parent span, start and duration; self time is the duration
minus the time covered by child spans.  Generator functions are timed over
each resumption, so a span covers the work done inside the generator and
not the consumer's.  A layer missing from the program is reported as absent
(zero calls), not as an error.

Run as a script, it executes the qbaker CLI under a tracer and writes the
spans and counters to a JSON file when the command ends::

    python3 perfbench/tracing.py SPANS.json OP_ID -- encrypt --manifest ...
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, function) pairs whose calls become spans.
LAYERS = (
    ("baker", "enumerate_admissible"),
    ("baker", "permutation_table"),
    ("chaos", "generate_sequences"),
    ("keystream", "derive_seed"),
    ("keystream", "key_table"),
    ("images", "read_manifest"),
    ("images", "pack"),
    ("images", "unpack"),
    ("images", "write_pgm"),
    ("cipher", "encrypt"),
    ("cipher", "decrypt"),
    ("cipher", "derive_schedule"),
    ("cipher", "scramble_stage1"),
    ("cipher", "scramble_stage2"),
    ("cipher", "diffuse"),
    ("cipher", "write_ciphertext"),
    ("cipher", "read_ciphertext"),
    ("circuit", "synthesize"),
    ("sim", "to_permutation"),
    ("sim", "baker_permutation"),
    ("sim", "equivalence"),
    ("sim", "equivalence_sweep"),
)


def _schedule_counts(sched, key, *_args, **_kwargs) -> dict[str, int]:
    """Draws made and distinct (partition, iterations) tables the schedule needs."""
    if key.mode == "simplified":
        draws = 2  # one draw per stage; positions are ignored
    else:
        draws = sched.s1_part.size + sched.s2_part.size
    needed = sum(
        len(set(zip(part.ravel().tolist(), iters.ravel().tolist())))
        for part, iters in ((sched.s1_part, sched.s1_iter), (sched.s2_part, sched.s2_iter))
    )
    return {"cipher.schedule_draws": draws, "cipher.tables_needed": needed}


def _gate_counts(circ, *_args, **_kwargs) -> dict[str, int]:
    return {"circuit.gates_emitted": len(circ.gates)}


# Counters derived from a layer's public return value and arguments.
COUNTERS = {
    "cipher.derive_schedule": _schedule_counts,
    "circuit.synthesize": _gate_counts,
}


class Span:
    __slots__ = ("name", "op", "parent", "start", "dur", "child")

    def __init__(self, name: str, op: str, parent: "Span | None"):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = time.perf_counter()
        self.dur = 0.0
        self.child = 0.0  # time covered by direct children

    def as_row(self, index: dict[int, int]) -> list:
        parent = index[id(self.parent)] if self.parent is not None else -1
        return [self.name, self.op, parent, self.start, self.dur, self.child]


class Tracer:
    def __init__(self):
        self.op = ""
        self.spans: list[Span] = []
        self.counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[Span] = []

    # -- recording --------------------------------------------------------

    def _enter(self, span: Span) -> float:
        self._stack.append(span)
        return time.perf_counter()

    def _leave(self, span: Span, t0: float):
        elapsed = time.perf_counter() - t0
        self._stack.pop()
        span.dur += elapsed
        if span.parent is not None:
            span.parent.child += elapsed

    def _new_span(self, name: str) -> Span:
        span = Span(name, self.op, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        return span

    def _count(self, name: str, result, args, kwargs):
        derive = COUNTERS.get(name)
        if derive is None:
            return
        try:
            counts = derive(result, *args, **kwargs)
        except (AttributeError, TypeError):
            return  # the layer's return value changed shape: counter absent
        for key, value in counts.items():
            self.counters[self.op][key] += int(value)

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                span = self._new_span(name)
                inner = fn(*args, **kwargs)
                while True:
                    t0 = self._enter(span)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._leave(span, t0)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._new_span(name)
            t0 = self._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(span, t0)
            self._count(name, result, args, kwargs)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every layer present; returns the names of absent layers."""
        importlib.import_module("qbaker.cli")  # loads every qbaker module
        absent = []
        for module_name, func_name in LAYERS:
            name = f"{module_name}.{func_name}"
            module = importlib.import_module(f"qbaker.{module_name}")
            original = getattr(module, func_name, None)
            if original is None:
                absent.append(name)
                continue
            wrapped = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "qbaker" or mod_name.startswith("qbaker.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
        return absent

    # -- output -----------------------------------------------------------

    def dump(self) -> dict:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return {
            "spans": [s.as_row(index) for s in self.spans],
            "counters": {op: dict(c) for op, c in self.counters.items()},
        }


def layer_totals(dumps) -> dict[str, float]:
    """Sum per-layer time, self time, calls and counters over trace dumps.

    Keys are ``<module>.<function>.{s,self_s,calls}`` plus the counter names.
    Every layer in ``LAYERS`` is present, with zeros when it never ran.
    """
    totals: dict[str, float] = defaultdict(float)
    for module_name, func_name in LAYERS:
        for stat in ("s", "self_s", "calls"):
            totals[f"{module_name}.{func_name}.{stat}"] = 0.0
    for dump in dumps:
        for name, _op, _parent, _start, dur, child in dump["spans"]:
            totals[f"{name}.s"] += dur
            totals[f"{name}.self_s"] += dur - child
            totals[f"{name}.calls"] += 1
        for counts in dump["counters"].values():
            for key, value in counts.items():
                totals[key] += value
    return dict(totals)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracing.py SPANS.json OP_ID -- <qbaker arguments>", file=sys.stderr)
        return 2
    out, op, cli_args = Path(argv[0]), argv[1], argv[3:]
    tracer = Tracer()
    tracer.install()
    tracer.op = op
    from qbaker import cli

    try:
        return cli.main(cli_args)
    finally:
        out.write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Spans around calls into the package's layers, installed from outside.

Each traced function is replaced by a wrapper everywhere its name is
bound: in the defining module and in every module or class that imported
it by name (`from .sets import union_all`).  A wrapper records one span
(name, start, end, parent) per call in flat arrays and adds the call's
size to the span's counters.  A call made while the innermost open span
already has the same name (say `normalize` inside `union_all`) is folded
into that span, so each operation is counted once.

Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter


def _listed_first(args, kwargs):
    """Materialize the first argument, an iterable that may be a generator."""
    items = list(args[0])
    return (items,) + tuple(args[1:]), kwargs, items


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self.stack: list[int] = []

    def wrap(self, name: str, fn, counter: str | None = None, size=None, prepare=None):
        """A traced stand-in for `fn`.

        `size(args)` gives the amount added to `name.counter` per call;
        `prepare(args, kwargs)` may rewrite the arguments first and returns
        (args, kwargs, sized) where `sized` is what `size` measures.
        """
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        key = f"{name}.{counter}" if counter else None
        if key:
            self.counters.setdefault(key, 0)
        span_name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, counters = self.stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and span_name[stack[-1]] == nid:
                return fn(*args, **kwargs)
            if prepare is not None:
                args, kwargs, sized = prepare(args, kwargs)
            else:
                sized = args
            if key:
                counters[key] += size(sized)
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start[idx] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def summary(self) -> dict[str, float | int]:
        """Per span name: calls and self seconds, plus every counter."""
        n = len(self.name)
        child = [0.0] * n
        dur = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, float | int] = {}
        for nm in self.names:
            out[f"{nm}.calls"] = 0
            out[f"{nm}.self_s"] = 0.0
        for i in range(n):
            nm = self.names[self.name[i]]
            out[f"{nm}.calls"] += 1
            out[f"{nm}.self_s"] += dur[i] - child[i]
        out.update(self.counters)
        return out

    def count_parents(self, child_name: str, parent_name: str) -> int:
        """Number of `parent_name` spans with at least one `child_name` child."""
        cid = self.names.index(child_name)
        pid = self.names.index(parent_name)
        return len({
            p
            for i, p in enumerate(self.parent)
            if self.name[i] == cid and p >= 0 and self.name[p] == pid
        })

    def dump(self, path) -> None:
        """Write every span as JSON: names plus parallel span columns."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "parent": self.parent.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                },
                fh,
            )


def _replace_everywhere(original, replacement) -> int:
    """Rebind every package-module global that refers to `original`."""
    hits = 0
    for modname, mod in list(sys.modules.items()):
        if modname.partition(".")[0] != "intervalgames" or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    return hits


def _wrap_function(tracer: Tracer, module, fname: str, name: str, **kw) -> None:
    original = getattr(module, fname)
    if _replace_everywhere(original, tracer.wrap(name, original, **kw)) == 0:
        raise RuntimeError(f"{module.__name__}.{fname} is bound nowhere")


def _wrap_method(tracer: Tracer, cls, meth: str, name: str, **kw) -> None:
    setattr(cls, meth, tracer.wrap(name, cls.__dict__[meth], **kw))


def _wrap_bot_methods(tracer: Tracer, module, base, methods, layer: str) -> None:
    for cls in vars(module).values():
        if inspect.isclass(cls) and issubclass(cls, base):
            for meth in methods:
                if meth in cls.__dict__:
                    _wrap_method(tracer, cls, meth, f"{layer}.{meth}")


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of `sets`, `covers`, `engine`,
    `one_strategies` and `two_strategies` (which must be imported)."""
    from intervalgames import covers, engine, one_strategies, sets, two_strategies

    comps = lambda rs: len(rs.components)  # noqa: E731

    # sets
    _wrap_function(
        tracer, sets, "normalize", "sets.normalize", counter="components_in",
        size=len, prepare=_listed_first,
    )
    _wrap_function(
        tracer, sets, "union_all", "sets.normalize", counter="components_in",
        size=lambda rsets: sum(comps(rs) for rs in rsets), prepare=_listed_first,
    )
    for meth in ("union", "intersect", "subtract"):
        _wrap_method(
            tracer, sets.RSet, meth, "sets.combine", counter="endpoints",
            size=lambda a: 2 * (comps(a[0]) + comps(a[1])),
        )
    _wrap_method(tracer, sets.RSet, "is_subset", "sets.subset")
    for fname in ("is_discrete", "is_disjoint"):
        _wrap_function(
            tracer, sets, fname, "sets.discrete", counter="members",
            size=lambda a: len(a[0]),
        )

    # covers
    _wrap_method(
        tracer, covers.Cover, "__post_init__", "covers.build", counter="members",
        size=lambda a: len(a[0].members),
    )
    _wrap_function(tracer, covers, "ball_cover", "covers.ball_cover")
    _wrap_function(tracer, covers, "window_supremum", "covers.window_supremum")
    for meth in ("members_touching", "members_containing_point", "refinement_witnesses"):
        _wrap_method(tracer, covers.Cover, meth, "covers.query")

    # engine
    _wrap_function(
        tracer, engine, "validate_cover", "engine.validate_cover", counter="members",
        size=lambda a: len(a[0].members if isinstance(a[0], covers.Cover) else a[0]),
    )
    _wrap_function(
        tracer, engine, "referee_step", "engine.referee_step",
        counter="family_members", size=lambda a: len(a[2]),
    )
    _wrap_function(tracer, engine, "_adjudicate", "engine.adjudicate")
    _wrap_method(tracer, engine.Transcript, "write_jsonl", "engine.transcript")

    # strategies
    _wrap_bot_methods(
        tracer, one_strategies, one_strategies.OneBot,
        ("next_cover", "observe", "limit_cover"), "one_strategies",
    )
    _wrap_bot_methods(
        tracer, two_strategies, two_strategies.TwoBot,
        ("respond", "at_limit"), "two_strategies",
    )

"""Spans around the calls into each bewc module's public functions.

The wrappers replace module attributes (``bewc.equivocation.rank_profile``
and so on).  A module's own functions look each other up in the module's
globals, and the other modules call through ``module.function``, so both
kinds of call go through the wrapper.  A name bound elsewhere with
``from .x import y`` would not; the coverage check in ``Tracer.missing``
makes that show as an error instead of a silent zero.

Each call opens a span (name, start, end, parent).  Spans are folded into
per-name totals as they close: ``s`` is the summed duration and ``self_s``
the duration minus the time the span's child spans cover.  The benchmark
is single-threaded, so one stack holds the open spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

# Traced function -> workloads on which it must record at least one call.
# The end-to-end metric each one should move is listed in README.md.
LAYERS = {
    "cli.main": ("gap-table", "exact", "session"),
    "experiments.family_sweep": ("gap-table",),
    "experiments.ensemble_study": ("gap-table",),
    "experiments.exhaustive_search": ("search",),
    "experiments.simulate_session": ("session",),
    "equivocation.mc_equivocation": ("gap-table",),
    "equivocation.rank_profile": ("gap-table", "exact", "search"),
    "equivocation.exact_equivocation": ("gap-table", "exact"),
    "equivocation.curve": ("exact",),
    "equivocation.achievability_gap": ("gap-table", "exact"),
    "codes.from_generator": ("search",),
    "codes.enumerate_subspaces": ("search",),
    "codes.random_base": ("gap-table",),
    "coset.build_encoder": ("session",),
    "coset.encode": ("session",),
    "coset.decode": ("session",),
    "gf2.rank": ("search",),
    "gf2.null_space": ("search",),
    "gf2.vec_mat_mul": ("session",),
}

# Work counted per call, as (metric name, argument name, count from argument).
WORK = {
    "equivocation.mc_equivocation": ("trials", "trials", lambda trials: trials),
    "equivocation.rank_profile": ("patterns", "code", lambda code: 1 << code.n),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s")

    def __init__(self, name: str, start: float, parent: "Span | None") -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0


class Stat:
    __slots__ = ("calls", "s", "self_s", "work")

    def __init__(self) -> None:
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.work = 0


class Tracer:
    """Installs span wrappers on the bewc modules for the life of a `with`."""

    def __init__(self) -> None:
        self.stats = {name: Stat() for name in LAYERS}
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for name in LAYERS:
            mod_name, fn_name = name.split(".")
            mod = importlib.import_module(f"bewc.{mod_name}")
            fn = getattr(mod, fn_name)  # a missing layer fails here, loudly
            self._saved.append((mod, fn_name, fn))
            setattr(mod, fn_name, self._wrap(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for mod, fn_name, fn in reversed(self._saved):
            setattr(mod, fn_name, fn)
        self._saved.clear()

    def _open(self, name: str) -> Span:
        span = Span(name, 0.0, self._stack[-1] if self._stack else None)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        dur = span.end - span.start
        st = self.stats[span.name]
        st.s += dur
        st.self_s += dur - span.child_s
        if span.parent is not None:
            span.parent.child_s += dur

    def _wrap(self, name: str, fn):
        st = self.stats[name]
        work = WORK.get(name)
        sig = inspect.signature(fn)

        if inspect.isgeneratorfunction(fn):
            # Time spent producing each item, inside the generator's next().
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                st.calls += 1
                it = fn(*args, **kwargs)
                while True:
                    span = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(span)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st.calls += 1
            if work is not None:
                _, arg, count = work
                st.work += count(sig.bind(*args, **kwargs).arguments[arg])
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def counts(self) -> dict[str, int]:
        """Call and work counts; these repeat exactly for the same inputs."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            if name in WORK:
                out[f"{name}.{WORK[name][0]}"] = st.work
        return out

    def missing(self, workload: str) -> list[str]:
        """Layers that must be reached on this workload but saw no call."""
        return [n for n, wls in LAYERS.items() if workload in wls and not self.stats[n].calls]

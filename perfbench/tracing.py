"""Layer tracing installed from outside groupmatch.

Every wrapper replaces a public name with a function that times the call and
hands it on unchanged:

* a ``TestRegistry`` whose ``welch_t`` and ``anderson_darling`` wrap the
  built-in kernels (passed through the public ``registry=`` argument, and
  returned by ``cli._registry`` for the in-process CLI);
* ``CriteriaEvaluator.evaluate``;
* ``solution_rank`` as ``search`` imports it;
* the search entry points, as ``search`` and ``harness`` name them;
* ``generate_dataset``, ``run_experiment_grid``, ``load_dataset`` and
  ``cli.main``.

Spans (name, start, end, parent) are kept at the run, operation and
search-call boundaries.  The evaluator, rank and kernel boundaries are
crossed millions of times, so they only add to per-site counters.  Each
site's self time is its busy time minus the busy time of the wrapped calls
made inside it.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

from groupmatch import cli, criteria, dataset, harness, search, stats, synthgen
from groupmatch.errors import UndefinedTestError

SEARCH_ENTRIES = ("random_search", "greedy_search", "lookahead_search", "exhaustive_search")


@dataclass
class Site:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    undefined: int = 0
    results: list = field(default_factory=list)   # (args, kwargs, result)


class Tracer:
    def __init__(self):
        self.sites: dict[str, Site] = {}
        self.spans: list[dict] = []
        self._child_time: list[float] = []   # one slot per open wrapped call
        self._open_spans: list[int] = []

    def site(self, name: str) -> Site:
        return self.sites.setdefault(name, Site())

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans.append({"name": name, "parent": parent, "start": time.perf_counter()})
        self._open_spans.append(index)
        try:
            yield
        finally:
            self._open_spans.pop()
            self.spans[index]["end"] = time.perf_counter()

    def wrap(self, name: str, fn, *, span: bool = False, keep_results: bool = False):
        site = self.site(name)
        stack = self._child_time

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            started = time.perf_counter()
            try:
                with self.span(name) if span else contextlib.nullcontext():
                    result = fn(*args, **kwargs)
            except UndefinedTestError:
                site.undefined += 1
                raise
            finally:
                elapsed = time.perf_counter() - started
                inner = stack.pop()
                site.calls += 1
                site.busy += elapsed
                site.self_time += elapsed - inner
                if stack:
                    stack[-1] += elapsed
            if keep_results:
                site.results.append((args, kwargs, result))
            return result

        return wrapper

    def registry(self) -> stats.TestRegistry:
        """A registry whose built-in tests run through timed kernels."""
        reg = stats.TestRegistry(include_builtin=False)
        welch = self.wrap("stats.welch", stats.welch_t_p)
        reg.register(stats.TestFunction("welch_t", "two_sample", lambda s: welch(s[0], s[1])))
        reg.register(stats.TestFunction(
            "anderson_darling", "k_sample", self.wrap("stats.ad", stats.anderson_darling_p)
        ))
        return reg

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer boundary for the duration of the block; yields the
        traced registry."""
        registry = self.registry()
        load = self.wrap("dataset.load", dataset.load_dataset)
        generate = self.wrap("synthgen.generate", synthgen.generate_dataset, keep_results=True)
        patches = [
            (criteria.CriteriaEvaluator, "evaluate",
             self.wrap("criteria.evaluate", criteria.CriteriaEvaluator.evaluate)),
            (search, "solution_rank", self.wrap("criteria.rank", search.solution_rank)),
            (dataset, "load_dataset", load),
            (cli, "load_dataset", load),
            (cli, "main", self.wrap("cli.main", cli.main, span=True)),
            (cli, "_registry", lambda: registry),
            (harness, "run_experiment_grid",
             self.wrap("harness.grid", harness.run_experiment_grid, span=True,
                       keep_results=True)),
            (synthgen, "generate_dataset", generate),
            (harness, "generate_dataset", generate),
        ]
        for entry in SEARCH_ENTRIES:
            wrapped = self.wrap(f"search.{entry}", getattr(search, entry),
                                span=True, keep_results=True)
            patches += [(search, entry, wrapped), (harness, entry, wrapped)]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, value in patches:
                setattr(owner, attr, value)
            yield registry
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

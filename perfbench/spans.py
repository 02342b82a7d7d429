"""In-memory span tracer around the public names of the exhaz layers.

A span records its name, start, end and parent.  Calls that happen
thousands of times per replicate (likelihood evaluations, per-patient
life-table queries, the excess-time inversion) are *leaves*: each is folded
into a call count, seconds and a rejection count on the span that encloses
it instead of being stored, so a traced replicate keeps a few dozen spans.
A span's self time is its duration minus the time its child spans and
leaves cover.

``instrument(tracer)`` swaps wrappers in for the module attributes the
pipeline looks up at call time and restores the originals on exit; nothing
under ``src/`` is edited.  Spans opened below an ``estimation.fit`` span
inherit its model, so every stage is keyed by M1, M2 or M3.
"""

from __future__ import annotations

import contextlib
import math
import time
from collections import defaultdict

from exhaz import estimation, simulation
from exhaz.errors import NonFiniteLikelihood
from exhaz.lifetable import LifeTable

_clock = time.perf_counter

# Likelihood leaves: their call counts are the optimizer's evaluations.
EVAL_LEAVES = ("likelihoods.loglik", "likelihoods.loglik_and_grad")
# Optimizer stages inside one fit, by span name.
STAGES = ("estimation.cda_warm_start", "estimation.lbfgsb", "estimation.nelder_mead")
_MINIMIZE_SPAN = {"L-BFGS-B": "estimation.lbfgsb", "Nelder-Mead": "estimation.nelder_mead"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "model", "leaves", "child_s", "attrs")

    def __init__(self, name, start, parent, model):
        self.name = name
        self.start = start
        self.end = math.nan
        self.parent = parent  # index into Tracer.spans, or -1
        self.model = model
        self.leaves = {}  # leaf name -> [calls, seconds, rejected]
        self.child_s = 0.0  # seconds covered by child spans and leaves
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Spans of the current replicate (or setup), drained after each one."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, model: str | None = None):
        parent = self._stack[-1] if self._stack else -1
        if model is None and parent >= 0:
            model = self.spans[parent].model
        sp = Span(name, 0.0, parent, model)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        sp.start = _clock()
        try:
            yield sp
        finally:
            sp.end = _clock()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].child_s += sp.end - sp.start

    def leaf(self, name: str, seconds: float, rejected: bool) -> None:
        sp = self.spans[self._stack[-1]]
        rec = sp.leaves.get(name)
        if rec is None:
            rec = sp.leaves[name] = [0, 0.0, 0]
        rec[0] += 1
        rec[1] += seconds
        rec[2] += rejected
        sp.child_s += seconds

    def drain(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("drain() inside an open span")
        spans, self.spans = self.spans, []
        return spans


def _leaf(tracer: Tracer, name: str, fn, rejected=None):
    """Wrap ``fn`` as a leaf that records every call, whatever it raises.

    A call counts as rejected when it raises NonFiniteLikelihood or when
    ``rejected(result)`` holds.
    """

    def wrapped(*args, **kwargs):
        rej = False
        t0 = _clock()
        try:
            out = fn(*args, **kwargs)
            rej = rejected is not None and rejected(out)
            return out
        except NonFiniteLikelihood:
            rej = True
            raise
        finally:
            tracer.leaf(name, _clock() - t0, rej)

    return wrapped


def _no_gradient(out) -> bool:
    """loglik_and_grad rejects a point by returning (-inf, None)."""
    return out[1] is None


def _fit_span(tracer: Tracer, fn):
    def wrapped(model, *args, **kwargs):
        with tracer.span("estimation.fit", model=model) as sp:
            res = fn(model, *args, **kwargs)
            sp.attrs["n_evals"] = res.n_evals
            return res

    return wrapped


def _span(tracer: Tracer, name: str, fn):
    def wrapped(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapped


def _minimize_span(tracer: Tracer, fn):
    def wrapped(*args, method=None, **kwargs):
        with tracer.span(_MINIMIZE_SPAN[method]) as sp:
            res = fn(*args, method=method, **kwargs)
            sp.attrs["nit"] = int(getattr(res, "nit", 0))
            return res

    return wrapped


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the pipeline's layer calls through ``tracer`` while active.

    A name the package no longer has raises AttributeError before anything
    is wrapped, so a renamed or moved layer fails the traced run instead of
    reading 0.
    """
    wrappers = [
        (simulation, "inverse_excess_survival",
         lambda f: _leaf(tracer, "gh_model.inverse_excess_survival", f)),
        (LifeTable, "other_cause_time_inverse",
         lambda f: _leaf(tracer, "lifetable.other_cause_time_inverse", f)),
        (LifeTable, "cum_hazard_increment",
         lambda f: _leaf(tracer, "lifetable.cum_hazard_increment", f)),
        (LifeTable, "rate_at", lambda f: _leaf(tracer, "lifetable.rate_at", f)),
        (estimation, "loglik", lambda f: _leaf(tracer, "likelihoods.loglik", f)),
        (estimation, "loglik_and_grad",
         lambda f: _leaf(tracer, "likelihoods.loglik_and_grad", f, rejected=_no_gradient)),
        (estimation, "fit", lambda f: _fit_span(tracer, f)),
        (estimation, "cda_warm_start", lambda f: _span(tracer, "estimation.cda_warm_start", f)),
        (estimation, "minimize", lambda f: _minimize_span(tracer, f)),
    ]
    originals = [(owner, attr, getattr(owner, attr), wrap) for owner, attr, wrap in wrappers]
    try:
        for owner, attr, original, wrap in originals:
            setattr(owner, attr, wrap(original))
        yield tracer
    finally:
        for owner, attr, original, _ in originals:
            setattr(owner, attr, original)


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and self seconds of one drained replicate or setup.

    Keys: ``<span>.s`` (self seconds) and ``<span>.calls`` for each span
    name; ``<leaf>.{calls,s,rejected}`` for each leaf; ``<stage>.evals``
    (likelihood calls made directly in the stage) for each optimizer stage;
    ``estimation.lbfgsb.nit``; and, per model, ``estimation.fit.{s,evals}.<M>``
    (inclusive; evals is ``FitResult.n_evals``) and
    ``estimation.fit.other.{s,evals}`` (self seconds and likelihood calls of
    ``fit`` outside the stages).  Every likelihood call is counted where it
    happens, so stage and other evals of a fit add up to its ``n_evals``
    plus the two calls that give ``loglik`` and ``loglik_comparable``, less
    any eval that failed before it reached the likelihood.
    """
    out: dict[str, float] = defaultdict(float)
    for sp in spans:
        name = "estimation.fit.other" if sp.name == "estimation.fit" else sp.name
        out[f"{name}.s"] += sp.self_s
        out[f"{name}.calls"] += 1
        for leaf, (calls, secs, rej) in sp.leaves.items():
            out[f"{leaf}.calls"] += calls
            out[f"{leaf}.s"] += secs
            out[f"{leaf}.rejected"] += rej
        evals = sum(sp.leaves.get(k, (0,))[0] for k in EVAL_LEAVES)
        if sp.name in STAGES or sp.name == "estimation.fit":
            out[f"{name}.evals"] += evals
        if sp.name == "estimation.lbfgsb":
            out["estimation.lbfgsb.nit"] += sp.attrs["nit"]
        if sp.name == "estimation.fit":
            out[f"estimation.fit.s.{sp.model}"] += sp.duration
            out[f"estimation.fit.evals.{sp.model}"] += sp.attrs["n_evals"]
    return dict(out)


def span_rows(spans: list[Span]) -> list[list]:
    """Stored spans as ``[name, model, start, end, parent]`` rows."""
    return [[sp.name, sp.model, sp.start, sp.end, sp.parent] for sp in spans]

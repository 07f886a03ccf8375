"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of ``skellam_fields`` where the calling
module looks them up (``fractional_field.wright_tracked``, not
``specfun.wright_tracked``), records one span per call, counts series terms
by wrapping the iterable handed to the series core, counts Philox words by
reading every stream's counter after each op, and restores every patched
attribute when :meth:`Tracer.installed` exits.  Nothing inside the package is
changed.

Spans are recorded only while an op is open (``Tracer.op >= 0``), so the
correctness checks the benchmark runs between ops never reach the trace.
"""

from __future__ import annotations

import contextlib
import importlib
import threading
import time
from collections import defaultdict

SERIES = "series"
SHARDED = "verification.sample_sharded"
SHARD = "verification.shard"
CLI = "cli"

# (module, attribute, span name).  The module is the one whose globals the
# caller resolves the name in; the span name is "<layer>.<group>".
PATCHES = (
    ("cli", "main", CLI),
    ("cli", "srf_pmf_table", "skellam_field.srf_pmf_table"),
    ("cli", "fprf_pmf", "fractional_field.fprf_pmf"),
    ("cli", "fsrf1_pmf", "fractional_field.fsrf1_pmf"),
    ("cli", "fsrf2_pmf", "fractional_field.fsrf2_pmf"),
    ("cli", "fsrf3_pmf", "fractional_field.fsrf3_pmf"),
    ("cli", "fprf_moments", "fractional_field.moments"),
    ("cli", "fsrf1_moments", "fractional_field.moments"),
    ("cli", "fsrf2_moments", "fractional_field.moments"),
    ("cli", "fsrf3_moments", "fractional_field.moments"),
    ("cli", "gsrf_moments", "skellam_field.gsrf_moments"),
    ("cli", "rl_integral_moments", "field_integrals.moments"),
    ("cli", "prf_integral_cf", "field_integrals.cf"),
    ("cli", "levy_integral_cf", "field_integrals.cf"),
    ("cli", "fprf_sample", "fractional_field.sample"),
    ("cli", "fsrf1_sample", "fractional_field.sample"),
    ("cli", "fsrf2_sample", "fractional_field.sample"),
    ("cli", "fsrf3_sample", "fractional_field.sample"),
    ("cli", "gsrf_count", "skellam_field.gsrf_count"),
    ("cli", "sample_poisson", "sampling.poisson"),
    ("cli", "rl_integral_sample", "field_integrals.rl_integral_sample"),
    ("fractional_field", "fprf_moments", "fractional_field.moments"),
    ("fractional_field", "singular_cov_integral", "fractional_field.moments"),
    ("fractional_field", "fprf_sample", "fractional_field.sample"),
    ("fractional_field", "fsrf1_sample", "fractional_field.sample"),
    ("fractional_field", "fsrf2_sample", "fractional_field.sample"),
    ("fractional_field", "fsrf3_sample", "fractional_field.sample"),
    ("fractional_field", "fprf_sample_pair", "fractional_field.fprf_sample_pair"),
    ("fractional_field", "wright_tracked", "specfun.wright_tracked"),
    ("fractional_field", "mittag_leffler3", "specfun.mittag_leffler3"),
    ("fractional_field", "sample_inverse_subordinator", "sampling.inverse_subordinator"),
    ("fractional_field", "sample_inverse_subordinator_path",
     "sampling.inverse_subordinator_path"),
    ("fractional_field", "sum_series", SERIES),
    ("fractional_field", "sum_series_tracked", SERIES),
    ("specfun", "sum_series", SERIES),
    ("specfun", "sum_series_tracked", SERIES),
    ("skellam_field", "srf_pmf", "skellam_field.srf_pmf"),
    ("skellam_field", "bessel_i", "specfun.bessel_i"),
    ("skellam_field", "gsrf_count", "skellam_field.gsrf_count"),
    ("skellam_field", "lattice_sample", "skellam_field.lattice_sample"),
    ("skellam_field", "gsrf_compound_sample", "skellam_field.gsrf_compound_sample"),
    ("field_integrals", "rl_integral_sample", "field_integrals.rl_integral_sample"),
    ("field_integrals", "gsrf_integral_sample", "field_integrals.gsrf_integral_sample"),
    ("sampling", "sample_poisson", "sampling.poisson"),
    ("verification", "sample_sharded", SHARDED),
)

class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "gen_s", "terms", "workers")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.gen_s = 0.0   # series spans: time spent producing terms
        self.terms = 0     # series spans: terms consumed
        self.workers = 0   # sample_sharded spans: worker count


def philox_words(bit_generator) -> int:
    """64-bit words a Philox bit generator has handed out so far."""
    st = bit_generator.state
    c = st["state"]["counter"]
    counter = sum(int(w) << (64 * i) for i, w in enumerate(c))
    return 4 * counter + int(st["buffer_pos"]) - 4


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list:
    """Self time of every span: its duration minus the union of its children.

    A series span's children all run inside the term iterator, so the series
    core's own time is its duration minus the iterator time; the iterator's
    time outside child spans belongs to the module that built the terms, which
    is the nearest ancestor that is not itself a series span.
    """
    children = defaultdict(list)
    for i, sp in enumerate(spans):
        if sp.parent >= 0:
            children[sp.parent].append(i)
    own = [0.0] * len(spans)
    for i, sp in enumerate(spans):
        covered = union_length([(spans[c].start, spans[c].end) for c in children[i]])
        if sp.name != SERIES:
            own[i] += (sp.end - sp.start) - covered
            continue
        own[i] += (sp.end - sp.start) - sp.gen_s
        owner = sp.parent
        while owner >= 0 and spans[owner].name == SERIES:
            owner = spans[owner].parent
        if owner >= 0:
            own[owner] += sp.gen_s - covered
    return own


class Tracer:
    """Collects spans and counts for ops run while it is installed."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self.max_noise = 0.0  # largest noise bound a pmf-level sum returned
        self.substream_calls = 0
        self.words = 0
        self._streams: dict = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list = []

    # -- spans -------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, parent: int | None = None) -> int:
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else -1
        sp = Span(name, time.perf_counter(), parent, self.op)
        with self._lock:  # shard spans open on pool threads
            self.spans.append(sp)
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self._stack().pop()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def _timed_terms(self, terms, sp: Span):
        it = iter(terms)
        clock = time.perf_counter
        while True:
            t0 = clock()
            try:
                item = next(it)
            except StopIteration:
                sp.gen_s += clock() - t0
                return
            sp.gen_s += clock() - t0
            sp.terms += 1
            yield item

    def _wrap_series(self, fn, pmf_level: bool):
        def traced(terms, *args, **kwargs):
            if self.op < 0:
                return fn(terms, *args, **kwargs)
            idx = self._open(SERIES)
            try:
                out = fn(self._timed_terms(terms, self.spans[idx]), *args, **kwargs)
            finally:
                self._close(idx)
            if pmf_level and isinstance(out, tuple):
                self.max_noise = max(self.max_noise, float(out[1]))
            return out
        return traced

    def _wrap_sharded(self, fn):
        def traced(draw, total, base, workers=1):
            if self.op < 0:
                return fn(draw, total, base, workers)
            batch = self._open(SHARDED)
            self.spans[batch].workers = workers

            def timed_draw(stream, n):
                shard = self._open(SHARD, parent=batch)
                try:
                    return draw(stream, n)
                finally:
                    self._close(shard)

            try:
                return fn(timed_draw, total, base, workers)
            finally:
                self._close(batch)
        return traced

    # -- rng counts ----------------------------------------------------------
    def _wrap_generator(self, prop):
        def generator(stream):
            gen = prop.fget(stream)
            if self.op >= 0:
                self._streams[id(stream)] = (stream, gen.bit_generator)
            return gen
        return property(generator)

    def _wrap_substream(self, fn):
        def substream(stream, k):
            if self.op >= 0:
                with self._lock:  # shards derive their streams on pool threads
                    self.substream_calls += 1
            return fn(stream, k)
        return substream

    # -- op boundaries ---------------------------------------------------------
    def begin_op(self, op_id: int):
        self.op = op_id

    def end_op(self):
        """Close the op: stop recording and add its streams' Philox words."""
        self.op = -1
        self.words += sum(philox_words(bg) for _, bg in self._streams.values())
        self._streams.clear()

    # -- installation ------------------------------------------------------------
    def _patch(self, owner, attr: str, replacement):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def patch_targets(self) -> list:
        """(owner, attribute) pairs the tracer replaces while installed."""
        from skellam_fields.rng import RngStream

        targets = [(importlib.import_module(f"skellam_fields.{mod}"), attr)
                   for mod, attr, _ in PATCHES]
        return targets + [(RngStream, "generator"), (RngStream, "substream")]

    @contextlib.contextmanager
    def installed(self):
        from skellam_fields.rng import RngStream

        try:
            for (owner, attr), (mod, _, name) in zip(self.patch_targets(), PATCHES):
                fn = vars(owner)[attr]
                if name == SERIES:
                    wrapped = self._wrap_series(fn, pmf_level=mod == "fractional_field")
                elif name == SHARDED:
                    wrapped = self._wrap_sharded(fn)
                else:
                    wrapped = self._wrap(name, fn)
                self._patch(owner, attr, wrapped)
            self._patch(RngStream, "generator",
                        self._wrap_generator(vars(RngStream)["generator"]))
            self._patch(RngStream, "substream",
                        self._wrap_substream(vars(RngStream)["substream"]))
            yield self
        finally:
            while self._patched:
                owner, attr, original = self._patched.pop()
                setattr(owner, attr, original)

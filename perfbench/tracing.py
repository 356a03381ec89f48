"""Spans recorded from outside the library, around eva's public entry points.

The benchmark never edits library code. `Tracer.install` replaces a named
function or method with a wrapper that records one span per call: a
name, a start, an end, the index of the enclosing span (-1 for a root)
and the id of the frame or step that caused it. Spans stay in memory and
are written out when the process ends.

A target that no longer exists (a module, class or function removed by a
later change) is skipped and reported as absent, so an unchanged
benchmark still runs on a refactored library.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict

# (target, span name). A target is "module:attr" or "module:Class.attr".
SPAN_TARGETS = (
    ("eva.runtime:EncoderRuntime.step", "runtime.embed_ln0"),
    ("eva.runtime:_BlockRt.step", "runtime.block"),
    ("eva.runtime:_MvhsRt.step", "runtime.mvhs"),
    ("eva.pipeline:A2SPipeline.ingest", "pipeline.ingest"),
    ("eva.pipeline:A2SPipeline.ingest_events", "pipeline.ingest"),
    ("eva.pipeline:A2SPipeline.snapshot", "pipeline.snapshot"),
    ("eva.pipeline:encode_offline", "pipeline.encode_offline"),
    ("eva.snapshots:dump_snapshot", "snapshots.dump"),
    ("eva.snapshots:load_snapshot", "snapshots.load"),
    ("eva.events:read_binary_file", "events.read_binary"),
    ("eva.events:partition_patches", "events.partition"),
    ("eva.embedding:embed_events", "embedding.embed_events"),
    ("eva.encoder:encode_events", "encoder.encode_events"),
    ("eva.encoder:forward_train", "encoder.forward_train"),
    ("eva.encoder:backward_train", "encoder.backward_train"),
    ("eva.blocks:tm_sublayer_fwd", "blocks.tm_fwd"),
    ("eva.blocks:tm_sublayer_bwd", "blocks.tm_bwd"),
    ("eva.blocks:cm_sublayer_fwd", "blocks.cm_fwd"),
    ("eva.blocks:cm_sublayer_bwd", "blocks.cm_bwd"),
    ("eva.blocks:ln_fwd", "blocks.ln"),
    ("eva.blocks:ln_bwd", "blocks.ln"),
    ("eva.scan:decay_scan_forward", "scan.decay_fwd"),
    ("eva.scan:decay_scan_backward", "scan.decay_bwd"),
    ("eva.scan:state_scan_forward", "scan.state_fwd"),
    ("eva.scan:state_scan_backward", "scan.state_bwd"),
    ("eva.mvhs:_mvhs_seq", "mvhs.seq_fwd"),
    ("eva.mvhs:_mvhs_seq_bwd", "mvhs.seq_bwd"),
    ("eva.heads:head_forward", "heads.fwd"),
    ("eva.heads:head_backward", "heads.bwd"),
    ("eva.losses:task_mse", "losses.combine"),
    ("eva.losses:combine", "losses.combine"),
    ("eva.losses:combine_backward", "losses.combine"),
    ("eva.optim:Adam.step", "optim.adam"),
    ("eva.train:batch_loss", "train.batch_loss"),
    ("eva.targets:chunk_targets", "targets.chunk_targets"),
)

# Calls counted without a span: one per scan chunk, forward or backward.
COUNT_TARGETS = (
    ("eva.scan:scan_chunk_forward", "scan.chunks"),
    ("eva.scan:scan_chunk_backward", "scan.chunks"),
    ("eva.scan:state_chunk_forward", "scan.chunks"),
    ("eva.scan:state_chunk_backward", "scan.chunks"),
)

# Span record fields.
FRAME, NAME, START, END, PARENT = range(5)


def resolve(target: str):
    """Return (owner, attr, original) for a target, or None if absent."""
    mod_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.frame = -1
        self.absent: list[str] = []
        self._local = threading.local()
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str, start: int | None = None) -> list:
        st = self.stack()
        rec = [self.frame, name, start if start is not None else time.perf_counter_ns(),
               0, st[-1] if st else -1]
        st.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, end: int | None = None) -> None:
        idx = self.stack().pop()
        self.spans[idx][END] = end if end is not None else time.perf_counter_ns()

    def record(self, name: str, start: int, end: int) -> None:
        """A closed span under the current open span (or a root)."""
        st = self.stack()
        self.spans.append([self.frame, name, start, end, st[-1] if st else -1])

    def wrap_span(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close()
        return traced

    def wrap_count(self, fn, name: str):
        """Counts calls made while a measured frame (id >= 0) is current."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.frame >= 0:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installing --------------------------------------------------------

    def patch(self, target: str, make) -> bool:
        """Replace `target` by make(original) wherever eva binds it.

        A module-level function is also rebound in every loaded eva
        module that imported it by name. Returns False if absent."""
        found = resolve(target)
        if found is None:
            self.absent.append(target)
            return False
        owner, attr, orig = found
        wrapped = make(orig)
        owners = [(owner, attr)]
        if isinstance(owner, type(sys)):
            owners += [(m, a) for name, m in list(sys.modules.items())
                       if m is not owner and name.split(".")[0] == "eva"
                       for a, v in list(vars(m).items()) if v is orig]
        for obj, a in owners:
            self._restore.append((obj, a, orig))
            setattr(obj, a, wrapped)
        return True

    def install(self, spans=SPAN_TARGETS, counts=COUNT_TARGETS) -> None:
        for target, name in spans:
            self.patch(target, lambda f, n=name: self.wrap_span(f, n))
        for target, name in counts:
            self.patch(target, lambda f, n=name: self.wrap_count(f, n))

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore.clear()

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "absent": sorted(set(self.absent)), "span_cost_ns": span_cost_ns()}


def span_cost_ns(calls: int = 2000, repeats: int = 9) -> float:
    """Time one traced call adds to a plain call (ns): the median over
    `repeats` of `calls` wrapped and bare no-op calls, on a scratch tracer.

    Timing the wrapper directly gives the tracing overhead without the
    host's drift between a traced and an untraced phase."""
    probe = Tracer()
    probe.frame = 0

    def noop():
        return None
    wrapped = probe.wrap_span(noop, "probe")
    diffs = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter_ns()
        diffs.append(((t2 - t1) - (t1 - t0)) / calls)
        probe.spans.clear()
    return float(statistics.median(diffs))


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def _covered(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0, None, None
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


def self_times(spans) -> list[int]:
    """Per span: its duration minus the part of it its children cover (ns)."""
    children = defaultdict(list)
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append(rec)
    out = []
    for i, rec in enumerate(spans):
        s, e = rec[START], rec[END]
        kids = [(max(c[START], s), min(c[END], e)) for c in children.get(i, ())]
        out.append((e - s) - _covered([k for k in kids if k[1] > k[0]]))
    return out


def aggregate(spans, keep=lambda rec: True) -> dict[str, dict]:
    """name -> {"self_ns", "total_ns", "calls"} over spans passing `keep`."""
    agg: dict[str, dict] = defaultdict(lambda: {"self_ns": 0, "total_ns": 0, "calls": 0})
    for rec, st in zip(spans, self_times(spans)):
        if not keep(rec):
            continue
        a = agg[rec[NAME]]
        a["self_ns"] += st
        a["total_ns"] += rec[END] - rec[START]
        a["calls"] += 1
    return dict(agg)

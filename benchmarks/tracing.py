"""Span tracing for the benchmark's traced run, and the per-layer metrics built from it.

Spans are recorded from this file only: `instrument` swaps each public
function of the package for a timing wrapper at the name its callers look it
up by (`numcore.matmul` for `nc.matmul(...)`, `train.encode` for the
`encode` that `train` imports from `tokenizers`, ...), and restores the
originals when it exits. An op's backward time is caught by wrapping the backward callable the
op stored on the tensor it returned. Nothing in the package is edited.

A span's self time is its duration minus the part of it covered by its child
spans. Per-train-step metrics sum self time over the spans that start inside
one step, a step being the interval from `AdamW.zero_grad` to the end of the
`AdamW.step` that follows it.
"""
from __future__ import annotations

import bisect
import contextlib
import math
import re
import statistics
import time
from dataclasses import dataclass, field

MIB = float(1 << 20)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# The eight op groups of the per-step op table; "pointwise" pools the cheap ops.
OP_GROUPS = {
    "matmul": ("matmul",),
    "silu": ("silu",),
    "softplus": ("softplus",),
    "layer_norm": ("layer_norm",),
    "log_softmax": ("log_softmax",),
    "causal_depthwise_conv": ("causal_depthwise_conv",),
    "embedding_lookup": ("embedding_lookup",),
    "pointwise": ("add", "sub", "mul", "neg", "exp", "tsum", "reshape", "broadcast_to", "index"),
}
# Every differentiable public op of numcore; those outside OP_GROUPS are traced
# (so they count as graph nodes and as numcore calls) but get no row of their own.
NUMCORE_OPS = tuple(op for ops in OP_GROUPS.values() for op in ops) + (
    "div", "log", "sigmoid", "softmax", "transpose", "concat", "tmean")
CLI_SUBCOMMANDS = ("preprocess", "tok-train", "pretrain", "finetune", "predict", "besthit")

PER_STEP = (
    [f"numcore.{g}.{d}_ms" for g in OP_GROUPS for d in ("fwd", "bwd")]
    + ["numcore.backward.sweep_ms", "numcore.nodes_per_step",
       "ssm.scan_op.fwd_ms", "ssm.scan_op.bwd_ms", "ssm.scan_op.state_mib",
       "train.lm_loss.self_ms", "train.weighted_cross_entropy.self_ms", "train.adamw_step.ms"]
)
# per-call timings: (metric, span name, span filter)
PER_CALL = (
    ("train.pad_batch.ms", "train.pad_batch", None),
    ("tokenizers.encode.ms", "tokenizers.encode", None),
    ("taxonomy.smooth_target.ms", "taxonomy.smooth_target", None),
    ("evaluation.besthit_similarity.ms", "evaluation.besthit_similarity", None),
    ("ssm.model_forward.ms_per_batch", "ssm.model_forward", "no_grad"),
    ("ssm.classify.ms", "ssm.classify", None),
    ("numcore.load_tensor.ms", "numcore.load_tensor", None),
)
# medians of single calls that happen a few times per round: (metric, span name, self time?)
PER_RUN = (
    ("taxonomy.build_taxonomy.ms", "taxonomy.build_taxonomy", False),
    ("taxonomy.class_weights.ms", "taxonomy.class_weights", False),
    ("seqdata.parse_fasta.ms", "seqdata.parse_fasta", False),
    ("seqdata.filter_dataset.ms", "seqdata.filter_dataset", False),
    ("seqdata.split_dataset.ms", "seqdata.split_dataset", False),
    ("seqdata.write_fasta.ms", "seqdata.write_fasta", False),
    ("evaluation.besthit_train.ms", "evaluation.besthit_train", False),
    ("evaluation.predict_dataset.self_ms", "evaluation.predict_dataset", True),
) + tuple((f"cli.{sub}.self_ms", f"cli.{sub}", True) for sub in CLI_SUBCOMMANDS)
OTHER = (
    "train.steps", "numcore.calls", "ssm.calls",
    "numcore.save_tensor.ms_per_epoch", "numcore.save_tensor.mib_per_epoch",
    "tokenizers.encode.tokens_per_seq", "tokenizers.bpe_train.s", "tokenizers.bpe_train.merges",
    "trace.overhead_pct",
)
PER_LAYER_METRICS = tuple(
    PER_STEP
    + [n for metric, _, _ in PER_CALL for n in (metric, metric + ".tail", metric + ".n")]
    + [metric for metric, _, _ in PER_RUN]
    + list(OTHER)
)
COUNT_METRICS = {"numcore.nodes_per_step", "train.steps", "numcore.calls", "ssm.calls",
                 "tokenizers.encode.tokens_per_seq", "tokenizers.bpe_train.merges"} | {
    metric + ".n" for metric, _, _ in PER_CALL}


def metric_unit(name: str) -> str:
    if name in COUNT_METRICS:
        return "count"
    if name.endswith("mib") or name.endswith("mib_per_epoch"):
        return "MiB"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(".s"):
        return "s"
    return "ms"


def check_name(name: str) -> str:
    if not NAME_RE.match(name):
        raise ValueError(f"metric name {name!r} is outside [A-Za-z0-9_.-] or too long")
    return name


# ---------------------------------------------------------------------------
# spans


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Keeps spans in memory; a span's parent is the innermost span open when it began."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str) -> Span:
        span = Span(len(self.spans), name, time.perf_counter(), math.nan,
                    self._open[-1] if self._open else None)
        self.spans.append(span)
        self._open.append(span.id)
        return span

    def end(self, span: Span):
        span.end = time.perf_counter()
        popped = self._open.pop()
        if popped != span.id:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        s = self.begin(name)
        try:
            yield s
        finally:
            self.end(s)

    def wrap(self, fn, name: str, after=None):
        """A stand-in for fn that records a span; after(span, args, result) may add attrs."""
        def traced(*args, **kwargs):
            s = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(s)
            if after is not None:
                after(s, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "fields": ["id", "name", "start", "end", "parent", "run", "attrs"],
            "spans": [[s.id, s.name, s.start, s.end, s.parent, self.run_id, s.attrs]
                      for s in self.spans],
        }


class _Patches:
    def __init__(self):
        self._saved = []

    def set(self, owner, attr: str, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the package's public functions for the duration of the block."""
    from taxossm import cli, evaluation, numcore, seqdata, ssm, taxonomy, tokenizers, train

    patches = _Patches()

    def graph_node(span, args, out):
        # recorded ops get their stored backward closure wrapped as "<name>.bwd"
        if out._backward is not None:
            span.attrs["node"] = 1
            out._backward = tracer.wrap(out._backward, span.name + ".bwd")

    def scan_node(span, args, out):
        x, B = args[0].data, args[3].data
        bsz, t, h, p = x.shape
        # the node keeps the per-step states Hs (B,T,H,P,N) and the decays A (B,T,H)
        span.attrs["state_bytes"] = (bsz * t * h * p * B.shape[-1] + bsz * t * h) * x.itemsize
        graph_node(span, args, out)

    def model_forward_mode(span, args, out):
        span.attrs["no_grad"] = int(not out._needs_grad)

    def tensor_bytes(span, args, out):
        span.attrs["bytes"] = int(args[1].nbytes)

    def token_count(span, args, out):
        span.attrs["tokens"] = len(out.ids)

    def merge_count(span, args, out):
        span.attrs["merges"] = len(out.merges)

    def patch(owners, attr, name, after=None):
        original = getattr(owners[0], attr)
        wrapped = tracer.wrap(original, name, after)
        for owner in owners:
            patches.set(owner, attr, wrapped)

    try:
        for op in NUMCORE_OPS:
            patch([numcore], op, f"numcore.{op}", graph_node)
        patch([numcore], "backward", "numcore.backward")
        patch([numcore], "save_tensor", "numcore.save_tensor", tensor_bytes)
        patch([numcore], "load_tensor", "numcore.load_tensor")
        patch([ssm], "scan_op", "ssm.scan_op", scan_node)
        patch([ssm], "model_forward", "ssm.model_forward", model_forward_mode)
        patch([ssm], "classify", "ssm.classify")
        patch([train], "lm_loss", "train.lm_loss")
        patch([train], "weighted_cross_entropy", "train.weighted_cross_entropy")
        patch([train, evaluation], "pad_batch", "train.pad_batch")
        patch([train.AdamW], "step", "train.adamw_step")
        patch([train.AdamW], "zero_grad", "train.zero_grad")
        patch([train], "pretrain", "train.pretrain")
        patch([train], "finetune", "train.finetune")
        patch([tokenizers, train, evaluation], "encode", "tokenizers.encode", token_count)
        patch([tokenizers, cli], "bpe_train", "tokenizers.bpe_train", merge_count)
        patch([taxonomy, train], "smooth_target", "taxonomy.smooth_target")
        patch([taxonomy, cli], "build_taxonomy", "taxonomy.build_taxonomy")
        patch([taxonomy], "class_weights", "taxonomy.class_weights")
        for fn in ("parse_fasta", "filter_dataset", "split_dataset", "write_fasta"):
            patch([seqdata], fn, f"seqdata.{fn}")
        for fn in ("besthit_train", "besthit_similarity", "predict_dataset"):
            patch([evaluation], fn, f"evaluation.{fn}")
        yield tracer
    finally:
        patches.restore()


# ---------------------------------------------------------------------------
# statistics


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children's intervals clipped to it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def tail_percentile(n: int, min_beyond: int = 10) -> int | None:
    """Highest whole percentile p in [50, 99] whose nearest-rank value has at least
    `min_beyond` samples above it (rank k = ceil(p*n/100), n - k >= min_beyond)."""
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= min_beyond:
            return p
    return None


def percentile(sorted_values: list[float], p: int) -> float:
    k = max(1, math.ceil(p * len(sorted_values) / 100))
    return sorted_values[k - 1]


def median(values) -> float:
    """statistics.median, but 0.0 for a layer that never ran."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_call_summary(values: list[float]) -> tuple[float, float, int]:
    """(median, tail, n); the tail falls back to the median when n < 20."""
    if not values:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    p = tail_percentile(len(ordered))
    mid = median(ordered)
    return mid, (percentile(ordered, p) if p is not None else mid), len(ordered)


def _step_windows(spans: list[Span]) -> list[tuple[float, float]]:
    windows, opened = [], None
    for s in spans:  # spans are in start order
        if s.name == "train.zero_grad":
            opened = s.start
        elif s.name == "train.adamw_step" and opened is not None:
            windows.append((opened, s.end))
            opened = None
    return windows


def layer_metrics(spans: list[Span], epochs: int) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_pct, from one traced round."""
    selfs = self_times(spans)
    windows = _step_windows(spans)
    starts = [w[0] for w in windows]
    per_step = [dict.fromkeys(PER_STEP, 0.0) for _ in windows]
    group_of = {op: g for g, ops in OP_GROUPS.items() for op in ops}

    def step_of(s: Span):
        i = bisect.bisect_right(starts, s.start) - 1
        return per_step[i] if i >= 0 and s.start <= windows[i][1] else None

    for s, self_s in zip(spans, selfs):
        step = step_of(s)
        if step is None:
            continue
        ms = 1e3 * self_s
        parts = s.name.split(".")
        if parts[0] == "numcore" and parts[1] in group_of:
            direction = "bwd" if parts[-1] == "bwd" else "fwd"
            step[f"numcore.{group_of[parts[1]]}.{direction}_ms"] += ms
        if parts[0] == "numcore" and s.attrs.get("node"):
            step["numcore.nodes_per_step"] += 1
        if s.name == "numcore.backward":
            step["numcore.backward.sweep_ms"] += ms
        elif s.name == "ssm.scan_op":
            step["ssm.scan_op.fwd_ms"] += ms
            step["ssm.scan_op.state_mib"] += s.attrs["state_bytes"] / MIB
            step["numcore.nodes_per_step"] += s.attrs.get("node", 0)
        elif s.name == "ssm.scan_op.bwd":
            step["ssm.scan_op.bwd_ms"] += ms
        elif s.name == "train.lm_loss":
            step["train.lm_loss.self_ms"] += ms
        elif s.name == "train.weighted_cross_entropy":
            step["train.weighted_cross_entropy.self_ms"] += ms
        elif s.name == "train.adamw_step":
            step["train.adamw_step.ms"] += ms

    out = {name: median(step[name] for step in per_step) for name in PER_STEP}

    by_name: dict[str, list[tuple[Span, float]]] = {}
    for s, self_s in zip(spans, selfs):
        by_name.setdefault(s.name, []).append((s, self_s))

    for metric, name, only in PER_CALL:
        values = [1e3 * (s.end - s.start) for s, _ in by_name.get(name, ())
                  if only is None or s.attrs.get(only)]
        out[metric], out[metric + ".tail"], out[metric + ".n"] = per_call_summary(values)
    for metric, name, use_self in PER_RUN:
        out[metric] = median(1e3 * (self_s if use_self else s.end - s.start)
                             for s, self_s in by_name.get(name, ()))

    saves = by_name.get("numcore.save_tensor", ())
    per_epoch = max(epochs, 1)
    encodes = by_name.get("tokenizers.encode", ())
    bpe = by_name.get("tokenizers.bpe_train", ())
    out.update({
        "train.steps": len(windows),
        "numcore.calls": sum(1 for s in spans if s.name.startswith("numcore.")),
        "ssm.calls": sum(1 for s in spans if s.name.startswith("ssm.")),
        "numcore.save_tensor.ms_per_epoch": 1e3 * sum(d for _, d in saves) / per_epoch if epochs else 0.0,
        "numcore.save_tensor.mib_per_epoch":
            sum(s.attrs["bytes"] for s, _ in saves) / MIB / per_epoch if epochs else 0.0,
        "tokenizers.encode.tokens_per_seq": median(s.attrs["tokens"] for s, _ in encodes),
        "tokenizers.bpe_train.s": median(s.end - s.start for s, _ in bpe),
        "tokenizers.bpe_train.merges": median(s.attrs["merges"] for s, _ in bpe),
    })
    return out

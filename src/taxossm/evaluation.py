"""Per-rank metrics with unseen-class filtering, paired t-tests, a k-mer best-hit
baseline classifier, and inference: one prediction path for both head modes, timing."""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, asdict

import numpy as np

from . import numcore as nc
from . import ssm
from .errors import ConfigError, ContractError, DegenerateVarianceError, EmptyDatasetError
from .records import BarcodeRecord, N_RANKS, RANKS, TaxonomicLabel
from .taxonomy import LIFT_MODES, Taxonomy, lift_species_probs
from .tokenizers import Vocab, encode
from .train import pad_batch

LOW_CONFIDENCE = 0.1  # `besthit` flags a best hit below this containment similarity


@dataclass
class RankMetrics:
    micro_accuracy: float
    macro_precision: float
    macro_recall: float
    support: int
    excluded_unseen: int


@dataclass
class MetricsReport:
    per_rank: list[RankMetrics]
    ms_per_sample: float | None = None

    def to_json(self) -> str:
        payload = {
            "per_rank": {RANKS[r]: asdict(m) for r, m in enumerate(self.per_rank)},
            "ms_per_sample": self.ms_per_sample,
        }
        return json.dumps(payload, indent=2)

    def to_tsv(self) -> str:
        lines = ["rank\tmicro_accuracy\tmacro_precision\tmacro_recall\tsupport\texcluded_unseen"]
        for r, m in enumerate(self.per_rank):
            lines.append(
                f"{RANKS[r]}\t{m.micro_accuracy:.6f}\t{m.macro_precision:.6f}"
                f"\t{m.macro_recall:.6f}\t{m.support}\t{m.excluded_unseen}"
            )
        return "\n".join(lines) + "\n"


@dataclass
class TTestResult:
    t_statistic: float
    degrees_of_freedom: int
    p_value_two_sided: float


def evaluate(
    predictions: np.ndarray,
    labels: list[TaxonomicLabel],
    taxonomy_train: Taxonomy,
) -> MetricsReport:
    """Per-rank micro accuracy and macro precision/recall.

    `predictions` is an (N, 7) array of class indices into the training
    taxonomy. At each rank, records unlabelled there are skipped and records
    whose true class never occurred in training are excluded (tallied in
    excluded_unseen). Macro averages run over the classes present in the
    surviving ground truth; a class predicted zero times contributes precision
    zero.
    """
    predictions = np.asarray(predictions)
    if predictions.shape != (len(labels), N_RANKS):
        raise ContractError(
            f"predictions shape {predictions.shape} != ({len(labels)}, {N_RANKS})"
        )
    report = []
    for r in range(N_RANKS):
        truths = []
        preds = []
        excluded = 0
        for i, label in enumerate(labels):
            name = label.ranks[r]
            if name is None:
                continue
            idx = taxonomy_train.index_per_rank[r].get(name)
            if idx is None:
                excluded += 1
                continue
            truths.append(idx)
            preds.append(int(predictions[i, r]))
        support = len(truths)
        if support == 0:
            report.append(RankMetrics(0.0, 0.0, 0.0, 0, excluded))
            continue
        truths_arr = np.asarray(truths)
        preds_arr = np.asarray(preds)
        n = taxonomy_train.n_classes(r)
        if preds_arr.min() < 0 or preds_arr.max() >= n:
            raise ContractError(f"{RANKS[r]} predictions must be class indices in [0, {n})")
        true_pos = np.bincount(truths_arr, minlength=n)
        pred_pos = np.bincount(preds_arr, minlength=n)
        tp = np.bincount(truths_arr[truths_arr == preds_arr], minlength=n)
        present = true_pos > 0
        precision = np.divide(tp, pred_pos, out=np.zeros(n), where=pred_pos > 0)
        report.append(
            RankMetrics(
                micro_accuracy=int(tp.sum()) / support,
                macro_precision=float(np.mean(precision[present])),
                macro_recall=float(np.mean(tp[present] / true_pos[present])),
                support=support,
                excluded_unseen=excluded,
            )
        )
    return MetricsReport(report)


# ---------------------------------------------------------------------------
# paired t-test on top of a continued-fraction incomplete beta


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-12:
            return h
    return h


def betainc_regularized(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ConfigError(f"x must be in [0,1], got {x}")
    if x == 0.0 or x == 1.0:
        return x
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf_two_sided(t: float, df: int) -> float:
    """Two-sided tail probability of Student's t with df degrees of freedom."""
    if df < 1:
        raise ConfigError(f"df must be >= 1, got {df}")
    return betainc_regularized(df / 2.0, 0.5, df / (df + t * t))


def paired_t_test(a, b) -> TTestResult:
    """Two-sided paired t-test; raises on zero variance of the differences."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ConfigError(f"paired samples must be equal-length vectors, got {a.shape}, {b.shape}")
    n = a.size
    if n < 2:
        raise ConfigError(f"need at least 2 pairs, got {n}")
    d = a - b
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise DegenerateVarianceError("paired differences have zero variance")
    t = float(d.mean()) / (sd / math.sqrt(n))
    return TTestResult(t, n - 1, student_t_sf_two_sided(t, n - 1))


# ---------------------------------------------------------------------------
# k-mer best-hit baseline


@dataclass
class BestHitIndex:
    """Exact k-mer posting lists over the training sequences.

    Each k-mer is packed into a uint64 code of `bits` bits per letter, letters
    ranked in the sorted reference alphabet (`alphabet`, code points). `codes`
    is sorted; `ref_ids` and `counts` run parallel to it, one posting per
    (k-mer, reference) pair with the k-mer's multiplicity in that reference,
    the pairs ordered by k-mer code and then by reference.
    """
    k: int
    bits: int
    alphabet: np.ndarray
    codes: np.ndarray
    ref_ids: np.ndarray
    counts: np.ndarray
    labels: list[TaxonomicLabel]


def _code_points(sequence: str) -> np.ndarray:
    return np.frombuffer(sequence.encode("utf-32-le"), dtype=np.uint32)


def _pack_windows(ranks: np.ndarray, k: int, bits: int) -> np.ndarray:
    """Packed uint64 code of every length-k window of `ranks`, in window order.

    A window of length d + w is a window of length w followed by one of length
    d: its code is the first's shifted up by d letters, or'ed with the second's.
    `span` doubles w = 1, 2, 4, ..., and `codes` takes in each w that is a binary
    digit of k, so about 2 * log2(k) passes build all the codes. numpy shifts a
    uint64 by 64 or more bits to 0, so the codes equal a letter-by-letter
    shift-and-or modulo 2**64 even when k * bits > 64.
    """
    n = ranks.size - k + 1
    if n < 1:
        return np.zeros(0, dtype=np.uint64)
    span = ranks.astype(np.uint64)  # the codes of the windows of length w
    codes = None                    # ... and of length done
    done = 0
    w = 1
    while True:
        if k & w:
            if codes is None:
                codes = span
            else:
                head = span[:codes.size - w] << np.uint64(done * bits)
                head |= codes[w:]
                codes = head
            done += w
        if 2 * w > k:
            return codes
        doubled = span[:span.size - w] << np.uint64(w * bits)
        doubled |= span[w:]
        span = doubled
        w *= 2


def besthit_train(records: list[BarcodeRecord], k: int = 8) -> BestHitIndex:
    """Index the multiset of k-mers of every training sequence as posting lists.

    Each window's k-mer code and its reference id are packed into one uint64
    key, code << ceil(log2 n_refs) | reference, and the keys are sorted once:
    each run of equal keys is one posting, its key giving the k-mer and the
    reference and its length the count. Only when the code and the id together
    need more than 64 bits, near the k limit, is each code first replaced by its
    rank among the distinct k-mers, which orders them the same way.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if not records:
        raise EmptyDatasetError("best-hit needs at least one reference sequence")
    points = _code_points("".join(r.sequence for r in records))
    present = np.zeros(int(points.max(initial=0)) + 1, dtype=bool)
    present[points] = True
    alphabet = np.flatnonzero(present).astype(np.uint32)
    bits = (alphabet.size - 1).bit_length()  # ceil(log2 |alphabet|)
    if k * bits > 64:
        raise ConfigError(
            f"k = {k} with an alphabet of {alphabet.size} letters needs {k * bits} bits "
            f"per k-mer; at most 64 fit, so k must be <= {64 // bits}"
        )
    rank_of = (np.cumsum(present) - 1).astype(np.uint32)
    codes = _pack_windows(rank_of[points], k, bits)
    n_refs = len(records)
    lengths = np.array([len(r.sequence) for r in records], dtype=np.int64)
    owner = np.repeat(np.arange(n_refs, dtype=np.uint32), lengths)
    # a window is a k-mer of one reference iff its first and last letters share an owner
    inside = owner[:codes.size] == owner[k - 1:]
    keys, owner = codes[inside], owner[:codes.size][inside]
    ref_bits = (n_refs - 1).bit_length()  # ceil(log2 n_refs)
    distinct = None
    if k * bits + ref_bits > 64:
        distinct, keys = np.unique(keys, return_inverse=True)
        keys = keys.astype(np.uint64)
    keys <<= np.uint64(ref_bits)
    keys |= owner
    keys.sort()
    first = np.empty(keys.size, dtype=bool)  # the first key of each run
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=keys.size)
    keys = keys[starts]
    codes = keys >> np.uint64(ref_bits)
    return BestHitIndex(
        k=k,
        bits=bits,
        alphabet=alphabet,
        codes=codes if distinct is None else distinct[codes],
        ref_ids=(keys & np.uint64((1 << ref_bits) - 1)).astype(np.int32),
        counts=counts.astype(np.int32),
        labels=[r.label for r in records],
    )


def besthit_similarity(index: BestHitIndex, sequence: str) -> tuple[int, float]:
    """(best index, containment similarity |Q n S| / |Q|); ties keep the first index.

    Q and S are k-mer multisets. A query window holding a letter no reference
    contains counts in |Q| and matches nothing.
    """
    k = index.k
    if len(sequence) < k:
        raise ConfigError(
            f"query of length {len(sequence)} is shorter than k = {k}"
        )
    q_size = len(sequence) - k + 1
    points = _code_points(sequence)
    ranks = np.searchsorted(index.alphabet, points)
    unknown_before = np.concatenate(([0], np.cumsum(~np.isin(points, index.alphabet))))
    matchable = unknown_before[k:] == unknown_before[:q_size]
    codes = _pack_windows(ranks, k, index.bits)[matchable]
    q_codes, q_counts = np.unique(codes, return_counts=True)
    lo = np.searchsorted(index.codes, q_codes, side="left")
    hi = np.searchsorted(index.codes, q_codes, side="right")
    hits = hi - lo
    # posting positions lo[i] .. hi[i]-1 of every query k-mer, concatenated
    ends = np.cumsum(hits)
    postings = np.arange(hits.sum()) + np.repeat(lo - (ends - hits), hits)
    shared = np.minimum(np.repeat(q_counts, hits), index.counts[postings])
    inter = np.bincount(index.ref_ids[postings], weights=shared, minlength=len(index.labels))
    best = int(inter.argmax())
    return best, int(inter[best]) / q_size


# ---------------------------------------------------------------------------
# model inference


def predict_dataset(
    state: ssm.ModelState,
    vocab: Vocab,
    taxonomy: Taxonomy,
    records: list[BarcodeRecord],
    batch_size: int = 32,
    lift_mode: str = "sum",
) -> tuple[np.ndarray, np.ndarray]:
    """Per-rank predicted class indices and confidences, shape (N, 7) each.

    Each batch yields one probability array per rank, a multi-head model's head
    softmaxes or the `lift_mode` lift of a single-head model's species softmax
    (renormalised in f64); a record's prediction is its row's argmax, its confidence the max.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if lift_mode not in LIFT_MODES:
        raise ConfigError(f"lift_mode must be one of {LIFT_MODES}, got '{lift_mode}'")
    n = len(records)
    preds = np.zeros((n, N_RANKS), dtype=np.int64)
    confs = np.zeros((n, N_RANKS), dtype=np.float64)
    tokens = [encode(vocab, r.sequence, state.config.max_len).ids for r in records]
    with nc.no_grad():
        for start in range(0, n, batch_size):
            chunk = tokens[start:start + batch_size]
            ids, mask = pad_batch(chunk)
            logits = ssm.classify(state, ssm.model_forward(state, ids, mask), mask)
            if state.config.head_mode == "multi":  # lazily: one head's softmax at a time
                per_rank = (nc.softmax(logit, axis=-1).data for logit in logits)
            else:
                species = nc.softmax(logits[0], axis=-1).data.astype(np.float64)
                species /= species.sum(axis=-1, keepdims=True)
                per_rank = lift_species_probs(taxonomy, species, mode=lift_mode)
            for r, probs in enumerate(per_rank):
                preds[start:start + len(chunk), r] = probs.argmax(axis=-1)
                confs[start:start + len(chunk), r] = probs.max(axis=-1)
    return preds, confs


@dataclass
class TimingResult:
    ms_per_sample: float
    samples_timed: int
    batches_timed: int


def time_inference(
    state: ssm.ModelState,
    vocab: Vocab,
    records: list[BarcodeRecord],
    batch_size: int,
) -> TimingResult:
    """Wall-clock per-sample forward cost; the first (warm-up) batch is excluded."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    tokens = [encode(vocab, r.sequence, state.config.max_len).ids for r in records]
    batches = [tokens[s:s + batch_size] for s in range(0, len(tokens), batch_size)]
    if len(batches) < 2:
        raise ConfigError("need at least two batches so a warm-up batch can be excluded")
    timed_samples = 0
    elapsed = 0.0
    with nc.no_grad():
        for i, chunk in enumerate(batches):
            ids, mask = pad_batch(chunk)
            t0 = time.perf_counter()
            ssm.model_forward(state, ids, mask)
            dt = time.perf_counter() - t0
            if i > 0:
                elapsed += dt
                timed_samples += len(chunk)
    return TimingResult(1000.0 * elapsed / timed_samples, timed_samples, len(batches) - 1)

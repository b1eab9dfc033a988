"""FASTA ingestion, preprocessing filters, splitting, synthetic corpora and overlap reports.

Header grammar: ``>{id}|k__{K};p__{P};c__{C};o__{O};f__{F};g__{G};s__{S}``
with ranks optionally truncated from the right. Rank values must not contain
``;`` or ``|``; a record labelled at no rank is written as ``>{id}``.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, asdict

import numpy as np

from .errors import ConfigError, EmptyDatasetError, ParseError
from .records import (
    BarcodeRecord,
    IUPAC_ALPHABET,
    N_RANKS,
    RANK_PREFIXES,
    TaxonomicLabel,
    UNAMBIGUOUS,
)


@dataclass
class FilterConfig:
    """Thresholds for the four preprocessing filters, applied in order."""

    length_sigma: float = 4.0
    max_ambiguous_fraction: float = 0.05
    min_class_size: int = 3

    def __post_init__(self):
        if self.length_sigma <= 0:
            raise ConfigError(f"length_sigma must be > 0, got {self.length_sigma}")
        if not 0.0 <= self.max_ambiguous_fraction <= 1.0:
            raise ConfigError(
                f"max_ambiguous_fraction must be in [0,1], got {self.max_ambiguous_fraction}"
            )
        if self.min_class_size < 1:
            raise ConfigError(f"min_class_size must be >= 1, got {self.min_class_size}")


@dataclass
class FilterStats:
    """Per-step drop counts from filter_dataset."""

    input_count: int = 0
    duplicates_dropped: int = 0
    length_dropped: int = 0
    ambiguous_dropped: int = 0
    small_class_dropped: int = 0
    output_count: int = 0
    length_mean: float = 0.0
    length_std: float = 0.0

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


@dataclass
class OverlapReport:
    """Train/test overlap tallies over unique species labels and unique barcodes."""

    species_total_test: int
    species_overlap_n: int
    species_overlap_pct: float
    barcode_total_test: int
    barcode_overlap_n: int
    barcode_overlap_pct: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


@dataclass
class SynthConfig:
    """Parameters of the synthetic taxonomy/corpus generator."""

    rank_fanouts: tuple[int, ...] = (1, 1, 2, 2, 2, 2, 3)
    base_length: int = 120
    length_jitter: int = 8
    mutation_rate_per_rank: tuple[float, ...] = (0.0, 0.08, 0.07, 0.06, 0.05, 0.04, 0.03)
    samples_per_species: int = 10
    label_dropout_per_rank: tuple[float, ...] = (0.0,) * 7
    seed: int = 0
    max_species: int = 10**6

    def __post_init__(self):
        if len(self.rank_fanouts) != N_RANKS:
            raise ConfigError("rank_fanouts needs exactly 7 entries")
        if any(f < 1 for f in self.rank_fanouts):
            raise ConfigError(f"rank_fanouts must all be >= 1, got {self.rank_fanouts}")
        if len(self.mutation_rate_per_rank) != N_RANKS:
            raise ConfigError("mutation_rate_per_rank needs exactly 7 entries")
        if len(self.label_dropout_per_rank) != N_RANKS:
            raise ConfigError("label_dropout_per_rank needs exactly 7 entries")
        for r in (*self.mutation_rate_per_rank, *self.label_dropout_per_rank):
            if not 0.0 <= r <= 1.0:
                raise ConfigError(f"rates must be in [0,1], got {r}")
        if self.base_length < 1 or self.length_jitter < 0:
            raise ConfigError("base_length must be >= 1 and length_jitter >= 0")
        if self.samples_per_species < 1:
            raise ConfigError("samples_per_species must be >= 1")
        n_species = math.prod(self.rank_fanouts)
        if n_species > self.max_species:
            raise ConfigError(
                f"fanout product {n_species} exceeds the cap of {self.max_species} species"
            )


def _parse_header(line: str, lineno: int, path=None) -> tuple[str, TaxonomicLabel]:
    body = line[1:].strip()
    if not body:
        raise ParseError("empty FASTA header", path=path, line=lineno)
    if "|" not in body:
        return body, TaxonomicLabel()
    rec_id, _, label_part = body.partition("|")
    if not rec_id:
        raise ParseError("missing record id before '|'", path=path, line=lineno)
    names: list[str | None] = [None] * N_RANKS
    if label_part:
        tokens = label_part.split(";")
        if len(tokens) > N_RANKS:
            raise ParseError(f"more than {N_RANKS} rank tokens", path=path, line=lineno)
        for i, tok in enumerate(tokens):
            prefix = RANK_PREFIXES[i] + "__"
            if not tok.startswith(prefix):
                raise ParseError(
                    f"rank token {i} must start with '{prefix}', got '{tok}'",
                    path=path,
                    line=lineno,
                )
            value = tok[len(prefix):]
            if not value:
                raise ParseError(f"empty value for rank '{prefix}'", path=path, line=lineno)
            names[i] = value
    return rec_id, TaxonomicLabel(tuple(names))


def parse_fasta(path) -> list[BarcodeRecord]:
    """Read barcode records from a FASTA file; empty file gives an empty list."""
    records: list[BarcodeRecord] = []
    rec_id = None
    label = None
    seq_parts: list[str] = []
    header_line = 0

    def flush(lineno):
        if rec_id is None:
            return
        seq = "".join(seq_parts).upper()
        if not seq:
            raise ParseError(f"record '{rec_id}' has an empty sequence", path=path, line=header_line)
        bad = set(seq) - IUPAC_ALPHABET
        if bad:
            raise ParseError(
                f"record '{rec_id}' contains non-IUPAC character(s) {sorted(bad)}",
                path=path,
                line=header_line,
            )
        records.append(BarcodeRecord(rec_id, seq, label))

    with open(path, "r", encoding="utf-8") as fh:
        lineno = 0
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith(">"):
                flush(lineno)
                rec_id, label = _parse_header(line, lineno, path=path)
                seq_parts = []
                header_line = lineno
            else:
                if rec_id is None:
                    raise ParseError("sequence data before any header", path=path, line=lineno)
                seq_parts.append(line)
        flush(lineno + 1)
    return records


def format_header(record: BarcodeRecord) -> str:
    depth = record.label.depth
    if depth == 0:
        return f">{record.id}"
    tokens = [
        f"{RANK_PREFIXES[i]}__{record.label.ranks[i]}" for i in range(depth)
    ]
    return f">{record.id}|" + ";".join(tokens)


def write_fasta(records, path, width: int = 80):
    """Serialize records back to FASTA with the same header grammar parse_fasta reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(format_header(rec) + "\n")
            seq = rec.sequence
            for start in range(0, len(seq), width):
                fh.write(seq[start:start + width] + "\n")


def length_bounds(mean: float, std: float, length_sigma: float) -> tuple[float, float]:
    """Retained length interval [mean - k*std, mean + k*std] of filter step 2."""
    return (mean - length_sigma * std, mean + length_sigma * std)


def filter_dataset(
    records: list[BarcodeRecord], cfg: FilterConfig | None = None
) -> tuple[list[BarcodeRecord], FilterStats]:
    """Apply the four preprocessing filters in order.

    1. drop exact duplicate (sequence, label) pairs, keeping first occurrence;
    2. drop records whose length falls outside mean +- length_sigma * population std,
       statistics computed on the post-dedup set;
    3. drop records whose fraction of non-ACGT characters exceeds max_ambiguous_fraction;
    4. repeatedly drop records belonging to a class with fewer than min_class_size
       members at any rank, until no class is undersized (fixed point).
    """
    cfg = cfg or FilterConfig()
    if not records:
        raise EmptyDatasetError("filter_dataset requires a non-empty record list")
    stats = FilterStats(input_count=len(records))

    seen = set()
    deduped = []
    for rec in records:
        k = rec.key()
        if k in seen:
            continue
        seen.add(k)
        deduped.append(rec)
    stats.duplicates_dropped = len(records) - len(deduped)

    lengths = np.array([len(r.sequence) for r in deduped], dtype=np.float64)
    mean = float(lengths.mean())
    std = float(lengths.std())  # population std, fixed for reproducibility
    stats.length_mean = mean
    stats.length_std = std
    lo, hi = length_bounds(mean, std, cfg.length_sigma)
    kept = [r for r in deduped if lo <= len(r.sequence) <= hi]
    stats.length_dropped = len(deduped) - len(kept)

    survivors = []
    for rec in kept:
        n_ambig = sum(1 for ch in rec.sequence if ch not in UNAMBIGUOUS)
        if n_ambig / len(rec.sequence) > cfg.max_ambiguous_fraction:
            continue
        survivors.append(rec)
    stats.ambiguous_dropped = len(kept) - len(survivors)

    before_step4 = len(survivors)
    changed = True
    while changed:
        changed = False
        for rank in range(N_RANKS):
            counts = Counter(
                r.label.ranks[rank] for r in survivors if r.label.ranks[rank] is not None
            )
            pruned = [
                r
                for r in survivors
                if r.label.ranks[rank] is None or counts[r.label.ranks[rank]] >= cfg.min_class_size
            ]
            if len(pruned) != len(survivors):
                survivors = pruned
                changed = True
    stats.small_class_dropped = before_step4 - len(survivors)
    stats.output_count = len(survivors)

    if not survivors:
        raise EmptyDatasetError("all records were removed by the preprocessing filters")
    return survivors, stats


def split_dataset(
    records: list[BarcodeRecord], fractions: tuple[float, float, float], seed: int
) -> tuple[list[BarcodeRecord], list[BarcodeRecord], list[BarcodeRecord]]:
    """Uniform random train/val/test partition, deterministic under seed."""
    if len(fractions) != 3 or any(f <= 0 for f in fractions):
        raise ConfigError(f"need three positive fractions, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must sum to 1, got sum {sum(fractions)!r}")
    n = len(records)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    # largest-remainder apportionment so the sizes sum to n exactly
    raw = [f * n for f in fractions]
    sizes = [int(math.floor(x)) for x in raw]
    remainders = sorted(range(3), key=lambda i: (-(raw[i] - sizes[i]), i))
    for i in range(n - sum(sizes)):
        sizes[remainders[i % 3]] += 1
    out = []
    start = 0
    for size in sizes:
        out.append([records[i] for i in order[start:start + size]])
        start += size
    return out[0], out[1], out[2]


def overlap_report(train: list[BarcodeRecord], test: list[BarcodeRecord]) -> OverlapReport:
    """Species-label and identical-barcode overlap of a test set with a training set.

    Species overlap counts unique fully labelled (depth 7) label paths; records
    with a partial label do not enter the species tally. Barcode overlap counts
    unique exact sequence strings. Percentages are relative to the test set.
    """
    train_species = {r.label.ranks for r in train if r.label.depth == N_RANKS}
    test_species = {r.label.ranks for r in test if r.label.depth == N_RANKS}
    train_seqs = {r.sequence for r in train}
    test_seqs = {r.sequence for r in test}

    sp_total = len(test_species)
    sp_n = len(test_species & train_species)
    bc_total = len(test_seqs)
    bc_n = len(test_seqs & train_seqs)
    return OverlapReport(
        species_total_test=sp_total,
        species_overlap_n=sp_n,
        species_overlap_pct=100.0 * sp_n / sp_total if sp_total else 0.0,
        barcode_total_test=bc_total,
        barcode_overlap_n=bc_n,
        barcode_overlap_pct=100.0 * bc_n / bc_total if bc_total else 0.0,
    )


_BASES = np.frombuffer(b"ACGT", dtype=np.uint8)


def _mutate(seq: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Per-position substitution with the given rate; mutated bases are redrawn uniformly."""
    if rate <= 0.0:
        return seq.copy()
    out = seq.copy()
    hits = rng.random(len(seq)) < rate
    n = int(hits.sum())
    if n:
        out[hits] = _BASES[rng.integers(0, 4, size=n)]
    return out


def synth_generate(cfg: SynthConfig) -> list[BarcodeRecord]:
    """Generate a labelled synthetic corpus from a random taxonomy tree.

    Each tree node carries an ancestral sequence mutated from its parent's at
    that rank's rate; per-record noise reuses the species-rank rate. Labels are
    blanked from a rank downward with the per-rank dropout probabilities to
    mimic annotation sparsity.
    """
    rng = np.random.default_rng(cfg.seed)

    # nodes at rank r: list of (name_path, sequence); expand rank by rank
    level = []
    for i in range(cfg.rank_fanouts[0]):
        seq = _BASES[rng.integers(0, 4, size=cfg.base_length)]
        level.append(((f"k{i}",), seq))
    for rank in range(1, N_RANKS):
        prefix = RANK_PREFIXES[rank]
        nxt = []
        for path, seq in level:
            for j in range(cfg.rank_fanouts[rank]):
                child_name = f"{prefix}{len(nxt)}"
                nxt.append((path + (child_name,), _mutate(seq, cfg.mutation_rate_per_rank[rank], rng)))
        level = nxt

    sample_rate = cfg.mutation_rate_per_rank[N_RANKS - 1]
    records = []
    rec_idx = 0
    for path, species_seq in level:
        for _ in range(cfg.samples_per_species):
            seq = _mutate(species_seq, sample_rate, rng)
            if cfg.length_jitter:
                delta = int(rng.integers(-cfg.length_jitter, cfg.length_jitter + 1))
                if delta < 0:
                    seq = seq[: max(1, len(seq) + delta)]
                elif delta > 0:
                    seq = np.concatenate([seq, _BASES[rng.integers(0, 4, size=delta)]])
            depth = N_RANKS
            for rank in range(N_RANKS):
                if rng.random() < cfg.label_dropout_per_rank[rank]:
                    depth = rank
                    break
            label = TaxonomicLabel(tuple(path[:depth]) + (None,) * (N_RANKS - depth))
            records.append(BarcodeRecord(f"synth{rec_idx}", seq.tobytes().decode("ascii"), label))
            rec_idx += 1
    return records

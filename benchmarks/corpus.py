"""Seeded synthetic barcode corpora for the benchmark.

The generator lives here rather than in the package so that the benchmark's
inputs stay the same when the package's own `synth` code changes. Records
descend from a random taxonomy tree: every tree node mutates its parent's
ancestral sequence at that rank's rate, and every sample mutates its
species sequence once more and jitters its length.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RANK_PREFIXES = ("k", "p", "c", "o", "f", "g", "s")
_BASES = np.frombuffer(b"ACGT", dtype=np.uint8)


@dataclass(frozen=True)
class CorpusSpec:
    fanouts: tuple[int, ...]
    samples_per_species: int
    base_length: int
    length_jitter: int
    mutation_rates: tuple[float, ...] = (0.0, 0.10, 0.08, 0.07, 0.06, 0.05, 0.03)
    # per-record probability that the label is cut above genus / above species
    drop_genus: float = 0.0
    drop_species: float = 0.0

    @property
    def n_records(self) -> int:
        return int(np.prod(self.fanouts)) * self.samples_per_species


@dataclass(frozen=True)
class Record:
    id: str
    sequence: str
    ranks: tuple[str, ...]  # labelled ranks, kingdom first; shorter when cut


def _mutate(seq: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    out = seq.copy()
    hits = rng.random(len(seq)) < rate
    out[hits] = _BASES[rng.integers(0, 4, size=int(hits.sum()))]
    return out


def generate(spec: CorpusSpec, seed: int) -> list[Record]:
    """Deterministic in (spec, seed); ids are unique and records come species by species."""
    rng = np.random.default_rng(seed)
    level = [((f"k{i}",), _BASES[rng.integers(0, 4, size=spec.base_length)])
             for i in range(spec.fanouts[0])]
    for rank in range(1, len(RANK_PREFIXES)):
        nxt = []
        for path, seq in level:
            for _ in range(spec.fanouts[rank]):
                name = f"{RANK_PREFIXES[rank]}{len(nxt)}"
                nxt.append((path + (name,), _mutate(seq, spec.mutation_rates[rank], rng)))
        level = nxt

    records = []
    for path, species_seq in level:
        for _ in range(spec.samples_per_species):
            seq = _mutate(species_seq, spec.mutation_rates[-1], rng)
            delta = int(rng.integers(-spec.length_jitter, spec.length_jitter + 1))
            if delta < 0:
                seq = seq[:len(seq) + delta]
            elif delta > 0:
                seq = np.concatenate([seq, _BASES[rng.integers(0, 4, size=delta)]])
            cut = rng.random()
            depth = 7
            if cut < spec.drop_genus:
                depth = 5
            elif cut < spec.drop_genus + spec.drop_species:
                depth = 6
            records.append(Record(f"r{len(records)}", seq.tobytes().decode("ascii"), path[:depth]))
    return records


def fasta_header(rec: Record) -> str:
    return f">{rec.id}|" + ";".join(
        f"{RANK_PREFIXES[i]}__{name}" for i, name in enumerate(rec.ranks))


def write_fasta(records, path):
    with open(path, "w", encoding="ascii") as fh:
        for rec in records:
            fh.write(fasta_header(rec) + "\n" + rec.sequence + "\n")


def read_fasta(path) -> list[Record]:
    """Reader for the files this module and the package's preprocess write."""
    records = []
    with open(path, "r", encoding="ascii") as fh:
        header, parts = None, []
        for line in fh:
            line = line.strip()
            if line.startswith(">"):
                if header is not None:
                    records.append(_record(header, parts))
                header, parts = line[1:], []
            elif line:
                parts.append(line)
        if header is not None:
            records.append(_record(header, parts))
    return records


def _record(header: str, parts: list[str]) -> Record:
    rec_id, _, label = header.partition("|")
    ranks = tuple(tok.split("__", 1)[1] for tok in label.split(";")) if label else ()
    return Record(rec_id, "".join(parts), ranks)

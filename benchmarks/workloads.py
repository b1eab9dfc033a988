"""The benchmark's three workloads, each a batch job run through `taxossm.cli.main`.

A workload sets up once per run (synthetic FASTA, a config file and, for the
model workloads, the split and the BPE vocabulary) and then runs short
rounds of CLI steps, each step timed on its own. The run reports, per step,
its best time over the rounds (see README.md in this directory for why), and
from those three end-to-end figures whose meaning depends on the workload:

    wall_s        the sum of the best times of the round's steps
    fit_per_s     the training half: LM targets/s, fine-tune samples/s, BPE merges/s
    use_per_s     the using half: LM validation targets/s, predict samples/s,
                  best-hit queries/s

Every round checks every output it reads; each check is one attempted operation.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

import corpus
from corpus import CorpusSpec
from taxossm import cli, tokenizers

ACGT = frozenset("ACGT")


class Tally:
    """Attempted and failed operations of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    @property
    def failed_share(self) -> float:
        if self.attempted < 1:
            raise ValueError("no operation was attempted")
        return self.failed / self.attempted

    @property
    def ok_share(self) -> float:
        return 1.0 - self.failed_share


class StepFailed(RuntimeError):
    """A CLI step failed, so the steps after it have no input."""


def _count_fasta(path: Path) -> int:
    with open(path, "r", encoding="ascii") as fh:
        return sum(1 for line in fh if line.startswith(">"))


def best_times(rounds: list[dict]) -> dict[str, float]:
    """Per step, its shortest time over the rounds."""
    return {step: min(r[step] for r in rounds) for step in rounds[0]}


class Workload:
    name = ""
    spec: CorpusSpec
    config: dict
    wall_steps: tuple[str, ...] = ()  # the timed steps whose best times sum to wall_s
    vocab_in_setup = True  # model workloads train their vocabulary once, in set-up
    train_records = None   # set-up keeps the first this many train records (None: all)
    val_records = None     # ... and val records
    vocab_records = None   # the first this many train records train the vocabulary
    epochs = 0             # training epochs per round, for per-epoch trace metrics

    def __init__(self, seed: int, tally: Tally):
        self.seed = seed
        self.tally = tally
        self.tracer = None

    # -- steps -------------------------------------------------------------

    def cli(self, sub: str, out: Path, sets: dict, expect=()) -> float:
        """Run one subcommand in-process; returns its wall time in seconds."""
        argv = [sub, "--config", str(self.config_path), "--out", str(out), "--seed", str(self.seed)]
        for key, value in sets.items():
            argv += ["--set", f"{key}={value}"]
        span = self.tracer.span(f"cli.{sub}") if self.tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            with span:
                rc = cli.main(argv)
            elapsed = time.perf_counter() - t0
        missing = [name for name in expect if not (out / name).is_file()]
        if not self.tally.check(rc == 0 and not missing, f"{sub}: exit {rc}, missing {missing}"):
            raise StepFailed(f"taxossm {sub} failed (exit {rc}, missing {missing})")
        return elapsed

    def preprocess(self, out: Path) -> float:
        elapsed = self.cli("preprocess", out, {"paths.input_fasta": self.raw},
                           ("train.fasta", "val.fasta", "test.fasta", "filter_stats.json"))
        stats = json.loads((out / "filter_stats.json").read_text(encoding="ascii"))
        counts = [_count_fasta(out / f"{s}.fasta") for s in ("train", "val", "test")]
        self.tally.check(sum(counts) == stats["output_count"],
                         f"split counts {counts} do not sum to output_count {stats['output_count']}")
        return elapsed

    def tok_train(self, train_fasta: Path, out: Path) -> float:
        return self.cli("tok-train", out, {"paths.train_fasta": train_fasta}, ("vocab.txt",))

    def encode(self, vocab_path: Path, fasta: Path) -> tuple[float, list[int]]:
        """Encode every sequence; returns the wall time and the token counts.

        Each ACGT-only sequence must decode back to itself.
        """
        vocab = tokenizers.load_vocab(vocab_path)
        seqs = [r.sequence for r in corpus.read_fasta(fasta)]
        encode = tokenizers.encode
        t0 = time.perf_counter()
        encoded = [encode(vocab, s) for s in seqs]
        elapsed = time.perf_counter() - t0
        for s, tok in zip(seqs, encoded):
            if ACGT.issuperset(s):
                self.tally.check(tokenizers.decode(vocab, tok) == s, "decode(encode(s)) != s")
        return elapsed, [len(t.ids) for t in encoded]

    def token_counts(self, fasta: Path) -> list[int]:
        """Token counts of a set-up FASTA file, encoded once per run and
        outside every timed step."""
        if fasta not in self._token_counts:
            self._token_counts[fasta] = self.encode(self.vocab, fasta)[1]
        return self._token_counts[fasta]

    # -- set-up and rounds -------------------------------------------------

    def setup(self, root: Path) -> dict:
        root.mkdir(parents=True)
        self.raw = root / "raw.fasta"
        self.config_path = root / "config.json"
        records = corpus.generate(self.spec, self.seed)
        corpus.write_fasta(records, self.raw)
        self.config_path.write_text(json.dumps(self.config, indent=1) + "\n", encoding="ascii")
        self.train = self.val = self.vocab = None
        self._token_counts = {}
        if self.vocab_in_setup:
            prep = root / "prep"
            self.preprocess(prep)
            self.train, self.val = root / "train.fasta", root / "val.fasta"
            corpus.write_fasta(corpus.read_fasta(prep / "train.fasta")[:self.train_records],
                               self.train)
            corpus.write_fasta(corpus.read_fasta(prep / "val.fasta")[:self.val_records], self.val)
            vocab_fasta = root / "vocab_train.fasta"
            corpus.write_fasta(corpus.read_fasta(prep / "train.fasta")[:self.vocab_records],
                               vocab_fasta)
            self.tok_train(vocab_fasta, root / "tok")
            self.vocab = root / "tok" / "vocab.txt"
        return {
            "records": len(records),
            "mean_length": float(np.mean([len(r.sequence) for r in records])),
            "classes_per_rank": [
                len({r.ranks[i] for r in records if len(r.ranks) > i}) for i in range(7)],
        }

    def run_round(self, rdir: Path, tracer=None) -> tuple[dict, dict]:
        """Returns (the time of each step in seconds, facts) for one round."""
        rdir.mkdir(parents=True)
        self.tracer = tracer
        try:
            return self._round(rdir)
        finally:
            self.tracer = None

    def _round(self, rdir: Path) -> tuple[dict, dict]:
        raise NotImplementedError

    def wall(self, times: dict) -> float:
        return sum(times[step] for step in self.wall_steps)

    def metrics(self, best: dict, facts: dict) -> dict:
        """wall_s, fit_per_s and use_per_s from the best step times."""
        raise NotImplementedError

    def extra_rates(self, best: dict, facts: dict) -> dict:
        """Rates printed beside the bounded metrics."""
        return {}


class PretrainLong(Workload):
    name = "pretrain_long"
    spec = CorpusSpec(fanouts=(1, 1, 1, 2, 2, 2, 2), samples_per_species=4,
                      base_length=650, length_jitter=10)
    wall_steps = ("pretrain",)
    epochs = 1
    train_records = 8  # one full batch
    val_records = 8
    config = {
        "filter": {"min_class_size": 1},
        "split": {"fractions": [0.6, 0.3, 0.1]},  # 38 train / 19 val / 7 test of 64
        "tokenizer": {"kind": "bpe", "vocab_size": 256},
        "model": {"preset": "tiny", "max_len": 1024},
        "train": {"batch_size": train_records, "max_epochs": epochs, "patience": epochs},
    }

    def _round(self, rdir):
        train_lens, val_lens = self.token_counts(self.train), self.token_counts(self.val)
        vocab_size = len(tokenizers.load_vocab(self.vocab))
        out = rdir / "pt"
        t_fit = self.cli("pretrain", out, {
            "paths.train_fasta": self.train, "paths.val_fasta": self.val,
            "paths.vocab": self.vocab}, ("final/manifest.json", "metrics.jsonl"))
        manifest = json.loads((out / "final" / "manifest.json").read_text(encoding="ascii"))
        loss = manifest["best_val_loss"]
        self.tally.check(math.isfinite(loss) and loss < math.log(vocab_size),
                         f"lm_val_loss {loss} is not finite and below ln V")
        self.tally.check(len(manifest["history"]) == self.epochs,
                         f"pretrain ran {len(manifest['history'])} epochs, not {self.epochs}")
        events = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        val_s = sum(e["wall_ms"] for e in events if e["split"] == "val") / 1e3
        # a sequence of L ids (BOS and EOS included) gives L - 1 next-token targets
        facts = {"lm_val_loss": loss, "train_records": len(train_lens),
                 "val_records": len(val_lens),
                 "train_targets": sum(n - 1 for n in train_lens),
                 "val_targets": sum(n - 1 for n in val_lens),
                 "tokens_per_seq": float(np.mean(train_lens)), "vocab_size": vocab_size}
        return {"pretrain": t_fit, "validation": val_s}, facts

    def metrics(self, best, facts):
        return {
            "fit_per_s": facts["train_targets"] * self.epochs / best["pretrain"],
            "use_per_s": facts["val_targets"] * self.epochs / best["validation"],
            "wall_s": self.wall(best),
        }


class FinetuneWide(Workload):
    name = "finetune_wide"
    spec = CorpusSpec(fanouts=(1, 2, 2, 3, 3, 4, 4), samples_per_species=1,
                      base_length=150, length_jitter=5, drop_genus=0.05, drop_species=0.10)
    wall_steps = ("finetune", "predict")
    epochs = 1
    train_records = 64
    val_records = 16
    predict_records = 64
    config = {
        "filter": {"min_class_size": 1},
        "split": {"fractions": [0.8, 0.1, 0.1]},
        "tokenizer": {"kind": "bpe", "vocab_size": 128},
        "model": {"preset": "tiny", "max_len": 1024},
        "train": {"stage": "scratch", "max_epochs": epochs, "patience": epochs,
                  "batch_size": 32, "head_mode": "multi", "smoothing_mode": "hierarchical",
                  "weighted_loss": True},
        "eval": {"batch_size": 32},
    }

    def setup(self, root):
        facts = super().setup(root)
        self.queries = root / "queries.fasta"
        corpus.write_fasta(corpus.read_fasta(self.raw)[:self.predict_records], self.queries)
        return facts

    def _round(self, rdir):
        train_lens = self.token_counts(self.train)
        out = rdir / "ft"
        t_fit = self.cli("finetune", out, {
            "paths.train_fasta": self.train, "paths.val_fasta": self.val,
            "paths.vocab": self.vocab}, ("final/manifest.json",))
        manifest = json.loads((out / "final" / "manifest.json").read_text(encoding="ascii"))
        loss = manifest["best_val_loss"]
        self.tally.check(math.isfinite(loss), f"cls_val_loss {loss} is not finite")
        t_use = self.cli("predict", rdir / "pred", {
            "paths.checkpoint": out, "paths.input_fasta": self.queries}, ("predictions.tsv",))
        n_queries = self._check_predictions(rdir / "pred" / "predictions.tsv")
        facts = {"cls_val_loss": loss, "train_records": len(train_lens),
                 "predict_records": n_queries, "tokens_per_seq": float(np.mean(train_lens))}
        return {"finetune": t_fit, "predict": t_use}, facts

    def metrics(self, best, facts):
        return {
            "fit_per_s": facts["train_records"] * self.epochs / best["finetune"],
            "use_per_s": facts["predict_records"] / best["predict"],
            "wall_s": self.wall(best),
        }

    def _check_predictions(self, tsv: Path) -> int:
        """One row per input record in input order, names from the training
        taxonomy, confidences in (0, 1]; returns the number of input records."""
        classes = [set() for _ in range(7)]
        for rec in corpus.read_fasta(self.train):
            for i, name in enumerate(rec.ranks):
                classes[i].add(name)
        ids = [rec.id for rec in corpus.read_fasta(self.queries)]
        rows = tsv.read_text(encoding="ascii").splitlines()[1:]
        self.tally.check(len(rows) == len(ids), f"{len(rows)} prediction rows for {len(ids)} records")
        for rec_id, row in zip(ids, rows):
            fields = row.split("\t")
            names, confs = fields[1::2], [float(c) for c in fields[2::2]]
            self.tally.check(
                fields[0] == rec_id
                and all(name in classes[r] for r, name in enumerate(names))
                and all(0.0 < c <= 1.0 for c in confs),
                f"bad prediction row for {rec_id}: {row}")
        return len(ids)


class LibrarySearch(Workload):
    name = "library_search"
    spec = CorpusSpec(fanouts=(1, 1, 2, 2, 2, 3, 4), samples_per_species=4,
                      base_length=650, length_jitter=10)
    wall_steps = ("preprocess", "tok_train", "encode", "besthit")
    vocab_in_setup = False
    config = {"tokenizer": {"kind": "bpe", "vocab_size": 128}, "eval": {"besthit_k": 8}}
    vocab_records = 24
    encode_records = 16
    held_out_queries = 3
    copy_queries = 1

    def _round(self, rdir):
        prep = rdir / "prep"
        t_prep = self.preprocess(prep)
        refs = corpus.read_fasta(prep / "train.fasta")
        picks = np.random.default_rng(self.seed).choice(len(refs), self.copy_queries, replace=False)
        copies = [corpus.Record(f"copy{i}", refs[i].sequence, refs[i].ranks) for i in sorted(picks)]
        queries = corpus.read_fasta(prep / "test.fasta")[:self.held_out_queries] + copies
        corpus.write_fasta(queries, rdir / "queries.fasta")
        corpus.write_fasta(refs[:self.vocab_records], rdir / "vocab_train.fasta")
        corpus.write_fasta(refs[:self.encode_records], rdir / "encode.fasta")

        t_use, similarity = self.besthit(prep, rdir, queries)
        t_fit = self.tok_train(rdir / "vocab_train.fasta", rdir / "tok")
        t_enc, lens = self.encode(rdir / "tok" / "vocab.txt", rdir / "encode.fasta")
        merges = len(tokenizers.load_vocab(rdir / "tok" / "vocab.txt").merges)
        facts = {"records": self.spec.n_records, "encoded": len(lens), "bpe_merges": merges,
                 "reference_records": len(refs), "queries": len(queries),
                 "tokens_per_seq": float(np.mean(lens)),
                 "mean_held_out_similarity": similarity}
        return {"preprocess": t_prep, "tok_train": t_fit, "encode": t_enc,
                "besthit": t_use}, facts

    def metrics(self, best, facts):
        return {
            "fit_per_s": facts["bpe_merges"] / best["tok_train"],
            "use_per_s": facts["queries"] / best["besthit"],
            "wall_s": self.wall(best),
        }

    def extra_rates(self, best, facts):
        return {"preprocess_records_per_s": facts["records"] / best["preprocess"],
                "encode_seqs_per_s": facts["encoded"] / best["encode"]}

    def besthit(self, prep: Path, rdir: Path, queries: list) -> tuple[float, float]:
        """Returns the wall time and the mean similarity of the held-out queries."""
        elapsed = self.cli("besthit", rdir / "bh", {
            "paths.train_fasta": prep / "train.fasta",
            "paths.test_fasta": rdir / "queries.fasta"}, ("besthit.tsv",))
        rows = (rdir / "bh" / "besthit.tsv").read_text(encoding="ascii").splitlines()[1:]
        self.tally.check(len(rows) == len(queries), f"{len(rows)} best-hit rows for {len(queries)}")
        sims = []
        for i, (query, row) in enumerate(zip(queries, rows)):
            fields = row.split("\t")
            sims.append(float(fields[8]))
            if i >= self.held_out_queries:
                label = tuple(rank_name for rank_name in fields[1:8] if rank_name)
                self.tally.check(fields[0] == query.id and fields[8] == "1.000000"
                                 and label == query.ranks,
                                 f"exact-copy query {query.id} gave {row}")
        return elapsed, float(np.mean(sims[:self.held_out_queries]))


WORKLOADS = {w.name: w for w in (PretrainLong, FinetuneWide, LibrarySearch)}

# the workload-specific name of each shared throughput metric, printed beside it
ALIASES = {
    "pretrain_long": {"fit_per_s": "lm_tokens_per_s", "use_per_s": "lm_val_tokens_per_s"},
    "finetune_wide": {"fit_per_s": "ft_samples_per_s", "use_per_s": "predict_samples_per_s"},
    "library_search": {"fit_per_s": "bpe_merges_per_s", "use_per_s": "besthit_queries_per_s"},
}

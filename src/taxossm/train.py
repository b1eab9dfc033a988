"""Losses, AdamW, the epoch loop every training stage shares, checkpoints.

Training is logically single threaded and fully deterministic: one seeded
generator drives shuffling, all accumulation orders are fixed, and checkpoints
round-trip parameters, optimizer moments and the generator state bitwise.

`pretrain` and `finetune` set up a model and the loss of one batch; one epoch
loop (`_fit`) runs every stage with its optimizer, shuffling, early stopping,
metrics log and checkpoints, and keeps its progress only as the history and the
best epoch. `_check_pinned` refuses a checkpoint that differs from the run in a
setting its use pins (see `finetune` and `_RESUME_FREE`).
`_fit` pads glibc's heap top, so no train step re-faults pages the last one freed.
"""
from __future__ import annotations

import json
import os
import shutil
import time
import typing
from dataclasses import dataclass, asdict, fields, replace
from pathlib import Path

import numpy as np

from . import numcore as nc
from . import ssm
from .errors import (
    CompatibilityError,
    ConfigError,
    EmptyDatasetError,
    NumericDomainError,
    ParseError,
)
from .numcore import Tensor
from .records import N_RANKS
from .taxonomy import (
    SMOOTHING_MODES,
    ClassWeights,
    TargetDistribution,
    Taxonomy,
    batch_targets,
    smooth_target,
    truncate_to_known,
)
from .tokenizers import PAD, Vocab, encode, load_vocab, save_vocab

STAGES = ("pretrain", "finetune", "scratch")
_STAGE_DEFAULTS = {  # learning rate and epoch budget per stage
    "pretrain": (8e-4, 15),
    "finetune": (8e-5, 12),
    "scratch": (8e-4, 7),
}


@dataclass
class TrainConfig:
    stage: str = "pretrain"
    lr: float | None = None
    max_epochs: int | None = None
    weight_decay: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    patience: int = 3
    batch_size: int = 32
    seed: int = 0
    smoothing_mode: str = "hierarchical"
    epsilon: float = 0.1
    weighted_loss: bool = True
    head_mode: str = "multi"
    wall_clock_limit: float | None = None

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ConfigError(f"stage must be one of {STAGES}, got '{self.stage}'")
        lr0, epochs0 = _STAGE_DEFAULTS[self.stage]
        if self.lr is None:
            self.lr = lr0
        if self.max_epochs is None:
            self.max_epochs = epochs0
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if self.patience < 0:
            raise ConfigError(f"patience must be >= 0, got {self.patience}")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("batch_size and max_epochs must be >= 1")
        if self.smoothing_mode not in SMOOTHING_MODES:
            raise ConfigError(f"smoothing_mode must be one of {SMOOTHING_MODES}, "
                              f"got '{self.smoothing_mode}'")
        if not 0.0 <= self.epsilon < 1.0:
            raise ConfigError(f"epsilon must be in [0,1), got {self.epsilon}")
        ssm.head_ranks(self.head_mode)  # raises ConfigError for an unknown mode


class AdamW:
    """Decoupled weight decay Adam with bias-corrected moments.

    Parameters whose grad is None are skipped entirely; names in `no_decay`
    (the layer-norm gains/biases) never receive weight decay.
    """

    def __init__(self, params: dict[str, Tensor], lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.0,
                 no_decay: set[str] | None = None):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.no_decay = no_decay or set()
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = 0

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            if self.weight_decay and name not in self.no_decay:
                p.data -= self.lr * self.weight_decay * p.data
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def pad_batch(token_lists: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad to the longest sequence; returns int ids and a 0/1 float mask."""
    T = max(len(t) for t in token_lists)
    ids = np.full((len(token_lists), T), PAD, dtype=np.int64)
    mask = np.zeros((len(token_lists), T), dtype=np.float64)
    for i, toks in enumerate(token_lists):
        ids[i, :len(toks)] = toks
        mask[i, :len(toks)] = 1.0
    return ids, mask


def lm_loss(state: ssm.ModelState, ids: np.ndarray, mask: np.ndarray) -> tuple[Tensor, int]:
    """Mean next-token cross-entropy over non-PAD targets; also returns the target count."""
    dtype = state.params["embedding"].data.dtype
    hidden = ssm.model_forward(state, ids, mask)
    logp = nc.log_softmax(ssm.lm_logits(state, hidden)[:, :-1, :], axis=-1)
    targets = ids[:, 1:, None]
    n_valid = int((targets != PAD).sum())
    # -1/n at each non-PAD target: the loss weighs the gathered log-probs by it,
    # and it is the loss's gradient there
    weight = np.where(targets != PAD, -1.0 / max(n_valid, 1), 0.0).astype(dtype)
    picked = np.take_along_axis(logp.data, targets, axis=-1)

    def bw(g):
        dlogp = np.zeros_like(logp.data)
        np.put_along_axis(dlogp, targets, g * weight, axis=-1)
        return (dlogp,)

    return nc.make_op(np.asarray((picked * weight).sum(), dtype=dtype), (logp,), bw), n_valid


def weighted_cross_entropy(
    logits: list[Tensor],
    targets: list[TargetDistribution],
    weights: ClassWeights | None = None,
    head_mode: str = "multi",
) -> tuple[Tensor, int]:
    """Per sample: mean over its labelled ranks of -sum q*log softmax(z), each rank
    term scaled by the true class's weight unless `weights` is None. Batch loss is
    the mean over samples; fully unlabelled samples contribute zero and are counted.
    `batch_targets` smooths q from class indices; a head with no labelled row gets
    a zero q shaped like its logits, and so a zero gradient.
    """
    ranks = ssm.head_ranks(head_mode)
    if len(logits) != len(ranks):
        raise ConfigError(f"{len(ranks)} heads expected, got {len(logits)} logit tensors")
    n = len(targets)
    dtype = logits[0].data.dtype
    index, dists = batch_targets(targets)
    labelled = index[:, ranks] >= 0
    n_ranks_per_sample = labelled.sum(axis=1)
    n_fully_masked = int((n_ranks_per_sample == 0).sum())
    denom = np.maximum(n_ranks_per_sample, 1.0)

    total = Tensor(np.asarray(0.0, dtype=dtype))
    for head, r in enumerate(ranks):
        rows = labelled[:, head]
        q = (dists[r].astype(dtype, copy=False) if rows.any()
             else np.zeros(logits[head].data.shape, dtype=dtype))
        scale = np.zeros(n, dtype=dtype)
        w = 1.0 if weights is None else weights.per_rank[r][index[rows, r]]
        scale[rows] = w / denom[rows]
        logp = nc.log_softmax(logits[head], axis=-1)
        contrib = nc.tsum(nc.mul(nc.mul(logp, Tensor(q)), Tensor(scale[:, None])))
        total = nc.sub(total, contrib)
    return nc.mul(total, Tensor(np.asarray(1.0 / n, dtype=dtype))), n_fully_masked


# ---------------------------------------------------------------------------
# checkpointing


# the checkpoint layout this build writes and reads: 3 is one blob holding every
# tensor group and a manifest that names no file and keeps no progress the history
# does not hold; 1, which had no `format_version` key, was one file per tensor
FORMAT_VERSION = 3
_BLOB, _VOCAB, _TAXONOMY = "tensors.bin", "vocab.txt", "taxonomy.json"
# what `_fit` and `_write_checkpoint` write
_MANIFEST_KEYS = {"format_version", "model_config", "train_config", "class_counts", "epoch",
                  "history", "best_epoch", "best_val_loss", "adam_step", "rng_state", "tensors"}
_MODEL_CONFIG_TYPES = typing.get_type_hints(ssm.ModelConfig)


def _key_set_errors(what: str, keys, expected: set) -> list[str]:
    keys = set(keys)
    return [f"{what} {verb} {sorted(diff)}" for verb, diff in
            (("lacks", expected - keys), ("has unknown keys", keys - expected)) if diff]


class Checkpoint:
    """A checkpoint directory: manifest.json, vocab.txt, taxonomy.json once the
    model has heads (`class_counts` is not null), and the blob tensors.bin, whose
    tensors the manifest indexes per group by dtype, shape, byte offset and crc32.
    Every load (`load_model`, a fine-tune's backbone, a resume's four groups)
    reads the blob once, through `load_params`."""

    def __init__(self, directory):
        self.dir = Path(directory)
        path = self.dir / "manifest.json"
        try:
            with open(path, "r", encoding="ascii") as fh:
                self.manifest = json.load(fh)
        except ValueError as exc:  # torn JSON or non-ASCII bytes
            raise ParseError(f"unreadable checkpoint manifest ({exc})", path=path) from None
        if not isinstance(self.manifest, dict):
            raise ParseError("checkpoint manifest is not a JSON object", path=path)
        version = self.manifest.get("format_version")
        if version != FORMAT_VERSION:
            found = ("no format_version (format 1, a file per tensor)" if version is None
                     else f"format_version {version!r}")
            raise ParseError(f"checkpoint has {found}; this build reads format_version "
                             f"{FORMAT_VERSION}", path=path)
        errors = _key_set_errors("manifest", self.manifest, _MANIFEST_KEYS)
        for key, cls in (("model_config", ssm.ModelConfig), ("train_config", TrainConfig)):
            section = self.manifest.get(key)
            if isinstance(section, dict):
                errors += _key_set_errors(key, section, {f.name for f in fields(cls)})
            elif key in self.manifest:
                errors.append(f"{key} is not a JSON object")
        counts = self.manifest.get("class_counts")
        if counts is not None and not (
                isinstance(counts, list) and len(counts) == N_RANKS
                and all(type(c) is int and c > 0 for c in counts)):
            errors.append(f"class_counts is not null or a list of {N_RANKS} positive "
                          f"ints: {counts!r}")
        if errors:
            raise ParseError("checkpoint " + "; ".join(errors), path=path)
        self.model_config()

    def model_config(self) -> ssm.ModelConfig:
        """The manifest's model config; a wrong-typed or out-of-range value is a ParseError."""
        section = self.manifest["model_config"]
        try:
            for name, value in section.items():
                if type(value) is not _MODEL_CONFIG_TYPES[name]:
                    raise ConfigError(f"{name} must be {_MODEL_CONFIG_TYPES[name].__name__}, "
                                      f"got {value!r}")
            return ssm.ModelConfig(**section)
        except ConfigError as exc:
            raise ParseError(f"checkpoint model_config: {exc}",
                             path=self.dir / "manifest.json") from None

    def load_arrays(self, *groups: str) -> dict[str, dict[str, np.ndarray]]:
        """The tensors of each of `groups`, from one read of the blob in which
        every tensor is checked, whichever group it belongs to: the tensors lie
        back to back, so each one's bytes run to the next one's offset and the
        last one's to the end of the blob, and `load_tensor` checks that byte
        count against the shape and then the crc32."""
        path = self._file(_BLOB, "tensor blob")
        blob = memoryview(path.read_bytes())
        index = self.manifest["tensors"]
        try:
            layout = sorted((entry["offset"], g, name)
                            for g, entries in index.items() for name, entry in entries.items())
        except (AttributeError, KeyError, TypeError) as exc:
            raise ParseError(f"malformed tensor index ({exc!r})",
                             path=self.dir / "manifest.json") from None
        for group in groups:
            if group not in index:
                raise ParseError(f"tensor index has no group '{group}'",
                                 path=self.dir / "manifest.json")
        if layout and layout[0][0] != 0:
            raise ParseError(f"the first tensor starts at byte {layout[0][0]}, not 0", path=path)
        ends = [offset for offset, _, _ in layout[1:]] + [len(blob)]
        out = {group: {} for group in groups}
        for (offset, g, name), end in zip(layout, ends):
            arr = nc.load_tensor(blob[offset:end], index[g][name], path, f"{g}/{name}")
            if g in out:
                out[g][name] = arr
        return out

    def load_params(self, state: ssm.ModelState, *more: str) -> list[dict[str, np.ndarray]]:
        """Set `state`'s parameters to the `params` group and return the groups
        `more`, all from one read of the blob; every group must first have the
        names and shapes of `state`'s parameters."""
        arrays = self.load_arrays("params", *more)
        params = state.params
        for group, got in arrays.items():
            for name in sorted(params.keys() | got.keys()):
                want = params[name].data.shape if name in params else "no such parameter"
                have = got[name].shape if name in got else "no such tensor"
                if want != have:
                    raise ParseError(f"tensor {group}/{name}: checkpoint has {have}, "
                                     f"model has {want}", path=self.dir / "manifest.json")
        for name, arr in arrays["params"].items():
            params[name].data = arr
        return [arrays[group] for group in more]

    def load_model(self) -> ssm.ModelState:
        """The model of the manifest's config and class counts, with these parameters."""
        state = ssm.init_model(self.model_config())
        if self.manifest["class_counts"] is not None:
            ssm.add_classification_heads(state, self.manifest["class_counts"])
        self.load_params(state)
        return state

    def _file(self, name: str, what: str) -> Path:
        path = self.dir / name
        if not path.is_file():
            raise ParseError(f"checkpoint {what} is missing", path=path)
        return path

    def load_vocab(self) -> Vocab:
        return load_vocab(self._file(_VOCAB, "vocabulary"))

    def load_taxonomy(self) -> Taxonomy:
        if self.manifest["class_counts"] is None:
            raise ConfigError("checkpoint has no taxonomy")
        return Taxonomy.load(self._file(_TAXONOMY, "taxonomy"))


def _fsync(path: Path):
    """Make `path`'s data (a file) or its entries (a directory) durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_checkpoint(dest: Path, manifest: dict, groups: dict[str, dict[str, np.ndarray]],
                      vocab: Vocab, taxonomy: Taxonomy | None):
    """Write-temp-then-rename so readers never observe a half-written checkpoint.
    Every file and the temporary directory are fsync'd before the renames and the
    parent directory after them, so a crash leaves `dest` or `dest.old` whole."""
    dest = Path(dest)
    tmp = dest.parent / (dest.name + f".tmp{os.getpid()}")
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    manifest = dict(manifest, format_version=FORMAT_VERSION, tensors={})
    with open(tmp / _BLOB, "wb") as fh:
        for group, arrays in groups.items():
            manifest["tensors"][group] = {name: nc.save_tensor(fh, arrays[name])
                                          for name in sorted(arrays)}
    save_vocab(vocab, tmp / _VOCAB)
    if taxonomy is not None:
        taxonomy.save(tmp / _TAXONOMY)
    with open(tmp / "manifest.json", "w", encoding="ascii") as fh:
        fh.write(json.dumps(manifest, indent=1, sort_keys=True))  # one write, not thousands
    for path in [*tmp.iterdir(), tmp]:
        _fsync(path)
    old = dest.parent / (dest.name + ".old")
    if old.exists():  # leftover from an interrupted write
        shutil.rmtree(old)
    if dest.exists():
        dest.replace(old)
    tmp.replace(dest)
    _fsync(dest.parent)
    if old.exists():
        shutil.rmtree(old)


# ---------------------------------------------------------------------------
# training loops


def _batch_iter(n: int, batch_size: int, order=None):
    idx = np.arange(n) if order is None else order
    for start in range(0, n, batch_size):
        yield idx[start:start + batch_size]


class _MetricsLog:
    def __init__(self, path):
        self.path = Path(path)

    def keep_through(self, epoch: int):
        """Drop the lines of epochs after `epoch`: those a killed run logged
        before their checkpoint was written, or all of an earlier run's when
        `epoch` is 0."""
        if not self.path.exists():
            return
        kept = []
        for line in self.path.read_text(encoding="ascii").splitlines():
            try:
                if json.loads(line)["epoch"] <= epoch:
                    kept.append(line + "\n")
            except (ValueError, KeyError, TypeError):
                pass  # a line torn by the kill
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text("".join(kept), encoding="ascii")
        os.replace(tmp, self.path)

    def write(self, **fields):
        with open(self.path, "a", encoding="ascii") as fh:
            fh.write(json.dumps(fields) + "\n")


def _encode_all(records, vocab: Vocab, max_len: int) -> list[list[int]]:
    return [encode(vocab, r.sequence, max_len).ids for r in records]


def _check_finite(loss: float, epoch: int, split: str):
    # raised before the epoch's checkpoint write, so `last` keeps the previous epoch
    if not np.isfinite(loss):
        raise NumericDomainError(f"epoch {epoch}: non-finite {split} loss {loss}")


def _weighted_mean(step, batches) -> float:
    """Mean of the losses `step(batch)` returns as (float, weight) over `batches`."""
    total, denom = 0.0, 0
    for batch in batches:
        value, weight = step(batch)
        total += value * weight
        denom += weight
    return total / max(denom, 1)


def _tokenizer_key(vocab: Vocab) -> tuple:
    return vocab.kind, vocab.kmer_k, vocab.token_to_id, vocab.merges


def _settings(model_config: dict, train_config: dict, class_counts, taxonomy, vocab) -> dict:
    """A checkpoint's or a run's settings under the keys `_check_pinned` compares."""
    return {
        **{f"model_config.{k}": v for k, v in model_config.items()},
        **{f"train_config.{k}": v for k, v in train_config.items()},
        "class_counts": class_counts,
        "taxonomy": None if taxonomy is None else taxonomy.to_json(),
        "tokenizer": _tokenizer_key(vocab),
    }


# a resume may train for longer, not train something else
_RESUME_FREE = ("train_config.max_epochs", "train_config.patience",
                "train_config.wall_clock_limit")
_SHOWN_AS = {"taxonomy": "taxonomy", "tokenizer": "vocabulary"}  # too long to print


def _check_pinned(ckpt: Checkpoint, use: str, pinned: dict):
    """Refuse to `use` ("resume from", "fine-tune from") `ckpt` unless it agrees
    with the run on every setting in `pinned`, a `_settings` key -> the run's
    value. Runs before any of the checkpoint's arrays is loaded."""
    m = ckpt.manifest
    taxonomy = None if m["class_counts"] is None else ckpt.load_taxonomy()
    saved = _settings(m["model_config"], m["train_config"], m["class_counts"], taxonomy,
                      ckpt.load_vocab())
    mismatches = [
        f"{key}: checkpoint {_SHOWN_AS[key]} differs from the run's" if key in _SHOWN_AS
        else f"{key}: checkpoint {saved[key]} != run {value}"
        for key, value in pinned.items() if saved[key] != value]
    if mismatches:
        raise CompatibilityError(f"cannot {use} {ckpt.dir}: " + "; ".join(mismatches))


def _check_progress(ckpt: Checkpoint):
    """Refuse a manifest whose history is not epochs 1..n of {epoch, train_loss,
    val_loss} entries, whose best_epoch is not in 0..n, or whose epoch is not n."""
    m, path = ckpt.manifest, ckpt.dir / "manifest.json"
    history, best, epoch = m["history"], m["best_epoch"], m["epoch"]
    if not (isinstance(history, list) and all(
            isinstance(h, dict) and set(h) == {"epoch", "train_loss", "val_loss"}
            and type(h["epoch"]) is int and h["epoch"] == i + 1
            and all(type(h[k]) in (int, float) for k in ("train_loss", "val_loss"))
            for i, h in enumerate(history))):
        raise ParseError("checkpoint history is not a list of {epoch, train_loss, val_loss} "
                         "entries numbered 1..n in order", path=path)
    if not (type(best) is int and 0 <= best <= len(history)):
        raise ParseError(f"checkpoint best_epoch {best!r} is not in 0..{len(history)}, "
                         f"the epochs of its history", path=path)
    if not (type(epoch) is int and epoch == len(history)):
        raise ParseError(f"checkpoint epoch {epoch!r} != {len(history)}, the length of its "
                         f"history", path=path)


def _resume(out_dir: Path, pinned: dict, state: ssm.ModelState, opt: AdamW,
            rng: np.random.Generator) -> tuple[list, int, dict | None]:
    """Load `last` into the run, once it agrees on the settings `pinned`; returns
    its history, best epoch and best parameters, or a run that has not started."""
    last = out_dir / "last"
    if not (last / "manifest.json").exists():
        # a crash between the two renames in _write_checkpoint leaves only last.old
        last = out_dir / "last.old"
    if not (last / "manifest.json").exists():
        return [], 0, None
    ckpt = Checkpoint(last)
    _check_progress(ckpt)
    _check_pinned(ckpt, "resume from", pinned)
    opt.m, opt.v, best = ckpt.load_params(state, "opt_m", "opt_v", "best")
    opt.t = ckpt.manifest["adam_step"]
    rng.bit_generator.state = ckpt.manifest["rng_state"]
    return ckpt.manifest["history"], ckpt.manifest["best_epoch"], best


_M_TOP_PAD = -2  # glibc's mallopt parameter number, from <malloc.h>
HEAP_TOP_PAD = 64 << 20  # bytes


def _keep_heap_top():
    """Have glibc keep HEAP_TOP_PAD bytes above the heap top when it grows or
    trims the heap. A train step, a best-hit index build or a preprocess pass
    frees its temporaries; without the pad glibc hands the freed top back to the
    kernel and the next call faults the same pages in again. `cli.main` sets it
    before every subcommand and `_fit` for library callers; setting it again
    changes nothing. Where the C library has no mallopt, this does nothing."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TOP_PAD, HEAP_TOP_PAD)


def _fit(state: ssm.ModelState, cfg: TrainConfig, out_dir, vocab: Vocab,
         taxonomy: Taxonomy | None, resume: bool, n_train: int, n_val: int,
         batch_loss) -> Checkpoint:
    """The epoch loop of every stage. Each epoch takes one AdamW step per shuffled
    training batch, then a validation pass, logs both losses, appends them to
    the history and writes `last`; `final` then holds the best epoch's parameters.
    The history and the best epoch (the first with the lowest validation loss, 0
    before any) are all the progress it keeps; the epoch is the history's length.

    `batch_loss(split, indices)` returns the scalar loss tensor of the records
    `indices` of `split` ("train" or "val") and its weight in the epoch mean.
    """
    _keep_heap_top()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    opt = AdamW(state.params, cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps,
                cfg.weight_decay, state.norm_param_names)
    rng = np.random.default_rng(cfg.seed)
    history, best_epoch, best_params = [], 0, None
    if resume:
        run = _settings(asdict(state.config), asdict(cfg), state.class_counts, taxonomy, vocab)
        pinned = {k: v for k, v in run.items() if k not in _RESUME_FREE}
        history, best_epoch, best_params = _resume(out_dir, pinned, state, opt, rng)
    log = _MetricsLog(out_dir / "metrics.jsonl")
    log.keep_through(len(history))

    def best_val_loss():
        return history[best_epoch - 1]["val_loss"] if best_epoch else float("inf")

    def manifest(epoch):
        return {
            "model_config": asdict(state.config), "train_config": asdict(cfg),
            "class_counts": state.class_counts, "epoch": epoch, "history": history,
            "best_epoch": best_epoch, "best_val_loss": best_val_loss(),
            "adam_step": opt.t, "rng_state": rng.bit_generator.state,
        }

    # both steps return floats, so no batch's autograd graph outlives its step
    def train_step(batch):
        opt.zero_grad()
        loss, weight = batch_loss("train", batch)
        nc.backward(loss)
        opt.step()
        return float(loss.data), weight

    def val_step(batch):
        loss, weight = batch_loss("val", batch)
        return float(loss.data), weight

    started = time.monotonic()
    while len(history) < cfg.max_epochs:
        epoch = len(history) + 1
        t0 = time.monotonic()
        order = rng.permutation(n_train)
        train_loss = _weighted_mean(train_step, _batch_iter(n_train, cfg.batch_size, order))
        _check_finite(train_loss, epoch, "train")
        log.write(epoch=epoch, split="train", loss=train_loss, lr=cfg.lr,
                  wall_ms=1000.0 * (time.monotonic() - t0))

        t0 = time.monotonic()
        with nc.no_grad():
            val_loss = _weighted_mean(val_step, _batch_iter(n_val, cfg.batch_size))
        _check_finite(val_loss, epoch, "val")
        log.write(epoch=epoch, split="val", loss=val_loss, lr=cfg.lr,
                  wall_ms=1000.0 * (time.monotonic() - t0))

        history.append({"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss})
        if val_loss < best_val_loss():  # strict, so the first minimum stays the best
            best_epoch = epoch
            best_params = {k: p.data.copy() for k, p in state.params.items()}

        groups = {"params": {k: p.data for k, p in state.params.items()},
                  "opt_m": opt.m, "opt_v": opt.v, "best": best_params}
        _write_checkpoint(out_dir / "last", manifest(epoch), groups, vocab, taxonomy)
        # patience counts tolerated non-improving epochs; 0 stops on the first one
        if epoch - best_epoch >= max(cfg.patience, 1):
            break
        if cfg.wall_clock_limit is not None and time.monotonic() - started > cfg.wall_clock_limit:
            break

    _write_checkpoint(out_dir / "final", manifest(best_epoch), {"params": best_params},
                      vocab, taxonomy)
    return Checkpoint(out_dir / "final")


def pretrain(
    train_records,
    val_records,
    vocab: Vocab,
    model_cfg: ssm.ModelConfig,
    cfg: TrainConfig,
    out_dir,
    resume: bool = False,
) -> Checkpoint:
    """Next-token pretraining with per-epoch validation and early stopping."""
    if cfg.stage != "pretrain":
        raise ConfigError(f"pretrain called with stage '{cfg.stage}'")
    if not train_records or not val_records:
        raise EmptyDatasetError("pretrain needs non-empty train and validation sets")
    splits = {"train": train_records, "val": val_records}
    tokens = {s: _encode_all(recs, vocab, model_cfg.max_len) for s, recs in splits.items()}
    state = ssm.init_model(model_cfg, seed=cfg.seed)

    def batch_loss(split, indices):
        ids, mask = pad_batch([tokens[split][i] for i in indices])
        return lm_loss(state, ids, mask)

    return _fit(state, cfg, out_dir, vocab, None, resume,
                len(train_records), len(val_records), batch_loss)


def finetune(
    train_records,
    val_records,
    taxonomy: Taxonomy,
    vocab: Vocab,
    cfg: TrainConfig,
    out_dir,
    model_cfg: ssm.ModelConfig | None = None,
    init_from: Checkpoint | str | None = None,
    resume: bool = False,
) -> Checkpoint:
    """Supervised fine-tuning (stage=finetune) or training from scratch (stage=scratch).

    Fine-tuning loads the backbone from `init_from` after checking that the
    tokenizer and backbone configuration match; classification heads are always
    freshly initialized from the config seed.
    """
    from .taxonomy import class_weights as compute_class_weights

    if cfg.stage not in ("finetune", "scratch"):
        raise ConfigError(f"finetune called with stage '{cfg.stage}'")
    if not train_records or not val_records:
        raise EmptyDatasetError("finetune needs non-empty train and validation sets")

    ckpt = None
    if cfg.stage == "finetune":
        if init_from is None:
            raise ConfigError("stage=finetune requires a pretraining checkpoint")
        ckpt = init_from if isinstance(init_from, Checkpoint) else Checkpoint(init_from)
        if model_cfg is None:
            model_cfg = ckpt.model_config()
        pinned = {f"model_config.{k}": getattr(model_cfg, k) for k in ssm.BACKBONE_FIELDS}
        _check_pinned(ckpt, "fine-tune from", pinned | {"tokenizer": _tokenizer_key(vocab)})
    elif model_cfg is None:
        raise ConfigError("stage=scratch requires a ModelConfig")
    model_cfg = replace(model_cfg, head_mode=cfg.head_mode)
    state = ssm.init_model(model_cfg, seed=cfg.seed)
    if ckpt is not None:
        ckpt.load_params(state)

    if cfg.head_mode == "single" and not any(
            r.label.depth == N_RANKS for r in train_records):
        raise ConfigError("single-head mode needs at least one species-labelled record")

    ssm.add_classification_heads(state, taxonomy.class_counts(), seed=cfg.seed)
    weights = compute_class_weights(taxonomy) if cfg.weighted_loss else None

    splits = {"train": train_records, "val": val_records}
    tokens = {s: _encode_all(recs, vocab, model_cfg.max_len) for s, recs in splits.items()}
    targets = {
        s: [smooth_target(taxonomy, truncate_to_known(taxonomy, r.label),
                          cfg.smoothing_mode, cfg.epsilon) for r in recs]
        for s, recs in splits.items()
    }

    def batch_loss(split, indices):
        ids, mask = pad_batch([tokens[split][i] for i in indices])
        logits = ssm.classify(state, ssm.model_forward(state, ids, mask), mask)
        loss, _ = weighted_cross_entropy(
            logits, [targets[split][i] for i in indices], weights, cfg.head_mode)
        return loss, len(indices)

    return _fit(state, cfg, out_dir, vocab, taxonomy, resume,
                len(train_records), len(val_records), batch_loss)

"""Seven-rank class registry with ancestor tables, class weights and training targets:
a record's target is its class index per rank, smoothed per batch by `batch_targets`."""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ParseError, ShapeError, TaxonomyConflictError
from .records import N_RANKS, RANKS, TaxonomicLabel

SMOOTHING_MODES = ("none", "standard", "hierarchical")
LIFT_MODES = ("sum", "argmax_path")


@dataclass
class Taxonomy:
    """Per-rank class registries plus parent links and training-set frequencies.

    `parent[r][i]` is the index of class i of rank r within rank r-1.
    `ancestors[r]` has shape (n_classes(r), r + 1) and column k holds each
    rank-r class's rank-k ancestor (column r is the class itself); it is
    rebuilt from the parent arrays, never serialized.
    """

    names_per_rank: list[list[str]]
    parent: list[np.ndarray]  # parent[0] is empty
    freq_per_rank: list[np.ndarray]
    index_per_rank: list[dict[str, int]] = field(init=False)
    ancestors: list[np.ndarray] = field(init=False)

    def __post_init__(self):
        self.index_per_rank = [
            {name: i for i, name in enumerate(names)} for names in self.names_per_rank
        ]
        self.ancestors = [np.arange(self.n_classes(0), dtype=np.int64)[:, None]]
        for r in range(1, N_RANKS):
            self.ancestors.append(np.column_stack([
                self.ancestors[r - 1][self.parent[r]],
                np.arange(self.n_classes(r), dtype=np.int64),
            ]))

    def n_classes(self, rank: int) -> int:
        return len(self.names_per_rank[rank])

    def class_counts(self) -> list[int]:
        return [self.n_classes(r) for r in range(N_RANKS)]

    def to_json(self) -> str:
        payload = {
            "names_per_rank": self.names_per_rank,
            "parent": [arr.tolist() for arr in self.parent],
            "freq_per_rank": [arr.tolist() for arr in self.freq_per_rank],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str, path=None) -> "Taxonomy":
        """Parse a serialized taxonomy; a malformed one raises ParseError naming `path`."""
        try:
            payload = json.loads(text)
            names = list(payload["names_per_rank"])
            parent = [_int_array(a) for a in payload["parent"]]
            freq = [_int_array(a) for a in payload["freq_per_rank"]]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"bad taxonomy payload: {exc}", path=path) from exc
        if not len(names) == len(parent) == len(freq) == N_RANKS:
            raise ParseError(f"taxonomy must list {N_RANKS} ranks", path=path)
        for r in range(N_RANKS):
            if not (isinstance(names[r], list) and all(isinstance(x, str) for x in names[r])
                    and len(set(names[r])) == len(names[r])):
                raise ParseError(f"{RANKS[r]} names must be a list of distinct strings", path=path)
            n = len(names[r])
            n_links = n if r > 0 else 0
            if parent[r].shape != (n_links,) or freq[r].shape != (n,):
                raise ParseError(
                    f"{RANKS[r]}: {n} names need {n_links} parent links and {n} "
                    f"frequencies, got shapes {parent[r].shape} and {freq[r].shape}", path=path)
            if n_links and not (parent[r].min() >= 0 and parent[r].max() < len(names[r - 1])):
                raise ParseError(
                    f"{RANKS[r]}: parent index outside [0, {len(names[r - 1])})", path=path)
        return cls(names_per_rank=names, parent=parent, freq_per_rank=freq)

    def save(self, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "Taxonomy":
        try:
            with open(path, "r", encoding="ascii") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"non-ASCII byte at offset {exc.start}", path=path) from None
        return cls.from_json(text, path)


def _int_array(values) -> np.ndarray:
    """int64 array of a JSON list of integers; TypeError for any other entry."""
    if not all(type(v) is int for v in values):
        raise TypeError(f"expected a list of integers, got {values!r:.60}")
    return np.array(values, dtype=np.int64)


@dataclass(frozen=True)
class TargetDistribution:
    """One record's training target: its class index at each labelled rank (None
    below its depth) and its smoothing. It holds no array; `per_rank` derives them."""

    taxonomy: Taxonomy = field(repr=False, compare=False)
    true_index: tuple[int | None, ...]
    mode: str
    epsilon: float

    @property
    def mask(self) -> tuple[bool, ...]:
        return tuple(i is not None for i in self.true_index)

    @property
    def per_rank(self) -> list[np.ndarray | None]:
        _, dists = batch_targets([self])
        return [d[0] if i is not None else None for d, i in zip(dists, self.true_index)]


@dataclass
class ClassWeights:
    """Inverse-square-root frequency weights, rescaled to mean 1 within each rank."""

    per_rank: list[np.ndarray]


def build_taxonomy(records) -> Taxonomy:
    """Register classes in first-seen order and count per-rank frequencies.

    Raises on labels that skip a rank or reuse a class name under two parents.
    """
    names_per_rank: list[list[str]] = [[] for _ in range(N_RANKS)]
    index_per_rank: list[dict[str, int]] = [{} for _ in range(N_RANKS)]
    parent: list[dict[int, int]] = [{} for _ in range(N_RANKS)]
    freq: list[dict[int, int]] = [{} for _ in range(N_RANKS)]

    for rec in records:
        label = rec.label
        if not label.is_prefix_closed:
            raise TaxonomyConflictError(
                f"record '{rec.id}' labels a rank below an unlabelled one: {label.ranks}"
            )
        prev_idx = None
        for r in range(label.depth):
            name = label.ranks[r]
            idx = index_per_rank[r].get(name)
            if idx is None:
                idx = len(names_per_rank[r])
                names_per_rank[r].append(name)
                index_per_rank[r][name] = idx
                if r > 0:
                    parent[r][idx] = prev_idx
            elif r > 0 and parent[r][idx] != prev_idx:
                old_parent = names_per_rank[r - 1][parent[r][idx]]
                new_parent = names_per_rank[r - 1][prev_idx]
                raise TaxonomyConflictError(
                    f"{RANKS[r]} '{name}' appears under both "
                    f"{RANKS[r - 1]} '{old_parent}' and {RANKS[r - 1]} '{new_parent}'"
                )
            freq[r][idx] = freq[r].get(idx, 0) + 1
            prev_idx = idx

    return Taxonomy(
        names_per_rank=names_per_rank,
        parent=[
            np.array([parent[r][i] for i in range(len(names_per_rank[r]))], dtype=np.int64)
            if r > 0
            else np.zeros(0, dtype=np.int64)
            for r in range(N_RANKS)
        ],
        freq_per_rank=[
            np.array([freq[r][i] for i in range(len(names_per_rank[r]))], dtype=np.int64)
            for r in range(N_RANKS)
        ],
    )


def class_weights(taxonomy: Taxonomy) -> ClassWeights:
    """Per class: freq^(-1/2), then each rank rescaled so its mean weight is 1."""
    per_rank = []
    for r in range(N_RANKS):
        freq = taxonomy.freq_per_rank[r].astype(np.float64)
        if freq.size and freq.min() < 1:
            raise ConfigError(f"rank {RANKS[r]} has a zero-frequency class")
        raw = freq ** -0.5 if freq.size else freq
        per_rank.append(raw / raw.mean() if raw.size else raw)
    return ClassWeights(per_rank)


def _smoothed(taxonomy: Taxonomy, rank: int, y: np.ndarray, mode: str, epsilon: float) -> np.ndarray:
    """(len(y), n_classes(rank)) smoothed distributions around the true classes y."""
    n = taxonomy.n_classes(rank)
    rows = np.arange(len(y))
    if mode == "none" or epsilon == 0.0 or n == 1:
        q = np.zeros((len(y), n))
        q[rows, y] = 1.0
        return q
    q = np.full((len(y), n), epsilon / (n - 1))
    if mode == "hierarchical":
        # spread epsilon proportionally to shared-ancestor depth (kingdom = 1),
        # the number of ancestors two classes share; a class alone in its
        # kingdom at this rank keeps the uniform spread
        shared = np.zeros((len(y), n), dtype=np.int8)
        for col in taxonomy.ancestors[rank].T.copy():  # each rank's ancestors, contiguous
            shared += col == col[y][:, None]
        s = shared.astype(np.float64)
        s[rows, y] = 0.0
        total = s.sum(axis=1, keepdims=True)
        np.divide(epsilon * s, total, out=q, where=total != 0.0)
    q[rows, y] = 1.0 - epsilon
    return q


def _lift_rows(q: np.ndarray, to: np.ndarray, n: int) -> np.ndarray:
    """(B, n): each row of q (B, m) summed into the classes `to` (m,) names, by one
    bincount over row * n + `to` keys, which adds each row's columns in order."""
    b = len(q)
    keys = (np.arange(b) * n)[:, None] + to
    lifted = np.bincount(keys.ravel(), weights=q.ravel(), minlength=b * n).reshape(b, n)
    return lifted.astype(np.float64, copy=False)  # a bincount of nothing is int


def batch_targets(targets: list[TargetDistribution]) -> tuple[np.ndarray, list[np.ndarray]]:
    """A batch's class indices (B, N_RANKS), -1 where unlabelled, and per rank its
    (B, n_classes) target distributions, zero where unlabelled. From species up,
    rows start from their smoothed vector at their deepest rank, and `_lift_rows`
    over the parent links lifts every row a rank up, adding in the order a
    one-record lift does. A batch mixing taxonomies or smoothing raises.
    """
    taxonomy, mode, epsilon = targets[0].taxonomy, targets[0].mode, targets[0].epsilon
    if any(t.taxonomy is not taxonomy or t.mode != mode or t.epsilon != epsilon
           for t in targets):
        raise ConfigError("a batch's targets must share one taxonomy, smoothing mode and epsilon")
    b = len(targets)
    index = np.array([[-1 if i is None else i for i in t.true_index] for t in targets])
    deepest = (index >= 0).sum(axis=1) - 1
    dists: list[np.ndarray] = [None] * N_RANKS
    for r in range(N_RANKS - 1, -1, -1):
        n = taxonomy.n_classes(r)
        q = (np.zeros((b, n)) if r == N_RANKS - 1
             else _lift_rows(dists[r + 1], taxonomy.parent[r + 1], n))
        q[deepest == r] = _smoothed(taxonomy, r, index[deepest == r, r], mode, epsilon)
        dists[r] = q
    return index, dists


def smooth_target(
    taxonomy: Taxonomy,
    label: TaxonomicLabel,
    mode: str = "hierarchical",
    epsilon: float = 0.1,
) -> TargetDistribution:
    """The training target of one label.

    The deepest labelled rank receives the smoothed distribution; shallower
    ranks get it lifted through the parent chain, and deeper ranks are masked
    out. `mode` is one of none/standard/hierarchical.
    """
    if mode not in SMOOTHING_MODES:
        raise ConfigError(f"mode must be one of {SMOOTHING_MODES}, got '{mode}'")
    if not 0.0 <= epsilon < 1.0:
        raise ConfigError(f"epsilon must be in [0,1), got {epsilon}")
    depth = label.depth
    true_index: tuple[int | None, ...] = (None,) * N_RANKS
    if depth:
        deepest = depth - 1
        y = taxonomy.index_per_rank[deepest].get(label.ranks[deepest])
        if y is None:
            raise ConfigError(f"unknown {RANKS[deepest]} class '{label.ranks[deepest]}'")
        true_index = tuple(taxonomy.ancestors[deepest][y].tolist()) + true_index[depth:]
    return TargetDistribution(taxonomy, true_index, mode, epsilon)


def truncate_to_known(taxonomy: Taxonomy, label: TaxonomicLabel) -> TaxonomicLabel:
    """Longest label prefix whose classes all exist in this taxonomy.

    Lets targets be built for records carrying classes never seen in training;
    the unknown tail is simply left unlabelled (and so masked out of losses).
    """
    depth = 0
    for r in range(label.depth):
        name = label.ranks[r]
        if name not in taxonomy.index_per_rank[r]:
            break
        if r > 0:
            idx = taxonomy.index_per_rank[r][name]
            parent_idx = taxonomy.index_per_rank[r - 1][label.ranks[r - 1]]
            if int(taxonomy.parent[r][idx]) != parent_idx:
                break
        depth = r + 1
    return label.truncated(depth)


def lift_species_probs(
    taxonomy: Taxonomy, species_probs: np.ndarray, mode: str = "sum"
) -> list[np.ndarray]:
    """The seven (B, n_classes(r)) rank distributions of species probabilities (B, n_species):
    "sum" adds each row's probabilities into their ancestors by `_lift_rows` and keeps the
    float64 input as the species rank; "argmax_path" puts all of a row's mass on the
    ancestors of its first most probable species."""
    if mode not in LIFT_MODES:
        raise ConfigError(f"mode must be one of {LIFT_MODES}, got '{mode}'")
    probs = np.asarray(species_probs, dtype=np.float64)
    n_species = taxonomy.n_classes(N_RANKS - 1)
    if probs.ndim != 2 or probs.shape[1] != n_species:
        raise ShapeError(f"species_probs shape {probs.shape} != (B, {n_species})")
    if not np.isfinite(probs).all() or (probs < 0).any():
        raise ConfigError("species_probs must be finite and non-negative")
    off = np.abs(probs.sum(axis=1) - 1.0) > 1e-6
    if off.any():
        raise ConfigError(f"species_probs rows must sum to 1, row {off.argmax()} does not")

    anc = taxonomy.ancestors[N_RANKS - 1]
    if mode == "sum":
        return [_lift_rows(probs, anc[:, r], taxonomy.n_classes(r))
                for r in range(N_RANKS - 1)] + [probs]
    paths = anc[probs.argmax(axis=1)]
    out = [np.zeros((len(probs), taxonomy.n_classes(r))) for r in range(N_RANKS)]
    for r, v in enumerate(out):
        v[np.arange(len(probs)), paths[:, r]] = 1.0
    return out

"""Selective state-space sequence classifier.

The network is: token embedding, a stack of identical pre-norm blocks (gated
selective-scan mixer followed by an MLP, each behind a layer norm and a
residual), a final layer norm, and output heads for next-token prediction and
per-rank classification.

Per head h the mixer's recurrence over positions t is

    H_t = exp(delta_t * a_h) * H_{t-1} + delta_t * (x_t outer B_t)
    y_t = H_t @ C_t + D_h * x_t,        H_0 = 0

with H_t a (p x N) state, delta positive via softplus and a_h < 0. One B_t and
one C_t of length N per position are shared by every head.

The scan is one graph node, computed in the chunked (SSD) form of Dao & Gu
2024 ("Transformers are SSMs", arXiv:2405.21060, section 6). Positions are cut
into chunks of at most CHUNK. Inside a chunk the output is a few batched
matmuls: C·Bᵀ once for all heads, times a per-head causal decay
exp(segsum(delta*a)), times x. The state entering each chunk is carried across
the chunks by a short loop, and its share of the output is one more matmul.
The node's adjoint is the same matmuls reversed. It keeps only the state
entering each chunk, (Bsz, ceil(T/CHUNK), H, p, N), and rebuilds the chunk
terms from the inputs; under no_grad nothing is kept. The tests check the node
against the per-position recurrence and its hand-derived adjoint (in f64 at
several chunk lengths, and in f32 after a large step), finite differences, a
per-head sequential scan, a reference chunked scan and a dense quadratic-time
oracle.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import numcore as nc
from .errors import ConfigError, ContractError, ShapeError, check_field_types
from .numcore import Tensor
from .records import N_RANKS

HEAD_MODES = ("multi", "single")
# the ModelConfig fields that shape the backbone's parameters: a checkpoint
# fine-tunes only into a model that agrees with it on all of them
BACKBONE_FIELDS = ("vocab_size", "d_model", "n_blocks", "head_dim", "expand", "d_state",
                   "conv_kernel")


def head_ranks(head_mode: str) -> tuple[int, ...]:
    """Ranks with a classification head: all seven (multi) or species only (single).
    Any other mode is a ConfigError."""
    if head_mode not in HEAD_MODES:
        raise ConfigError(f"head_mode must be one of {HEAD_MODES}, got '{head_mode}'")
    return tuple(range(N_RANKS)) if head_mode == "multi" else (N_RANKS - 1,)


@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_blocks: int = 2
    head_dim: int = 16
    expand: int = 2
    d_state: int = 64
    conv_kernel: int = 4
    max_len: int = 1024
    head_mode: str = "multi"

    def __post_init__(self):
        check_field_types(self)
        for name in BACKBONE_FIELDS + ("max_len",):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if (self.expand * self.d_model) % self.head_dim != 0:
            raise ConfigError(
                f"expand*d_model = {self.expand * self.d_model} "
                f"not divisible by head_dim = {self.head_dim}"
            )
        head_ranks(self.head_mode)  # raises ConfigError for an unknown mode

    @property
    def d_inner(self) -> int:
        return self.expand * self.d_model

    @property
    def n_heads(self) -> int:
        return self.d_inner // self.head_dim


def preset_config(name: str, vocab_size: int, **overrides) -> ModelConfig:
    """Named model sizes; dimensions chosen for this artifact, not published ones."""
    presets = {
        "tiny": dict(d_model=64, n_blocks=2, head_dim=16, d_state=16),
        "base": dict(d_model=256, n_blocks=6, head_dim=64, d_state=64),
        "large": dict(d_model=512, n_blocks=10, head_dim=64, d_state=64),
    }
    if name not in presets:
        raise ConfigError(f"unknown preset '{name}', have {sorted(presets)}")
    kwargs = dict(presets[name])
    kwargs.update(overrides)
    return ModelConfig(vocab_size=vocab_size, **kwargs)


# ---------------------------------------------------------------------------
# scan kernel

CHUNK = 16  # positions per chunk of the SSD form


def _chunking(T: int, chunk: int) -> tuple[int, int]:
    """K = ceil(T/chunk) chunks of L = ceil(T/K) <= chunk positions, so K*L - T < K."""
    K = max(1, -(-T // chunk))
    return K, max(1, -(-T // K))


def _chunked(v: np.ndarray, K: int, L: int) -> np.ndarray:
    """(Bsz,T,...) -> (Bsz,K,L,...), zero-padded after position T.

    A padded position has delta 0: it neither decays the state nor feeds it.
    """
    if v.shape[1] != K * L:
        padded = np.zeros((v.shape[0], K * L) + v.shape[2:], dtype=v.dtype)
        padded[:, :v.shape[1]] = v
        v = padded
    return v.reshape(v.shape[0], K, L, *v.shape[2:])


@functools.lru_cache(maxsize=None)
def _cumsum_matrix(L: int, dtype) -> np.ndarray:
    """The read-only (L, L*L + L) 0/1 matrix Q: for one chunk's log decays u, u @ Q is

        segsum[t, s] = sum of u[r] over s < r <= t  (0 where t <= s), flattened,
        cum[t]       = sum of u[r] over r <= t.

    Both are cumsums over t of u masked to r > s (segsum) or unmasked (cum),
    taken as one matmul. Each entry sums its own terms, all <= 0; none is a
    difference cum[t] - cum[s], which in f32 loses the small steps that follow
    a large one.
    """
    r = np.arange(L)
    t, s, q = r[:, None, None], r[None, :, None], r[None, None, :]
    seg = ((s < q) & (q <= t)).reshape(L * L, L)
    cum = r[None, :] <= r[:, None]
    Q = np.concatenate([seg, cum]).T.astype(dtype)
    Q.flags.writeable = False  # cached: every call shares it
    return Q


@functools.lru_cache(maxsize=None)
def _causal_mask(L: int, dtype) -> np.ndarray:
    """The read-only np.tri(L): 1 on and below the diagonal, 0 above."""
    mask = np.tri(L, dtype=dtype)
    mask.flags.writeable = False  # cached: every call shares it
    return mask


def _chunk_terms(delta, a, B, C, K, L):
    """What the forward and the backward both build per chunk, from the inputs.

    Returns delta (Bsz,K,H,L); the causal decays W (Bsz,K,H,L,L), W[t,s] =
    exp(segsum[t,s]) for s <= t and 0 above the diagonal; the decays since the
    chunk start E (Bsz,K,H,L), E[t] = exp(cum[t]); B and C (Bsz,K,L,N); and
    C·Bᵀ (Bsz,K,L,L), built once for all heads since B and C are shared.
    """
    Bsz, H = delta.shape[0], a.shape[0]
    dt = _chunked(delta, K, L).transpose(0, 1, 3, 2)
    sums = (dt * a[:, None]) @ _cumsum_matrix(L, delta.dtype)
    W = np.exp(sums[..., :L * L].reshape(Bsz, K, H, L, L)) * _causal_mask(L, delta.dtype)
    E = np.exp(sums[..., L * L:])
    Bc, Cc = _chunked(B, K, L), _chunked(C, K, L)
    return dt, W, E, Bc, Cc, Cc @ Bc.swapaxes(-1, -2)


def _ssd_forward(x, delta, a, B, C, D, chunk):
    """y of the recurrence, and the state entering each chunk, S (Bsz,K,H,P,N)."""
    Bsz, T, H, P = x.shape
    N = B.shape[-1]
    K, L = _chunking(T, chunk)
    dt, W, E, Bc, Cc, CB = _chunk_terms(delta, a, B, C, K, L)
    xc = _chunked(x, K, L)  # (Bsz,K,L,H,P)
    # inside a chunk, y[t] = sum over s <= t of (C_t·B_s) W[t,s] delta_s x_s
    M = CB[:, :, None] * W * dt[..., None, :]
    y_intra = M @ xc.transpose(0, 1, 3, 2, 4)
    # each chunk's own inputs at its end, carried across the chunks
    w_end = (W[..., -1, :] * dt).transpose(0, 1, 3, 2)[..., None]  # (Bsz,K,L,H,1)
    Z = (xc * w_end).reshape(Bsz, K, L, H * P).swapaxes(-1, -2) @ Bc
    Z = Z.reshape(Bsz, K, H, P, N)
    decay = E[..., -1, None, None]
    S = np.zeros_like(Z)
    for k in range(1, K):
        S[:, k] = decay[:, k - 1] * S[:, k - 1] + Z[:, k - 1]
    # the entering state's share, E[t] (C_t·S), for all heads in one matmul
    y = (Cc @ S.reshape(Bsz, K, H * P, N).swapaxes(-1, -2)).reshape(Bsz, K, L, H, P)
    y *= E.transpose(0, 1, 3, 2)[..., None]
    y += y_intra.transpose(0, 1, 3, 2, 4)
    return y.reshape(Bsz, K * L, H, P)[:, :T] + D[:, None] * x, S


def _ssd_backward(g, x, delta, a, B, C, D, S, chunk):
    """Adjoint of _ssd_forward: its matmuls reversed, the chunk terms rebuilt from
    the inputs. dB and dC sum over the heads that share B and C."""
    Bsz, T, H, P = x.shape
    N = B.shape[-1]
    K, L = _chunking(T, chunk)
    dt, W, E, Bc, Cc, CB = _chunk_terms(delta, a, B, C, K, L)
    xc, gc = _chunked(x, K, L), _chunked(g, K, L)
    E_l = E.transpose(0, 1, 3, 2)[..., None]  # (Bsz,K,L,H,1)
    S_f = S.reshape(Bsz, K, H * P, N)
    # the entering state's share
    gE = (gc * E_l).reshape(Bsz, K, L, H * P)
    dC = gE @ S_f
    gS = (gE.swapaxes(-1, -2) @ Cc).reshape(Bsz, K, H, P, N)
    CS = (Cc @ S_f.swapaxes(-1, -2)).reshape(Bsz, K, L, H, P)
    dcum = np.einsum("bklhp,bklhp->bkhl", gc, CS) * E
    # the carry S[k+1] = decay[k] S[k] + Z[k], backwards; gZ[:, k] is the
    # gradient of the state leaving chunk k
    decay = E[..., -1]
    gZ = np.empty_like(S)
    gZ[:, -1] = 0.0
    for k in range(K - 1, 0, -1):
        gZ[:, k - 1] = gS[:, k] + decay[:, k, :, None, None] * gZ[:, k]
    dcum[..., -1] += np.einsum("bkhpn,bkhpn->bkh", gZ, S) * decay
    # the chunk-end inputs Z = (w_end x)ᵀ·B
    w_end = W[..., -1, :] * dt
    w_end_l = w_end.transpose(0, 1, 3, 2)[..., None]
    gZ_f = gZ.reshape(Bsz, K, H * P, N)
    R = (Bc @ gZ_f.swapaxes(-1, -2)).reshape(Bsz, K, L, H, P)
    dx = w_end_l * R
    dB = (xc * w_end_l).reshape(Bsz, K, L, H * P) @ gZ_f
    dw_end = np.einsum("bklhp,bklhp->bkhl", xc, R)
    # inside a chunk, y = M·x with M = C·Bᵀ * W * delta_s
    xh, gh = xc.transpose(0, 1, 3, 2, 4), gc.transpose(0, 1, 3, 2, 4)
    M = CB[:, :, None] * W * dt[..., None, :]
    dx += (M.swapaxes(-1, -2) @ gh).transpose(0, 1, 3, 2, 4)
    dMW = (gh @ xh.swapaxes(-1, -2)) * W
    dCB = np.einsum("bkhts,bkhs->bkts", dMW, dt)
    dMW *= CB[:, :, None]
    ddt = np.einsum("bkhts->bkhs", dMW) + dw_end * W[..., -1, :]
    dseg = dMW * dt[..., None, :]
    dseg[..., -1, :] += dw_end * w_end
    dC += dCB @ Bc
    dB += dCB.swapaxes(-1, -2) @ Cc
    # through the masked cumsums to the log decays delta*a
    Q = _cumsum_matrix(L, x.dtype)
    ddA = (dseg.reshape(-1, L * L) @ Q[:, :L * L].T
           + dcum.reshape(-1, L) @ Q[:, L * L:].T).reshape(dcum.shape)
    ddt += ddA * a[:, None]
    return (dx.reshape(Bsz, K * L, H, P)[:, :T] + D[:, None] * g,
            ddt.transpose(0, 1, 3, 2).reshape(Bsz, K * L, H)[:, :T],
            np.einsum("bkhl,bkhl->h", ddA, dt),
            dB.reshape(Bsz, K * L, N)[:, :T],
            dC.reshape(Bsz, K * L, N)[:, :T],
            np.einsum("bthp,bthp->h", g, x))


def scan_op(x: Tensor, delta: Tensor, a: Tensor, B: Tensor, C: Tensor, D: Tensor, *,
            _chunk: int = CHUNK) -> Tensor:
    """Differentiable scan node: x (Bsz,T,H,P), delta (Bsz,T,H), a and D (H,),
    and B and C (Bsz,T,N) shared by every head. `_chunk` is for the tests."""
    if x.data.ndim != 4:
        raise ShapeError(f"x must be (Bsz,T,H,P), got {x.data.shape}")
    Bsz, T, H, P = x.data.shape
    N = B.data.shape[-1]
    if delta.data.shape != (Bsz, T, H):
        raise ShapeError(f"delta shape {delta.data.shape} != {(Bsz, T, H)}")
    if B.data.shape != (Bsz, T, N) or C.data.shape != (Bsz, T, N):
        raise ShapeError(f"B/C shapes {B.data.shape}/{C.data.shape} != {(Bsz, T, N)}")
    if a.data.shape != (H,) or D.data.shape != (H,):
        raise ShapeError(f"a/D shapes {a.data.shape}/{D.data.shape} != {(H,)}")
    y, S = _ssd_forward(x.data, delta.data, a.data, B.data, C.data, D.data, _chunk)

    def bw(g):
        return _ssd_backward(g, x.data, delta.data, a.data, B.data, C.data, D.data, S, _chunk)

    return nc.make_op(y, (x, delta, a, B, C, D), bw)


# ---------------------------------------------------------------------------
# parameters


@dataclass
class ModelState:
    """All trainable arrays plus the configuration they were built from."""

    config: ModelConfig
    params: dict[str, Tensor]
    class_counts: list[int] | None = None
    norm_param_names: set[str] = field(default_factory=set)

    def astype(self, dtype) -> "ModelState":
        cast = {
            k: Tensor(v.data.astype(dtype), requires_grad=v.requires_grad)
            for k, v in self.params.items()
        }
        return ModelState(self.config, cast, self.class_counts, set(self.norm_param_names))


def _normal(rng, shape, std, dtype):
    return Tensor(rng.normal(0.0, std, size=shape).astype(dtype), requires_grad=True)


def _const(value, shape, dtype):
    return Tensor(np.full(shape, value, dtype=dtype), requires_grad=True)


def init_model(cfg: ModelConfig, seed: int = 0, dtype=nc.F32) -> ModelState:
    """Backbone + LM head. Classification heads are attached separately."""
    rng = np.random.default_rng(seed)
    d, di, H = cfg.d_model, cfg.d_inner, cfg.n_heads
    params: dict[str, Tensor] = {}
    norms: set[str] = set()
    params["embedding"] = _normal(rng, (cfg.vocab_size, d), 0.02, dtype)
    for i in range(cfg.n_blocks):
        pre = f"blocks.{i}."
        for ln in ("ln1", "ln2"):
            params[pre + ln + "_g"] = _const(1.0, (d,), dtype)
            params[pre + ln + "_b"] = _const(0.0, (d,), dtype)
            norms.update({pre + ln + "_g", pre + ln + "_b"})
        params[pre + "w_val"] = _normal(rng, (d, di), 0.02, dtype)
        params[pre + "w_gate"] = _normal(rng, (d, di), 0.02, dtype)
        params[pre + "conv"] = _normal(rng, (di, cfg.conv_kernel), 0.02, dtype)
        params[pre + "w_dt"] = _normal(rng, (d, H), 0.02, dtype)
        # softplus(b_dt) lands in [1e-3, 1e-1] so the decay exp(delta*a) starts near 1
        dt0 = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), size=H))
        params[pre + "b_dt"] = Tensor(
            (dt0 + np.log(-np.expm1(-dt0))).astype(dtype), requires_grad=True
        )
        params[pre + "a_log"] = Tensor(
            rng.uniform(np.log(1.0), np.log(16.0), size=H).astype(dtype), requires_grad=True
        )
        params[pre + "w_B"] = _normal(rng, (d, cfg.d_state), 0.02, dtype)
        params[pre + "w_C"] = _normal(rng, (d, cfg.d_state), 0.02, dtype)
        params[pre + "skip_D"] = _const(1.0, (H,), dtype)
        params[pre + "w_out"] = _normal(rng, (di, d), 0.02, dtype)
        params[pre + "mlp_w1"] = _normal(rng, (d, 4 * d), 0.02, dtype)
        params[pre + "mlp_b1"] = _const(0.0, (4 * d,), dtype)
        params[pre + "mlp_w2"] = _normal(rng, (4 * d, d), 0.02, dtype)
        params[pre + "mlp_b2"] = _const(0.0, (d,), dtype)
    params["final_ln_g"] = _const(1.0, (d,), dtype)
    params["final_ln_b"] = _const(0.0, (d,), dtype)
    norms.update({"final_ln_g", "final_ln_b"})
    params["lm_head"] = _const(0.0, (d, cfg.vocab_size), dtype)  # uniform logits at init
    return ModelState(cfg, params, norm_param_names=norms)


def add_classification_heads(state: ModelState, class_counts: list[int], seed: int = 0):
    """Attach fresh linear heads: one per rank (multi) or species only (single)."""
    if len(class_counts) != N_RANKS:
        raise ConfigError(f"need {N_RANKS} class counts, got {len(class_counts)}")
    rng = np.random.default_rng(seed)
    dtype = state.params["embedding"].data.dtype
    d = state.config.d_model
    for r in head_ranks(state.config.head_mode):
        if class_counts[r] < 1:
            raise ConfigError(f"rank {r} has no classes; cannot build a head")
        state.params[f"heads.{r}.w"] = _normal(rng, (d, class_counts[r]), 0.02, dtype)
        state.params[f"heads.{r}.b"] = _const(0.0, (class_counts[r],), dtype)
    state.class_counts = list(class_counts)


# ---------------------------------------------------------------------------
# forward passes


def block_forward(params: dict[str, Tensor], prefix: str, x: Tensor, cfg: ModelConfig) -> Tensor:
    """One pre-norm block: x + Mixer(LN(x)), then u + MLP(LN(u)). x is (Bsz,T,d)."""
    p = {k[len(prefix):]: v for k, v in params.items() if k.startswith(prefix)}
    Bsz, T, _ = x.data.shape
    H, P = cfg.n_heads, cfg.head_dim

    mix_in = nc.layer_norm(x, p["ln1_g"], p["ln1_b"])
    value = nc.silu(nc.causal_depthwise_conv(nc.matmul(mix_in, p["w_val"]), p["conv"]))
    gate = nc.matmul(mix_in, p["w_gate"])
    delta = nc.softplus(nc.add(nc.matmul(mix_in, p["w_dt"]), p["b_dt"]))  # (Bsz,T,H)
    Bm = nc.matmul(mix_in, p["w_B"])
    Cm = nc.matmul(mix_in, p["w_C"])
    a = nc.neg(nc.exp(p["a_log"]))

    xh = nc.reshape(value, (Bsz, T, H, P))
    y = scan_op(xh, delta, a, Bm, Cm, p["skip_D"])
    y = nc.mul(nc.reshape(y, (Bsz, T, cfg.d_inner)), nc.silu(gate))
    u = nc.add(x, nc.matmul(y, p["w_out"]))

    mlp_in = nc.layer_norm(u, p["ln2_g"], p["ln2_b"])
    hidden = nc.silu(nc.add(nc.matmul(mlp_in, p["mlp_w1"]), p["mlp_b1"]))
    return nc.add(u, nc.add(nc.matmul(hidden, p["mlp_w2"]), p["mlp_b2"]))


def model_forward(state: ModelState, token_ids: np.ndarray, pad_mask: np.ndarray) -> Tensor:
    """Embed, run the block stack and the final norm. Returns (Bsz,T,d) hidden states.

    `pad_mask` is 1.0 at real positions and 0.0 at PAD, and each row must be
    right-padded: a real position after a PAD raises ShapeError. Every op is
    per-position or causal, so real positions never read the PAD positions
    after them; the mask is applied once, to the output, which leaves PAD rows
    zero for `classify`'s pool. (Zeroing between blocks would not keep PAD out
    of a block anyway: its layer norm turns a zero row into the bias.)
    T above `config.max_len` raises ShapeError.
    """
    token_ids = np.asarray(token_ids)
    if token_ids.ndim != 2:
        raise ShapeError(f"token_ids must be (batch, T), got {token_ids.shape}")
    if token_ids.shape[1] > state.config.max_len:
        raise ShapeError(f"sequences of {token_ids.shape[1]} tokens exceed max_len "
                         f"{state.config.max_len}")
    dtype = state.params["embedding"].data.dtype
    mask = np.asarray(pad_mask, dtype=dtype)
    if mask.shape != token_ids.shape or np.any(mask[:, 1:] > mask[:, :-1]):
        raise ShapeError(f"pad_mask must be a right-padded {token_ids.shape} mask")
    h = nc.embedding_lookup(state.params["embedding"], token_ids)
    for i in range(state.config.n_blocks):
        h = block_forward(state.params, f"blocks.{i}.", h, state.config)
    h = nc.layer_norm(h, state.params["final_ln_g"], state.params["final_ln_b"])
    return nc.mul(h, Tensor(mask[:, :, None]))


def lm_logits(state: ModelState, hidden: Tensor) -> Tensor:
    """Next-token logits; position t predicts token t+1."""
    return nc.matmul(hidden, state.params["lm_head"])


def classify(state: ModelState, hidden: Tensor, pad_mask: np.ndarray) -> list[Tensor]:
    """Mean-pool non-PAD hidden states and apply the classification heads.

    `hidden` must be zero at PAD, as `model_forward` leaves it: the pool sums
    every position and divides by each row's count of non-PAD ones. Returns
    seven logit tensors in rank order (multi) or a single species tensor (single).
    """
    if state.class_counts is None:
        raise ContractError("model has no classification heads")
    counts = np.asarray(pad_mask, dtype=hidden.data.dtype).sum(axis=1)
    if np.any(counts == 0):
        raise ContractError("a sample in the batch has no non-PAD positions")
    pooled = nc.mul(nc.tsum(hidden, axis=1),
                    Tensor((1.0 / counts)[:, None].astype(hidden.data.dtype)))
    return [
        nc.add(nc.matmul(pooled, state.params[f"heads.{r}.w"]), state.params[f"heads.{r}.b"])
        for r in head_ranks(state.config.head_mode)
    ]

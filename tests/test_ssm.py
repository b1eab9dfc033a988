import numpy as np
import pytest

from taxossm import numcore as nc
from taxossm import ssm
from taxossm.errors import ConfigError, ContractError, ShapeError
from taxossm.numcore import Tensor
from taxossm.ssm import (
    ModelConfig,
    add_classification_heads,
    block_forward,
    classify,
    head_ranks,
    init_model,
    lm_logits,
    model_forward,
    preset_config,
    scan_op,
)
from taxossm.tokenizers import PAD


def random_scan_inputs(rng, T=32, H=3, P=4, N=8, dtype=np.float64):
    x = rng.normal(size=(T, H, P)).astype(dtype)
    delta = (np.exp(rng.normal(size=(T, H)) * 0.4) * 0.05).astype(dtype)
    a = (-np.exp(rng.uniform(0.0, 1.5, size=H))).astype(dtype)
    B = rng.normal(size=(T, H, N)).astype(dtype)
    C = rng.normal(size=(T, H, N)).astype(dtype)
    D = rng.normal(size=H).astype(dtype)
    return x, delta, a, B, C, D


def dense_quadratic_scan(x, delta, a, B, C, D):
    """Materializes the full T x T causal mixing matrix per head."""
    T, H, P = x.shape
    y = np.zeros_like(x)
    for h in range(H):
        M = np.zeros((T, T), dtype=x.dtype)
        for t in range(T):
            for s in range(t + 1):
                decay = np.exp(np.sum(delta[s + 1:t + 1, h] * a[h]))
                M[t, s] = (C[t, h] @ B[s, h]) * decay * delta[s, h]
        y[:, h, :] = M @ x[:, h, :] + D[h] * x[:, h, :]
    return y


def sequential_scan(x, delta, a, B, C, D):
    """Reference recurrence, one position at a time, with a B and C per head.

    Shapes: x (T,H,P), delta (T,H), a (H,), B and C (T,H,N), D (H,).
    """
    T, H, P = x.shape
    state = np.zeros((H, P, B.shape[-1]), dtype=x.dtype)
    y = np.empty_like(x)
    for t in range(T):
        state = np.exp(delta[t] * a)[:, None, None] * state + delta[t][:, None, None] * (
            x[t][:, :, None] * B[t][:, None, :])
        y[t] = np.einsum("hpn,hn->hp", state, C[t]) + D[:, None] * x[t]
    return y


def chunked_scan(x, delta, a, B, C, D, chunk_size):
    """Block-processed scan: dense within each chunk, state carried between chunks.

    Same shapes as sequential_scan; the dense intra-chunk form (Dao & Gu 2024,
    arXiv:2405.21060, section 6) computes the same recurrence in another order.
    """
    T, H, P = x.shape
    y = np.empty_like(x)
    state = np.zeros((H, P, B.shape[-1]), dtype=x.dtype)
    for s in range(0, T, chunk_size):
        e = min(s + chunk_size, T)
        xq, dq, Bq, Cq = x[s:e], delta[s:e], B[s:e], C[s:e]
        cum = np.cumsum(dq * a, axis=0)  # (q,H) log decay from the chunk start, <= 0
        causal = np.tril(np.ones((e - s, e - s), dtype=bool))[:, :, None]
        decay = np.exp(np.where(causal, cum[:, None, :] - cum[None, :, :], -np.inf))
        weights = np.einsum("thn,uhn->tuh", Cq, Bq) * decay * dq[None, :, :]
        y_intra = np.einsum("tuh,uhp->thp", weights, xq)
        y_state = np.exp(cum)[:, :, None] * np.einsum("hpn,thn->thp", state, Cq)
        y[s:e] = y_intra + y_state + D[None, :, None] * xq
        carry = np.exp(cum[-1:] - cum) * dq  # (q,H)
        state = np.exp(cum[-1])[:, None, None] * state + np.einsum(
            "uh,uhp,uhn->hpn", carry, xq, Bq)
    return y


def reference_scan_forward(x, delta, a, B, C, D):
    """The recurrence one position at a time, batched, with B and C shared by the
    heads: x (Bsz,T,H,P), delta (Bsz,T,H), B and C (Bsz,T,N). Also returns the
    decays and every per-step state, which reference_scan_backward reads."""
    Bsz, T, H, P = x.shape
    A = np.exp(delta * a)  # (Bsz,T,H)
    Hs = np.empty((Bsz, T, H, P, B.shape[-1]), dtype=x.dtype)
    state = np.zeros((Bsz, H, P, B.shape[-1]), dtype=x.dtype)
    y = np.empty_like(x)
    for t in range(T):
        state = A[:, t, :, None, None] * state + delta[:, t, :, None, None] * (
            x[:, t, :, :, None] * B[:, t, None, None, :])
        Hs[:, t] = state
        y[:, t] = np.einsum("bhpn,bn->bhp", state, C[:, t])
    return y + D[None, None, :, None] * x, A, Hs


def reference_scan_backward(g, x, delta, a, B, C, D, A, Hs):
    """Adjoint of reference_scan_forward, one position at a time, backwards."""
    Bsz, T, H, P = x.shape
    dD = np.einsum("bthp,bthp->h", g, x)
    dx = D[None, None, :, None] * g
    ddelta = np.empty_like(delta)
    dB = np.empty_like(B)
    dC = np.empty_like(C)
    da = np.zeros_like(a)
    G = np.zeros((Bsz, H, P, Hs.shape[-1]), dtype=x.dtype)
    for t in range(T - 1, -1, -1):
        G = G + g[:, t, :, :, None] * C[:, t, None, None, :]
        # sum per head, then over heads: one f32 pass over all H*P terms
        # doubles the rounding error of dB and dC
        dC[:, t] = np.einsum("bhpn,bhp->bhn", Hs[:, t], g[:, t]).sum(axis=1)
        h_prev = Hs[:, t - 1] if t > 0 else np.zeros_like(G)
        s_decay = np.einsum("bhpn,bhpn->bh", G, h_prev)
        s_input = np.einsum("bhpn,bhpn->bh", G, x[:, t, :, :, None] * B[:, t, None, None, :])
        ddelta[:, t] = s_decay * a * A[:, t] + s_input
        da += np.einsum("bh,bh->h", s_decay, delta[:, t] * A[:, t])
        dx[:, t] += delta[:, t, :, None] * np.einsum("bhpn,bn->bhp", G, B[:, t])
        dB[:, t] = (delta[:, t, :, None] * np.einsum("bhpn,bhp->bhn", G, x[:, t])).sum(axis=1)
        G = A[:, t, :, None, None] * G
    return dx, ddelta, da, dB, dC, dD


def scan_node_grads(args, g, **kw):
    """y and the six input gradients of the package scan node under the cotangent g."""
    params = [Tensor(v, requires_grad=True) for v in args]
    y = scan_op(*params, **kw)
    nc.backward(nc.tsum(nc.mul(y, Tensor(g))))
    return y.data, [p.grad for p in params]


def batched_scan_inputs(rng, Bsz=2, T=22, H=3, P=4, N=5):
    """f64 inputs of the package's shapes: x (Bsz,T,H,P), delta (Bsz,T,H), B and C (Bsz,T,N)."""
    x = rng.normal(size=(Bsz, T, H, P))
    delta = np.exp(rng.normal(size=(Bsz, T, H)) * 0.4) * 0.05
    a = -np.exp(rng.uniform(0.0, 1.5, size=H))
    B = rng.normal(size=(Bsz, T, N))
    C = rng.normal(size=(Bsz, T, N))
    D = rng.normal(size=H)
    return x, delta, a, B, C, D


def max_rel(u, v):
    return np.abs(u - v).max() / max(np.abs(v).max(), 1e-30)


def shared_scan(x, delta, a, B, C, D):
    """The package kernel on one sequence: x (T,H,P), delta (T,H), B and C (T,N)."""
    args = (x[None], delta[None], a, B[None], C[None], D)
    return scan_op(*(Tensor(v) for v in args)).data[0]


def per_head(M, H):
    """A shared (T,N) B or C repeated for each of H heads, as the oracles take it."""
    return np.broadcast_to(M[:, None, :], (M.shape[0], H, M.shape[1]))


# ---------------------------------------------------------------------------
# scan kernel


def test_scan_zero_delta_is_pure_skip(rng):
    x, delta, a, B, C, D = random_scan_inputs(rng)
    y = shared_scan(x, np.zeros_like(delta), a, B[:, 0], C[:, 0], D)
    assert np.array_equal(y, D[None, :, None] * x)


def test_scan_single_step_closed_form(rng):
    x, delta, a, B, C, D = random_scan_inputs(rng, T=1)
    y = shared_scan(x, delta, a, B[:, 0], C[:, 0], D)
    # y_1 = delta_1 * (x_1 outer B_1) @ C_1 + D * x_1
    explicit = (np.einsum("hp,n,n->hp", delta[0, :, None] * x[0], B[0, 0], C[0, 0])
                + D[:, None] * x[0])
    assert np.allclose(y[0], explicit, atol=1e-12)


def test_scan_matches_dense_oracle(rng):
    for T in (8, 32, 64):
        x, delta, a, B, C, D = random_scan_inputs(rng, T=T)
        H = x.shape[1]
        y = shared_scan(x, delta, a, B[:, 0], C[:, 0], D)
        dense = dense_quadratic_scan(x, delta, a, per_head(B[:, 0], H), per_head(C[:, 0], H), D)
        assert np.abs(y - dense).max() < 1e-5


def test_chunked_matches_sequential_f32(rng):
    x, delta, a, B, C, D = random_scan_inputs(rng, T=64, dtype=np.float32)
    H = x.shape[1]
    y_seq = shared_scan(x, delta, a, B[:, 0], C[:, 0], D)
    for cs in (1, 7, 16, 64):
        y_ch = chunked_scan(x, delta, a, per_head(B[:, 0], H), per_head(C[:, 0], H), D, cs)
        assert np.abs(y_ch - y_seq).max() < 1e-5


def test_chunked_matches_sequential_f64(rng):
    x, delta, a, B, C, D = random_scan_inputs(rng, T=48, dtype=np.float64)
    H = x.shape[1]
    y_seq = shared_scan(x, delta, a, B[:, 0], C[:, 0], D)
    for cs in (1, 7, 16, 48):
        y_ch = chunked_scan(x, delta, a, per_head(B[:, 0], H), per_head(C[:, 0], H), D, cs)
        assert np.abs(y_ch - y_seq).max() < 1e-10


T_ODD = 22  # no chunk length below divides it


@pytest.mark.parametrize("chunk", [1, 7, 16, T_ODD, T_ODD + 3])
def test_chunked_kernel_matches_reference_adjoint_f64(rng, chunk):
    args = batched_scan_inputs(rng, T=T_ODD)
    y_ref, A, Hs = reference_scan_forward(*args)
    g = rng.normal(size=y_ref.shape)
    y, grads = scan_node_grads(args, g, _chunk=chunk)
    assert max_rel(y, y_ref) < 1e-12
    for name, got, want in zip("x delta a B C D".split(), grads,
                               reference_scan_backward(g, *args, A, Hs)):
        assert got.shape == want.shape
        assert max_rel(got, want) < 1e-12, name


def test_chunked_kernel_f32_after_a_large_step_is_no_worse_than_the_loop(rng):
    # a large delta opens each chunk, tiny ones follow: segment sums taken as
    # differences of prefix sums would lose the tiny steps in f32 (about 100x
    # the loop's error on y and on da)
    args = batched_scan_inputs(rng, Bsz=1, T=48)
    args[1][:, ::16] = 200.0
    y64, A, Hs = reference_scan_forward(*args)
    g = rng.normal(size=y64.shape)
    want = [y64, *reference_scan_backward(g, *args, A, Hs)]
    args32 = [v.astype(np.float32) for v in args]
    g32 = g.astype(np.float32)
    y_loop, A32, Hs32 = reference_scan_forward(*args32)
    loop = [y_loop, *reference_scan_backward(g32, *args32, A32, Hs32)]
    y, grads = scan_node_grads(args32, g32)
    # the kernel sums in another order than the loop: a few f32 roundings apart
    slack = 8 * np.finfo(np.float32).eps
    for name, ours, theirs, ref in zip("y x delta a B C D".split(), [y, *grads], loop, want):
        assert ours.dtype == np.float32
        err, loop_err = max_rel(ours, ref), max_rel(theirs, ref)
        assert err <= loop_err + slack, (name, err, loop_err)


def _closure_arrays(fn, inputs):
    """Element count of the arrays a closure holds, other than the input buffers."""
    seen, total = {id(v) for v in inputs}, 0
    stack = [c.cell_contents for c in fn.__closure__ or ()]
    while stack:
        v = stack.pop()
        if isinstance(v, np.ndarray) and id(v) not in seen:
            seen.add(id(v))
            total += v.size
        elif isinstance(v, (tuple, list)):
            stack.extend(v)
        elif isinstance(v, dict):
            stack.extend(v.values())
    return total


@pytest.mark.parametrize("T", [1, 16, 45])
def test_scan_node_keeps_only_the_chunk_start_states(rng, T):
    Bsz, H, P, N = 2, 3, 4, 5
    args = batched_scan_inputs(rng, Bsz=Bsz, T=T, H=H, P=P, N=N)
    params = [Tensor(v, requires_grad=True) for v in args]
    y = scan_op(*params)
    held = _closure_arrays(y._backward, [p.data for p in params])
    assert held <= -(-T // ssm.CHUNK) * Bsz * H * P * N


def _scan_args():
    """Valid scan_op inputs with Bsz 2, T 5, H 3, P 4, N 6, in argument order."""
    rng = np.random.default_rng(0)
    return dict(x=rng.normal(size=(2, 5, 3, 4)), delta=np.full((2, 5, 3), 0.1),
                a=-np.ones(3), B=rng.normal(size=(2, 5, 6)),
                C=rng.normal(size=(2, 5, 6)), D=np.ones(3))


@pytest.mark.parametrize("name, shape", [
    ("x", (5, 3, 4)),          # no batch axis
    ("B", (2, 5, 3, 6)),       # a B per head
    ("C", (2, 5, 3, 6)),
    ("B", (2, 4, 6)),          # wrong T
    ("C", (1, 5, 6)),          # wrong batch
    ("C", (2, 5, 7)),          # disagrees with B on N
    ("delta", (2, 5, 4)),
    ("delta", (2, 5)),
    ("a", (4,)),
    ("D", (3, 1)),
])
def test_scan_op_rejects_bad_shapes(name, shape):
    args = _scan_args()
    args[name] = np.ones(shape)
    with pytest.raises(ShapeError):
        scan_op(*(Tensor(v) for v in args.values()))


def test_scan_op_gradient(rng):
    x, delta, a, B, C, D = random_scan_inputs(rng, T=12)

    def f(params):
        y = scan_op(*params)
        return nc.tsum(nc.mul(y, y))

    params = [Tensor(v if v.ndim == 1 else v[None], requires_grad=True, dtype=np.float64)
              for v in (x, delta, a, B[:, 0], C[:, 0], D)]
    assert nc.grad_check(f, params, step=1e-5, max_coords=16) < 1e-5


# ---------------------------------------------------------------------------
# block forward


def tiny_config(**kw):
    defaults = dict(vocab_size=11, d_model=8, n_blocks=1, head_dim=4, d_state=6,
                    conv_kernel=4, max_len=64)
    defaults.update(kw)
    return ModelConfig(**defaults)


def test_block_zero_input_zero_biases_gives_zero():
    cfg = tiny_config()
    state = init_model(cfg, seed=0)
    for name, p in state.params.items():
        if name.endswith(("_b", "b_dt", "mlp_b1", "mlp_b2")):
            p.data[:] = 0.0
    x = Tensor(np.zeros((1, 5, cfg.d_model), dtype=np.float32))
    out = block_forward(state.params, "blocks.0.", x, cfg)
    assert np.allclose(out.data, 0.0)


def test_block_causality_by_perturbation(rng):
    cfg = tiny_config()
    state = init_model(cfg, seed=1)
    x = rng.normal(size=(1, 7, cfg.d_model)).astype(np.float32)
    base = block_forward(state.params, "blocks.0.", Tensor(x), cfg).data
    for t in range(6):
        bumped = x.copy()
        bumped[:, t + 1:, :] += rng.normal(size=bumped[:, t + 1:, :].shape).astype(np.float32)
        out = block_forward(state.params, "blocks.0.", Tensor(bumped), cfg).data
        assert np.abs(out[:, :t + 1] - base[:, :t + 1]).max() < 1e-6


def reference_block(p, x, cfg):
    """Independent straight-line reimplementation of one block, per-position loops."""
    def ln(v, g, b):
        mu = v.mean(-1, keepdims=True)
        c = v - mu
        return c / np.sqrt((c * c).mean(-1, keepdims=True) + 1e-5) * g + b

    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    def silu(v):
        return v * sigmoid(v)

    T = x.shape[0]
    H, P, N, K = cfg.n_heads, cfg.head_dim, cfg.d_state, cfg.conv_kernel
    h = ln(x, p["ln1_g"], p["ln1_b"])
    val = h @ p["w_val"]
    padded = np.vstack([np.zeros((K - 1, val.shape[1])), val])
    conv = np.zeros_like(val)
    for t in range(T):
        for j in range(K):
            conv[t] += p["conv"][:, j] * padded[t + j]
    v = silu(conv)
    gate = h @ p["w_gate"]
    delta = np.log1p(np.exp(-np.abs(h @ p["w_dt"] + p["b_dt"]))) + np.maximum(
        h @ p["w_dt"] + p["b_dt"], 0)
    Bm = h @ p["w_B"]
    Cm = h @ p["w_C"]
    a = -np.exp(p["a_log"])
    xh = v.reshape(T, H, P)
    state = np.zeros((H, P, N))
    ys = []
    for t in range(T):
        decay = np.exp(delta[t] * a)
        for head in range(H):
            state[head] = decay[head] * state[head] + delta[t, head] * np.outer(
                xh[t, head], Bm[t])
        ys.append(np.stack([state[head] @ Cm[t] + p["skip_D"][head] * xh[t, head]
                            for head in range(H)]))
    y = np.stack(ys).reshape(T, cfg.d_inner) * silu(gate)
    u = x + y @ p["w_out"]
    m = ln(u, p["ln2_g"], p["ln2_b"])
    return u + silu(m @ p["mlp_w1"] + p["mlp_b1"]) @ p["mlp_w2"] + p["mlp_b2"]


def test_block_matches_straight_line_reimplementation(rng):
    cfg = tiny_config(d_model=8, head_dim=4, d_state=6)
    state = init_model(cfg, seed=3)
    p = {k.removeprefix("blocks.0."): v.data.astype(np.float64)
         for k, v in state.params.items() if k.startswith("blocks.0.")}
    x = rng.normal(size=(4, cfg.d_model))
    state64 = state.astype(np.float64)
    out = block_forward(state64.params, "blocks.0.", Tensor(x[None], dtype=np.float64), cfg)
    ref = reference_block(p, x, cfg)
    assert np.abs(out.data[0] - ref).max() < 1e-6


# ---------------------------------------------------------------------------
# model forward, heads


def test_model_forward_shape_and_determinism(rng):
    cfg = tiny_config(n_blocks=2)
    state = init_model(cfg, seed=0)
    ids = np.array([[2, 4, 5, 6, 3], [2, 4, 5, 6, 3]])
    mask = np.ones_like(ids, dtype=np.float64)
    h = model_forward(state, ids, mask)
    assert h.data.shape == (2, 5, cfg.d_model)
    assert np.array_equal(h.data[0], h.data[1])


def test_model_padding_invariance(rng):
    cfg = tiny_config(n_blocks=2)
    state = init_model(cfg, seed=0)
    ids = np.array([[2, 4, 5, 6, 7, 3]])
    mask = np.ones_like(ids, dtype=np.float64)
    h_plain = model_forward(state, ids, mask).data
    padded = np.concatenate([ids, np.full((1, 3), PAD)], axis=1)
    pmask = np.concatenate([mask, np.zeros((1, 3))], axis=1)
    h_padded = model_forward(state, padded, pmask).data
    assert np.abs(h_padded[:, :6] - h_plain).max() < 1e-6
    assert np.array_equal(h_padded[:, 6:], np.zeros((1, 3, cfg.d_model)))


@pytest.mark.parametrize("mask", [[[0, 1, 1, 1]], [[1, 0, 1, 0]], [[1, 1, 1]], [1, 1, 1, 1]],
                         ids=["left_padded", "pad_between_real", "short", "one_dim"])
def test_model_refuses_a_mask_that_is_not_right_padded(mask):
    state = init_model(tiny_config(), seed=0)
    with pytest.raises(ShapeError, match=r"pad_mask must be a right-padded \(1, 4\) mask"):
        model_forward(state, np.array([[2, 4, 5, 3]]), np.array(mask, dtype=np.float64))


def test_model_rejects_out_of_range_ids():
    cfg = tiny_config()
    state = init_model(cfg, seed=0)
    ids = np.array([[2, cfg.vocab_size, 3]])
    with pytest.raises(Exception) as err:
        model_forward(state, ids, np.ones_like(ids, dtype=np.float64))
    assert "range" in str(err.value)


def test_model_rejects_sequences_longer_than_max_len():
    cfg = tiny_config(max_len=6)
    state = init_model(cfg, seed=0)
    ids = np.full((1, 7), 4)
    model_forward(state, ids[:, :6], np.ones((1, 6)))
    with pytest.raises(ShapeError, match="sequences of 7 tokens exceed max_len 6"):
        model_forward(state, ids, np.ones((1, 7)))


def test_lm_uniform_at_init():
    cfg = tiny_config(n_blocks=2)
    state = init_model(cfg, seed=0)  # zero LM head
    ids = np.array([[2, 4, 5, 3]])
    mask = np.ones_like(ids, dtype=np.float64)
    logits = lm_logits(state, model_forward(state, ids, mask))
    assert np.array_equal(logits.data, np.zeros_like(logits.data))
    probs = nc.softmax(logits, axis=-1).data
    assert np.abs(probs - 1.0 / cfg.vocab_size).max() < 1e-7


def test_full_model_causality(rng):
    cfg = tiny_config(n_blocks=2)
    state = init_model(cfg, seed=5)
    for _ in range(5):
        T = int(rng.integers(4, 10))
        ids = rng.integers(4, cfg.vocab_size, size=(1, T))
        mask = np.ones_like(ids, dtype=np.float64)
        base = lm_logits(state, model_forward(state, ids, mask)).data
        cut = int(rng.integers(1, T))
        bumped = ids.copy()
        bumped[:, cut:] = rng.integers(4, cfg.vocab_size, size=(1, T - cut))
        out = lm_logits(state, model_forward(state, bumped, mask)).data
        assert np.abs(out[:, :cut] - base[:, :cut]).max() < 1e-6


def test_classify_shapes_and_pooling(rng):
    cfg = tiny_config(n_blocks=1, head_mode="multi")
    state = init_model(cfg, seed=0)
    counts = [1, 1, 2, 2, 3, 3, 4]
    add_classification_heads(state, counts, seed=0)
    ids = np.array([[2, 4, 3], [2, 5, 3]])
    mask = np.ones_like(ids, dtype=np.float64)
    hidden = model_forward(state, ids, mask)
    logits = classify(state, hidden, mask)
    assert len(logits) == 7
    assert [l.data.shape[1] for l in logits] == counts

    # a length-1 sequence's pooled representation is its single hidden state
    one = np.array([[4]])
    onemask = np.ones_like(one, dtype=np.float64)
    h1 = model_forward(state, one, onemask)
    l1 = classify(state, h1, onemask)
    manual = h1.data[:, 0, :] @ state.params["heads.0.w"].data + state.params["heads.0.b"].data
    assert np.abs(l1[0].data - manual).max() < 1e-6


def test_classify_single_head_mode():
    cfg = tiny_config(head_mode="single")
    state = init_model(cfg, seed=0)
    add_classification_heads(state, [1, 1, 1, 1, 1, 2, 5], seed=0)
    ids = np.array([[2, 4, 3]])
    mask = np.ones_like(ids, dtype=np.float64)
    logits = classify(state, model_forward(state, ids, mask), mask)
    assert len(logits) == 1 and logits[0].data.shape == (1, 5)


def test_classify_all_pad_sample_is_contract_error():
    cfg = tiny_config()
    state = init_model(cfg, seed=0)
    add_classification_heads(state, [1] * 7, seed=0)
    ids = np.array([[PAD, PAD]])
    mask = np.zeros_like(ids, dtype=np.float64)
    hidden = model_forward(state, ids, mask)
    with pytest.raises(ContractError):
        classify(state, hidden, mask)


# ---------------------------------------------------------------------------
# parameter counting


def param_count(cfg: ModelConfig, class_counts: list[int] | None = None) -> int:
    """Exact trainable-parameter count for a configuration, derived by hand."""
    d, di, H, N, K, V = (cfg.d_model, cfg.d_inner, cfg.n_heads, cfg.d_state,
                         cfg.conv_kernel, cfg.vocab_size)
    block = (4 * d                 # two layer norms
             + 2 * d * di          # value + gate projections
             + di * K              # depthwise conv
             + d * H + H           # delta projection + bias
             + 2 * d * N           # B and C projections
             + 2 * H               # per-head a and D
             + di * d              # output projection
             + d * 4 * d + 4 * d + 4 * d * d + d)  # MLP
    total = V * d + cfg.n_blocks * block + 2 * d + d * V  # embedding, final norm, LM head
    if class_counts is not None:
        total += sum(d * class_counts[r] + class_counts[r] for r in head_ranks(cfg.head_mode))
    return total


def test_param_count_hand_checked_tiny():
    # d=2, di=4, H=2 (p=2), N=3, K=2, V=5, one block
    cfg = ModelConfig(vocab_size=5, d_model=2, n_blocks=1, head_dim=2,
                      d_state=3, conv_kernel=2, max_len=8)
    # embedding 10; block: norms 8, val+gate 16, conv 8, dt 4+2, B/C 12, a+D 4,
    # out 8, mlp 16+8+16+2 = 42 -> block 104; final norm 4; lm head 10
    assert param_count(cfg) == 10 + (8 + 16 + 8 + 6 + 12 + 4 + 8 + 42) + 4 + 10


def test_param_count_matches_instantiation():
    for kwargs in (dict(), dict(d_model=12, head_dim=6, n_blocks=3, d_state=5),
                   dict(head_mode="single")):
        cfg = tiny_config(**kwargs)
        state = init_model(cfg, seed=0)
        counts = [2, 2, 3, 3, 4, 5, 6]
        add_classification_heads(state, counts, seed=0)
        total = sum(p.data.size for p in state.params.values())
        assert total == param_count(cfg, counts)


def test_presets_construct():
    base = preset_config("base", vocab_size=512)
    large = preset_config("large", vocab_size=512)
    assert base.d_model == 256 and base.n_blocks == 6
    assert large.d_model == 512 and large.n_blocks == 10
    assert param_count(large) > param_count(base) > 10**6
    with pytest.raises(ConfigError):
        preset_config("giant", vocab_size=16)


def test_model_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(vocab_size=10, d_model=10, head_dim=3)  # 20 % 3 != 0
    with pytest.raises(ConfigError):
        ModelConfig(vocab_size=0)
    with pytest.raises(ConfigError):
        ModelConfig(vocab_size=10, head_mode="triple")
    with pytest.raises(ConfigError, match="head_mode must be one of"):
        head_ranks("singel")


# ---------------------------------------------------------------------------
# end-to-end gradient integrity (small edition; the acceptance suite runs the
# full 2-block d=16, batch 4, T=32 criterion)


def test_small_model_end_to_end_grad_check(rng):
    cfg = tiny_config(n_blocks=2, d_model=8, head_dim=4, d_state=4, vocab_size=9)
    state = init_model(cfg, seed=0).astype(np.float64)
    ids = rng.integers(4, 9, size=(2, 6))
    ids[:, 0] = 2
    ids[:, -1] = 3
    mask = np.ones_like(ids, dtype=np.float64)
    onehot = np.zeros((2, 5, 9))
    targets = ids[:, 1:]
    onehot[np.arange(2)[:, None], np.arange(5)[None, :], targets] = 1.0

    names = sorted(state.params)
    tensors = [state.params[k] for k in names]

    def f(_):
        hidden = model_forward(state, ids, mask)
        logits = lm_logits(state, hidden)
        logp = nc.log_softmax(logits[:, :-1, :], axis=-1)
        return nc.neg(nc.tmean(nc.tsum(nc.mul(logp, Tensor(onehot)), axis=-1)))

    err = nc.grad_check(f, tensors, step=1e-5, max_coords=4, rng=np.random.default_rng(0))
    assert err < 1e-5

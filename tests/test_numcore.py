import zlib

import numpy as np
import pytest

from taxossm import numcore as nc
from taxossm.errors import ContractError, NumericDomainError, ParseError, ShapeError
from taxossm.numcore import Tensor


def t64(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def test_softmax_uniform():
    out = nc.softmax(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3] * 3)


def test_softmax_rows_sum_to_one(rng):
    x32 = Tensor(rng.normal(size=(5, 9)).astype(np.float32) * 10)
    assert np.abs(nc.softmax(x32, axis=-1).data.sum(axis=-1) - 1).max() < 1e-6
    x64 = Tensor(rng.normal(size=(5, 9)) * 10, dtype=np.float64)
    assert np.abs(nc.softmax(x64, axis=-1).data.sum(axis=-1) - 1).max() < 1e-12


def test_layer_norm_constant_vector_is_zero():
    x = Tensor(np.full((3, 8), 2.5))
    gain = Tensor(np.ones(8))
    bias = Tensor(np.zeros(8))
    out = nc.layer_norm(x, gain, bias)
    assert np.allclose(out.data, 0.0)


def test_matmul_identity(rng):
    x = rng.normal(size=(4, 4)).astype(np.float32)
    out = nc.matmul(Tensor(np.eye(4, dtype=np.float32)), Tensor(x))
    assert np.allclose(out.data, x)


def test_backward_polynomial():
    x = t64([1.0, 2.0, 3.0])
    loss = nc.tsum(nc.mul(x, x))
    nc.backward(loss)
    assert np.allclose(x.grad, [2.0, 4.0, 6.0])


def test_softmax_cross_entropy_closed_form():
    # logits (0,0), one-hot target on class 0: grad = softmax - onehot = (-0.5, 0.5)
    logits = t64([0.0, 0.0])
    target = Tensor(np.array([1.0, 0.0]))
    loss = nc.neg(nc.tsum(nc.mul(nc.log_softmax(logits), target)))
    nc.backward(loss)
    assert np.allclose(loss.data, np.log(2.0))
    assert np.allclose(logits.grad, [-0.5, 0.5])


def test_backward_requires_scalar():
    x = t64([1.0, 2.0])
    with pytest.raises(ContractError):
        nc.backward(nc.mul(x, x))


def test_gradient_accumulates_across_fanout():
    x = t64([3.0])
    y = nc.add(nc.mul(x, x), nc.mul(x, x))  # 2x^2, grad 4x
    nc.backward(nc.tsum(y))
    assert np.allclose(x.grad, [12.0])


def test_domain_errors():
    with pytest.raises(NumericDomainError):
        nc.log(Tensor([0.0, 1.0]))
    with pytest.raises(NumericDomainError):
        nc.div(Tensor([1.0]), Tensor([0.0]))


def test_shape_error_reports_both_shapes():
    with pytest.raises(ShapeError) as err:
        nc.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)
    with pytest.raises(ShapeError):
        nc.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


@pytest.mark.parametrize("a_shape, w_shape", [
    ((2, 3, 4), (2, 4, 5)), ((3, 4), (4,)), ((4,), (4, 5, 6)), ((3, 4), ())])
def test_matmul_right_operand_must_be_a_2d_weight(a_shape, w_shape):
    with pytest.raises(ShapeError) as err:
        nc.matmul(Tensor(np.zeros(a_shape)), Tensor(np.zeros(w_shape)))
    assert str(a_shape) in str(err.value) and str(w_shape) in str(err.value)


def test_mixed_dtype_rejected():
    with pytest.raises(ShapeError):
        nc.add(Tensor(np.zeros(2, dtype=np.float32)), Tensor(np.zeros(2), dtype=np.float64))


def test_trailing_broadcast():
    a = Tensor(np.ones((2, 3), dtype=np.float32))
    b = Tensor(np.array([1.0, 2.0, 3.0], dtype=np.float32))
    assert nc.add(a, b).data.shape == (2, 3)


def _grad_check_case(name, f, params, tol=1e-6):
    err = nc.grad_check(f, params, step=1e-5)
    assert err < tol, f"{name}: max rel error {err:.2e}"


def test_every_op_passes_grad_check(rng):
    """Finite-difference oracle over each differentiable op on random small shapes."""
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    pos = np.abs(rng.normal(size=(3, 4))) + 0.5
    w = rng.normal(size=(4, 5))
    gain = rng.normal(size=4) * 0.3 + 1.0
    bias = rng.normal(size=4) * 0.1
    kernel = rng.normal(size=(4, 3))
    table = rng.normal(size=(6, 4))
    ids = rng.integers(0, 6, size=(2, 5))
    probe = rng.normal(size=(2, 5, 4))

    cases = [
        ("add", lambda p: nc.tsum(nc.mul(nc.add(p[0], p[1]), nc.add(p[0], p[1]))),
         [t64(a), t64(b)]),
        ("sub/neg", lambda p: nc.tsum(nc.mul(nc.sub(p[0], nc.neg(p[1])), p[0])),
         [t64(a), t64(b)]),
        ("mul", lambda p: nc.tsum(nc.mul(nc.mul(p[0], p[1]), p[1])), [t64(a), t64(b)]),
        ("div", lambda p: nc.tsum(nc.div(p[0], p[1])), [t64(a), t64(pos)]),
        ("exp", lambda p: nc.tsum(nc.exp(p[0])), [t64(a)]),
        ("log", lambda p: nc.tsum(nc.log(p[0])), [t64(pos)]),
        ("sigmoid", lambda p: nc.tsum(nc.sigmoid(p[0])), [t64(a * 3)]),
        ("softplus", lambda p: nc.tsum(nc.mul(nc.softplus(p[0]), p[0])), [t64(a * 3)]),
        ("silu", lambda p: nc.tsum(nc.silu(p[0])), [t64(a * 3)]),
        ("softmax", lambda p: nc.tsum(nc.mul(nc.softmax(p[0], axis=-1), p[1])),
         [t64(a), t64(b)]),
        ("log_softmax", lambda p: nc.tsum(nc.mul(nc.log_softmax(p[0], axis=-1), p[1])),
         [t64(a), t64(b)]),
        ("layer_norm", lambda p: nc.tsum(nc.mul(nc.layer_norm(p[0], p[1], p[2]), p[0])),
         [t64(a), t64(gain), t64(bias)]),
        ("matmul", lambda p: nc.tsum(nc.mul(nc.matmul(p[0], p[1]), nc.matmul(p[0], p[1]))),
         [t64(a), t64(w)]),
        ("matmul_batched", lambda p: nc.tsum(nc.matmul(p[0], p[1])),
         [t64(rng.normal(size=(2, 3, 4))), t64(w)]),
        ("conv", lambda p: nc.tsum(nc.mul(nc.causal_depthwise_conv(p[0], p[1]),
                                          nc.causal_depthwise_conv(p[0], p[1]))),
         [t64(rng.normal(size=(2, 6, 4))), t64(kernel)]),
        ("embedding", lambda p: nc.tsum(nc.mul(nc.embedding_lookup(p[0], ids), Tensor(probe))),
         [t64(table)]),
        ("concat", lambda p: nc.tsum(nc.mul(nc.concat([p[0], p[1]], axis=1),
                                            nc.concat([p[0], p[1]], axis=1))),
         [t64(a), t64(b)]),
        ("slice", lambda p: nc.tsum(nc.mul(p[0][:, 1:3], p[0][:, 1:3])), [t64(a)]),
        ("broadcast_to", lambda p: nc.tsum(nc.mul(
            nc.broadcast_to(nc.reshape(p[0], (3, 1, 4)), (3, 2, 4)), Tensor(probe[:, :3].transpose(1, 0, 2)))),
         [t64(a)]),
        ("transpose", lambda p: nc.tsum(nc.mul(nc.transpose(p[0], (1, 0)), Tensor(w[:4, :3]))),
         [t64(a)]),
        ("mean", lambda p: nc.tsum(nc.tmean(nc.mul(p[0], p[0]), axis=1)), [t64(a)]),
        ("mean_all", lambda p: nc.tmean(nc.exp(p[0])), [t64(a)]),
        ("layer_norm_3d", lambda p: nc.tsum(nc.mul(nc.layer_norm(p[0], p[1], p[2]),
                                                   Tensor(probe))),
         [t64(rng.normal(size=(2, 5, 4)) * 2.0 + 0.5), t64(gain), t64(bias)]),
        ("matmul_4d", lambda p: nc.tsum(nc.mul(nc.matmul(p[0], p[1]), nc.matmul(p[0], p[1]))),
         [t64(rng.normal(size=(2, 2, 3, 4))), t64(w)]),
        ("conv_T_below_K", lambda p: nc.tsum(nc.mul(nc.causal_depthwise_conv(p[0], p[1]),
                                                    nc.causal_depthwise_conv(p[0], p[1]))),
         [t64(rng.normal(size=(2, 2, 4))), t64(rng.normal(size=(4, 4)))]),
    ]
    for name, f, params in cases:
        _grad_check_case(name, f, params)


def test_grad_check_linear_is_exact(rng):
    w = rng.normal(size=8)

    def f(params):
        return nc.tsum(nc.mul(params[0], Tensor(w)))

    err = nc.grad_check(f, [t64(rng.normal(size=8))], step=1e-5)
    assert err < 1e-10


def test_grad_check_detects_corrupted_gradient(rng):
    x = rng.normal(size=6)

    def f(params):
        doubled = nc.make_op(params[0].data.copy(), (params[0],), lambda g: (2.0 * g,))
        return nc.tsum(nc.mul(doubled, doubled))

    err = nc.grad_check(f, [t64(x)], step=1e-5)
    assert abs(err - 0.5) < 1e-3


def test_composed_graph_matches_finite_differences(rng):
    w1 = t64(rng.normal(size=(5, 7)) * 0.3)
    w2 = t64(rng.normal(size=(7, 2)) * 0.3)
    gain = t64(np.ones(7))
    bias = t64(np.zeros(7))
    x = rng.normal(size=(4, 5))
    target = np.zeros((4, 2))
    target[np.arange(4), rng.integers(0, 2, 4)] = 1.0

    def f(params):
        h = nc.layer_norm(nc.silu(nc.matmul(Tensor(x, dtype=np.float64), params[0])),
                          params[2], params[3])
        logits = nc.matmul(h, params[1])
        return nc.neg(nc.tmean(nc.tsum(nc.mul(nc.log_softmax(logits), Tensor(target)), axis=-1)))

    err = nc.grad_check(f, [w1, w2, gain, bias], step=1e-5)
    assert err < 1e-5


def test_conv_is_causal(rng):
    x = rng.normal(size=(1, 10, 3)).astype(np.float32)
    kernel = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
    full = nc.causal_depthwise_conv(Tensor(x), kernel).data
    for t in range(10):
        zeroed = x.copy()
        zeroed[:, t + 1:, :] = 0.0
        out = nc.causal_depthwise_conv(Tensor(zeroed), kernel).data
        assert np.array_equal(out[:, :t + 1, :], full[:, :t + 1, :])


def _padded_conv(x, kernel, g):
    """The conv and its adjoint as a zero-padded copy of x with K-1 leading rows."""
    T = x.shape[-2]
    C, K = kernel.shape
    xpad = np.concatenate([np.zeros(x.shape[:-2] + (K - 1, C)), x], axis=-2)
    out = np.zeros_like(x)
    dpad = np.zeros_like(xpad)
    dk = np.zeros_like(kernel)
    lead = tuple(range(g.ndim - 2))
    for j in range(K):
        out += kernel[:, j] * xpad[..., j:j + T, :]
        dpad[..., j:j + T, :] += kernel[:, j] * g
        dk[:, j] = (g * xpad[..., j:j + T, :]).sum(axis=lead + (-2,))
    return out, dpad[..., K - 1:, :], dk


@pytest.mark.parametrize("shape", [(2, 1, 3), (2, 2, 3), (2, 3, 3), (2, 4, 3), (2, 7, 3),
                                   (5, 3), (2, 2, 3, 3)])
def test_conv_matches_the_padded_form(rng, shape):
    # K = 4: T = 1, 2, 3 use only min(K, T) taps; also 2-D and 4-D inputs
    x = rng.normal(size=shape)
    kernel = rng.normal(size=(3, 4))
    g = rng.normal(size=shape)
    ref_out, ref_dx, ref_dk = _padded_conv(x, kernel, g)
    out = nc.causal_depthwise_conv(t64(x), t64(kernel))
    dx, dk = out._backward(g)
    assert out.data.shape == dx.shape == shape
    for got, want in ((out.data, ref_out), (dx, ref_dx), (dk, ref_dk)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_embedding_backward_matches_add_at(rng):
    # repeated ids, ids in any order, and table rows that no id uses
    table = rng.normal(size=(9, 5))
    ids = rng.choice([0, 3, 3, 4, 8, 8, 8], size=(3, 11))
    g = rng.normal(size=(3, 11, 5))
    (dtab,) = nc.embedding_lookup(t64(table), ids)._backward(g)
    want = np.zeros_like(table)
    np.add.at(want, ids.reshape(-1), g.reshape(-1, 5))
    np.testing.assert_allclose(dtab, want, rtol=1e-12, atol=1e-12)
    assert not dtab[[1, 2, 5, 6, 7]].any()
    (empty,) = nc.embedding_lookup(t64(table), np.zeros((2, 0), int))._backward(
        np.zeros((2, 0, 5)))
    assert empty.shape == table.shape and not empty.any()


def test_layer_norm_rows_do_not_depend_on_their_place_in_the_batch(rng):
    # each row gives the same bits, forward and backward, alone or in a batch
    rows = rng.normal(size=(10, 64)).astype(np.float32)
    g_rows = rng.normal(size=(10, 64)).astype(np.float32)
    gain = Tensor(rng.normal(size=64).astype(np.float32), requires_grad=True)
    bias = Tensor(rng.normal(size=64).astype(np.float32), requires_grad=True)

    def run(x, g):
        out = nc.layer_norm(Tensor(x, requires_grad=True), gain, bias)
        return out.data, out._backward(g)[0]

    alone = [run(rows[i:i + 1], g_rows[i:i + 1]) for i in range(10)]
    for n in (3, 6, 7, 10):
        out, dx = run(rows[:n], g_rows[:n])
        assert np.array_equal(out, np.concatenate([o for o, _ in alone[:n]]))
        assert np.array_equal(dx, np.concatenate([d for _, d in alone[:n]]))


def test_backward_bitwise_deterministic(rng):
    x_data = rng.normal(size=(6, 6))

    def run():
        x = t64(x_data.copy())
        w = t64(np.linspace(-1, 1, 36).reshape(6, 6))
        loss = nc.tsum(nc.mul(nc.softmax(nc.matmul(x, w)), nc.sigmoid(x)))
        nc.backward(loss)
        return x.grad.copy(), w.grad.copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


@pytest.mark.parametrize("op, shapes", [
    (nc.mul, ((3, 4), (3, 1))), (nc.mul, ((2, 3, 4), (4,))),
    (nc.matmul, ((2, 3, 4), (4, 5))), (nc.matmul, ((3, 4), (4, 5))),
], ids=["mul", "mul_broadcast", "matmul_batched", "matmul"])
def test_a_constant_operand_gets_no_gradient(rng, op, shapes):
    a_data, b_data = (rng.normal(size=shape) for shape in shapes)
    for a_needs, b_needs in ((True, False), (False, True), (True, True)):
        a, b = t64(a_data, grad=a_needs), t64(b_data, grad=b_needs)
        out = op(a, b)
        ga, gb = out._backward(rng.normal(size=out.data.shape))
        assert (ga is None) == (not a_needs) and (gb is None) == (not b_needs)
        for g, t in ((ga, a), (gb, b)):
            if g is not None:
                assert g.shape == t.data.shape


def test_no_grad_suppresses_graph():
    x = t64([1.0, 2.0])
    with nc.no_grad():
        y = nc.mul(x, x)
    assert y._parents == () and not y._needs_grad


def test_tensor_dump_round_trip(tmp_path, rng):
    arrays = [rng.normal(size=(3, 4, 2)).astype(np.float32), rng.normal(size=(5,)),
              np.asarray(2.5, dtype=np.float32)]
    path = tmp_path / "blob.bin"
    with open(path, "wb") as fh:
        entries = [nc.save_tensor(fh, arr) for arr in arrays]
    raw = path.read_bytes()
    # raw little-endian values back to back, each indexed by offset and crc32
    assert raw == b"".join(arr.astype("<" + arr.dtype.str[1:]).tobytes() for arr in arrays)
    assert [e["offset"] for e in entries] == [0, 96, 136]
    assert entries[0] == {"dtype": "f32", "shape": [3, 4, 2], "offset": 0,
                          "crc32": zlib.crc32(raw[:96])}
    ends = [e["offset"] for e in entries[1:]] + [len(raw)]
    for arr, entry, end in zip(arrays, entries, ends):
        back = nc.load_tensor(raw[entry["offset"]:end], entry, path, "t")
        assert back.dtype == arr.dtype and back.shape == arr.shape and np.array_equal(back, arr)
        assert back.flags.writeable


@pytest.mark.parametrize("corrupt, message", [
    (lambda raw, e: (raw[:-3], e), "tensor w spans 21 bytes"),        # truncated payload
    (lambda raw, e: (raw + b"\x00" * 4, e), "tensor w spans 28 bytes"),  # extra trailing bytes
    (lambda raw, e: (b"", e), "tensor w spans 0 bytes"),              # empty span
    (lambda raw, e: (raw, dict(e, dtype="f16")), "malformed index entry"),  # unknown dtype
    (lambda raw, e: (raw[:4] + bytes([raw[4] ^ 1]) + raw[5:], e), "fails its crc32"),
    (lambda raw, e: (raw, dict(e, shape=[3, 3])), "shape (3, 3) needs 36"),
], ids=["truncated", "trailing_bytes", "empty", "unknown_dtype", "bit_flip", "wrong_shape"])
def test_load_tensor_corrupt_file_raises_parse_error_naming_it(tmp_path, corrupt, message):
    path = tmp_path / "w.bin"
    with open(path, "wb") as fh:
        entry = nc.save_tensor(fh, np.arange(6, dtype=np.float32).reshape(2, 3))
    raw, entry = corrupt(path.read_bytes(), entry)
    with pytest.raises(ParseError) as err:
        nc.load_tensor(raw, entry, path, "w")
    assert err.value.path == path and str(path) in str(err.value)
    assert message in str(err.value)


def test_forward_ops_produce_finite_values(rng):
    x = Tensor(rng.normal(size=(4, 8)).astype(np.float32) * 50)
    for op in (nc.exp, nc.sigmoid, nc.softplus, nc.silu,
               lambda t: nc.softmax(t, axis=-1), lambda t: nc.log_softmax(t, axis=-1)):
        out = op(x) if op is not nc.exp else op(Tensor(x.data / 10))
        assert np.isfinite(out.data).all()

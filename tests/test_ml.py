import numpy as np
import pytest
from conftest import deal, run_parties

from hybrid2pc import ml, ring, transport
from hybrid2pc.ring import RingParams
from hybrid2pc.session import PartySession

P32 = RingParams(32, 7, 12)


def sessions(manifest, seeds=(1, 2)):
    m0, m1 = deal(manifest)
    c0, c1 = transport.channel_pair()
    return (
        PartySession(0, manifest, m0, c0, np.random.default_rng(seeds[0])),
        PartySession(1, manifest, m1, c1, np.random.default_rng(seeds[1])),
    )


def infer_both(net, images, profile, p=P32, check_exhausted=True):
    batch = images.shape[0]
    manifest = ml.plan_nn_manifest(net, p, batch, profile, bytes(16))
    s0, s1 = sessions(manifest)
    _, got = run_parties(
        lambda: ml.nn_infer(s0, net, None, batch, profile),
        lambda: ml.nn_infer(s1, net.public(), images, batch, profile),
    )
    if check_exhausted:
        s0.assert_exhausted()
        s1.assert_exhausted()
    return got, (s0, s1)


def tiny_net(rng, with_pools=False):
    def w(*s):
        return rng.uniform(-1, 1, size=s) / np.sqrt(np.prod(s[1:]))

    if with_pools:
        return ml.NetSpec(
            (2, 8, 8),
            [
                ml.Conv(3, 3, 1, (1, 1), w(3, 2, 3, 3)),
                ml.Act(),
                ml.MeanPool(2),
                ml.Conv(4, 3, 1, (1, 1), w(4, 3, 3, 3)),
                ml.Act(),
                ml.MaxPool(2),
                ml.FC(4 * 2 * 2, 5, w(5, 16)),
                ml.ArgMax(),
            ],
        )
    return ml.NetSpec(
        (1, 6, 6),
        [
            ml.Conv(2, 3, 1, (0, 0), w(2, 1, 3, 3)),
            ml.Act(),
            ml.FC(32, 4, w(4, 32)),
            ml.ArgMax(),
        ],
    )


def test_all_zero_weights_class_zero():
    rng = np.random.default_rng(0)
    net = ml.NetSpec(
        (1, 4, 4),
        [ml.FC(16, 3, np.zeros((3, 16))), ml.ArgMax()],
    )
    images = rng.uniform(-1, 1, size=(4, 1, 4, 4))
    assert (ml.nn_oracle(net, images, P32) == 0).all()
    got, _ = infer_both(net, images, ml.LAN)
    assert (got == 0).all()


def test_one_by_one_conv_identity():
    # unit kernel: after scale discharge the activation equals the input
    rng = np.random.default_rng(1)
    x = rng.uniform(0.01, 1, size=(3, 1, 2, 2))  # positive: ReLU passes all
    net = ml.NetSpec(
        (1, 2, 2),
        [ml.Conv(1, 1, 1, (0, 0), np.ones((1, 1, 1, 1))), ml.Act()],
    )
    enc = ring.encode(x.reshape(3, -1), P32)
    # oracle walk: conv by 1.0 multiplies by 2^beta, Act discharges it
    got = ml.nn_oracle(
        ml.NetSpec((1, 2, 2), net.layers + [ml.ArgMax()]), x, P32
    )
    expect = np.argmax(enc.astype(np.int64), axis=1)
    assert np.array_equal(got, expect)


def test_tiny_net_secure_equals_oracle_both_profiles():
    rng = np.random.default_rng(2)
    net = tiny_net(rng)
    images = rng.uniform(-1, 1, size=(16, 1, 6, 6))
    expect = ml.nn_oracle(net, images, P32)
    for profile in (ml.LAN, ml.WAN):
        got, _ = infer_both(net, images, profile)
        assert np.array_equal(got, expect), profile


def test_pooled_net_secure_equals_oracle_both_profiles():
    rng = np.random.default_rng(3)
    net = tiny_net(rng, with_pools=True)
    images = rng.uniform(-1, 1, size=(6, 2, 8, 8))
    expect = ml.nn_oracle(net, images, P32)
    for profile in (ml.LAN, ml.WAN):
        got, _ = infer_both(net, images, profile)
        assert np.array_equal(got, expect), profile


def test_mnist_architecture_dimensions():
    rng = np.random.default_rng(4)
    net = ml.mnist_like_net(rng, P32)
    shapes = [(l, i, o) for l, i, o in ml._walk(net)]
    assert shapes[0][2] == (5, 14, 14)  # 980 conv outputs feed FC 980x100
    assert int(np.prod(shapes[0][2])) == 980
    m = ml.plan_nn_manifest(net, P32, 1, ml.LAN, bytes(16))
    # conv contributes one dot product of length 25 per output element
    assert m.vdp_lengths[:980] == (25,) * 980
    assert m.vdp_lengths[980 : 980 + 100] == (980,) * 100
    assert m.vdp_lengths[1080:] == (100,) * 10


def test_mnist_plan_is_one_block_per_linear_layer():
    net = ml.mnist_like_net(np.random.default_rng(4), P32)
    m = ml.plan_nn_manifest(net, P32, 20, ml.LAN, bytes(16))
    assert m.vdp_blocks == ((19600, 25), (2000, 980), (200, 100))
    assert len(m.encode()) == 27 + 8 * 3
    assert (m.num_ot, m.num_bmt) == (1388800, 669600)
    m = ml.plan_nn_manifest(net, P32, 1, ml.WAN, bytes(16))
    assert m.vdp_blocks == ((980, 25), (100, 980), (10, 100))
    assert (m.num_ot, m.num_bmt) == (69440, 0)


def test_empty_net_zero_manifest():
    net = ml.NetSpec((1, 2, 2), [])
    m = ml.plan_nn_manifest(net, P32, 5, ml.LAN, bytes(16))
    assert m.num_amt == m.num_bmt == m.num_ot == 0 and m.vdp_lengths == ()


def test_svm_manifest_example():
    m = ml.plan_svm_manifest(10, 1, P32, bytes(16))
    assert m.vdp_lengths == (10,)
    assert m.num_ot == P32.l  # evaluator share bits into the garbled adder
    assert m.num_bmt == 0


def test_svm_secure_equals_oracle():
    rng = np.random.default_rng(5)
    d, batch = 16, 128
    model = ml.SvmModel(rng.uniform(-1, 1, (batch, d)), rng.uniform(-1, 1, batch))
    queries = rng.uniform(-1, 1, (batch, d))
    expect = ml.svm_oracle(model, queries, P32)
    manifest = ml.plan_svm_manifest(d, batch, P32, bytes(16))
    s0, s1 = sessions(manifest)
    _, got = run_parties(
        lambda: ml.svm_classify(s0, model, None, d, batch),
        lambda: ml.svm_classify(s1, None, queries, d, batch),
    )
    assert np.array_equal(got, expect)
    s0.assert_exhausted()
    s1.assert_exhausted()


def test_svm_sign_conventions():
    # positive margin, and the boundary case w.x == b -> -1
    p = P32
    model = ml.SvmModel(np.array([1.0, 0.0]), 0.0)
    assert ml.svm_oracle(model, np.array([[2.0, 0.0]]), p)[0] == 1
    boundary = ml.SvmModel(np.array([1.0, 0.0]), 2.0)
    assert ml.svm_oracle(boundary, np.array([[2.0, 0.0]]), p)[0] == -1


def test_protocol_placement_by_message_type():
    # linear layers only use masked-operand frames; Boolean stages only
    # GC/GMW/OT frames; argmax decodes through garbled tables
    rng = np.random.default_rng(6)
    net = tiny_net(rng)
    images = rng.uniform(-1, 1, size=(4, 1, 6, 6))
    _, (s0, s1) = infer_both(net, images, ml.LAN)
    led = s0.channel.ledger
    # one DA exchange per linear layer (conv + fc)
    assert led.messages(msg_type=transport.DA_MASKED, direction="sent") == 2
    # GMW levels: one relu stage, depth 1
    assert led.messages(msg_type=transport.GMW_DE, direction="sent") == 1
    assert led.messages(msg_type=transport.GC_TABLES, direction="sent") == 2


def test_client_privacy_message_lengths_input_independent():
    rng = np.random.default_rng(7)
    net = tiny_net(rng)
    snapshots = []
    for seed in (8, 9):
        images = np.random.default_rng(seed).uniform(-1, 1, size=(4, 1, 6, 6))
        _, (s0, _) = infer_both(net, images, ml.LAN)
        led = s0.channel.ledger
        snapshots.append(
            (led.payload_bytes(direction="recv"), led.messages(direction="recv"))
        )
    assert snapshots[0] == snapshots[1]


def test_rounds_independent_of_batch():
    rng = np.random.default_rng(10)
    net = tiny_net(rng)
    counts = []
    for batch in (1, 16):
        images = rng.uniform(-1, 1, size=(batch, 1, 6, 6))
        _, (s0, _) = infer_both(net, images, ml.LAN)
        led = s0.channel.ledger
        counts.append(
            (led.messages(direction="sent"), led.messages(direction="recv"))
        )
    assert counts[0] == counts[1]


def test_cifar_style_net_expressible():
    net = ml.cifar10_like_net()
    m = ml.plan_nn_manifest(net, RingParams(64, 13, 25), 1, ml.LAN, bytes(16))
    # 7 convolutions at their documented shapes, final FC over 1024 inputs
    conv_lengths = {27, 576, 64}
    assert conv_lengths.issubset(set(m.vdp_lengths))
    assert m.vdp_lengths.count(1024) == 10
    shapes = [o for _, _, o in ml._walk(net)]
    assert shapes[-2] == (10,)


def test_weight_file_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    net = tiny_net(rng, with_pools=True)
    path = tmp_path / "net.bin"
    ml.save_net(str(path), net, P32)
    loaded, p = ml.load_net(str(path))
    assert p == P32
    assert loaded.input_shape == net.input_shape
    for a, b in zip(loaded.layers, net.layers):
        assert type(a) is type(b)
        if isinstance(a, (ml.Conv, ml.FC)):
            assert np.array_equal(a.weights, b.weights)
    # identical inference behaviour
    images = rng.uniform(-1, 1, size=(3, 2, 8, 8))
    assert np.array_equal(
        ml.nn_oracle(loaded, images, p), ml.nn_oracle(net, images, P32)
    )


def test_weight_file_overflow_detected(tmp_path):
    net = ml.NetSpec((1, 1, 1), [ml.FC(1, 1, np.array([[300.0]])), ml.ArgMax()])
    path = tmp_path / "bad.bin"
    ml.save_net(str(path), net, P32)  # alpha=7: |300| >= 128
    with pytest.raises(OverflowError):
        ml.load_net(str(path))


def test_weight_file_malformed(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a weight file at all")
    with pytest.raises(ml.MlError):
        ml.load_net(str(path))


def test_weight_file_truncated(tmp_path):
    # cut inside a weight array and inside a layer header
    rng = np.random.default_rng(13)
    path = tmp_path / "net.bin"
    ml.save_net(str(path), tiny_net(rng, with_pools=True), P32)
    data = path.read_bytes()
    for cut in (len(data) - 8, 30):
        path.write_bytes(data[:cut])
        with pytest.raises(ml.MlError, match="truncated"):
            ml.load_net(str(path))


def test_weight_file_shape_disagrees_with_layer(tmp_path):
    path = tmp_path / "net.bin"
    conv = ml.Conv(maps=5, kernel=5, weights=np.zeros((3, 1, 5, 5)))
    ml.save_net(str(path), ml.NetSpec((1, 8, 8), [conv, ml.ArgMax()]), P32)
    with pytest.raises(ml.MlError, match="Conv weights"):
        ml.load_net(str(path))
    fc = ml.FC(4, 2, np.zeros((4, 2)))
    ml.save_net(str(path), ml.NetSpec((1, 2, 2), [fc, ml.ArgMax()]), P32)
    with pytest.raises(ml.MlError, match="FC weights"):
        ml.load_net(str(path))


def test_svm_model_file_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    model = ml.SvmModel(rng.uniform(-1, 1, 20), 0.25)
    path = tmp_path / "svm.bin"
    ml.save_svm(str(path), model, P32)
    loaded, p = ml.load_svm(str(path))
    assert np.array_equal(loaded.w, model.w) and loaded.b == model.b


def test_svm_model_file_truncated_or_extended(tmp_path):
    path = tmp_path / "svm.bin"
    ml.save_svm(str(path), ml.SvmModel(np.array([0.5, -0.25, 0.125, 1.0]), 0.5), P32)
    data = path.read_bytes()
    for bad, match in ((data[:-3], "truncated"), (data[:12], "truncated"),
                       (data + bytes(2), "trailing")):
        path.write_bytes(bad)
        with pytest.raises(ml.MlError, match=match):
            ml.load_svm(str(path))


def test_spatial_layer_after_flat_activation_rejected(tmp_path):
    fc = ml.FC(4, 4, np.zeros((4, 4)))
    for layer in (ml.MaxPool(2), ml.MeanPool(2), ml.Conv(maps=1, kernel=1,
                                                          weights=np.zeros((1, 1, 1, 1)))):
        net = ml.NetSpec((1, 2, 2), [fc, layer])
        with pytest.raises(ml.MlError, match=f"layer 1 \\({type(layer).__name__}\\)"):
            list(ml._walk(net))
    path = tmp_path / "net.bin"
    ml.save_net(str(path), ml.NetSpec((1, 2, 2), [fc, ml.MaxPool(2)]), P32)
    with pytest.raises(ml.MlError, match="MaxPool"):
        ml.load_net(str(path))


def test_dimension_mismatch_rejected():
    net = ml.NetSpec((1, 4, 4), [ml.FC(10, 3, np.zeros((3, 10)))])
    with pytest.raises(ml.MlError):
        list(ml._walk(net))


def test_ring_header_out_of_range_rejected(tmp_path):
    # byte 8 is the ring width; MlError subclasses ValueError, so the type
    # is compared exactly
    path = tmp_path / "model.bin"
    fc = ml.FC(1, 1, np.zeros((1, 1)))
    for save, load, model in ((ml.save_net, ml.load_net, ml.NetSpec((1, 1, 1), [fc])),
                              (ml.save_svm, ml.load_svm, ml.SvmModel(np.zeros(2), 0.0))):
        save(str(path), model, P32)
        data = bytearray(path.read_bytes())
        data[8] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError) as ei:
            load(str(path))
        assert type(ei.value) is ml.MlError

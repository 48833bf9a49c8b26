import hashlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import (BENCHMARKED_FLIGHTS, CONV_PAD_AT, INPUT_WIDTH_AT, dealt_sessions,
                      oversize_weights, run_parties, wide_input_weights)

from hybrid2pc import ml, ring, transport
from hybrid2pc.ring import RingParams

P32 = RingParams(32, 7, 12)


def infer_both(net, images, profile, p=P32, check_exhausted=True):
    batch = images.shape[0]
    manifest = ml.plan_nn_manifest(net, p, batch, profile, bytes(16))
    with dealt_sessions(manifest) as (s0, s1):
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
    net = ml.mnist_like_net(rng)
    shapes = [(l, i, o) for l, i, o in ml._walk(net, P32)]
    assert shapes[0][2] == (5, 14, 14)  # 980 conv outputs feed FC 980x100
    assert int(np.prod(shapes[0][2])) == 980
    m = ml.plan_nn_manifest(net, P32, 1, ml.LAN, bytes(16))
    # conv contributes one dot product of length 25 per output element
    assert m.vdp_lengths[:980] == (25,) * 980
    assert m.vdp_lengths[980 : 980 + 100] == (980,) * 100
    assert m.vdp_lengths[1080:] == (100,) * 10


def test_mnist_plan_is_one_block_per_linear_layer():
    net = ml.mnist_like_net(np.random.default_rng(4))
    m = ml.plan_nn_manifest(net, P32, 20, ml.LAN, bytes(16))
    assert m.vdp_blocks == ((19600, 25), (2000, 980), (200, 100))
    assert len(m.encode()) == 19 + 8 * 3
    assert (m.num_dabits, m.num_labels, m.num_bmt) == (410400, 697600, 410400)
    m = ml.plan_nn_manifest(net, P32, 1, ml.WAN, bytes(16))
    assert m.vdp_blocks == ((980, 25), (100, 980), (10, 100))
    assert (m.num_dabits, m.num_labels, m.num_bmt) == (20520, 34880, 0)


def test_net_must_end_in_exactly_one_argmax():
    # without an ArgMax, nn_infer used to return None and drop the last
    # layer's shares; a layer after it gathered from the wrong activation
    fc = ml.FC(4, 4, np.zeros((4, 4)))
    for layers, bad in (([], "no layers"), ([fc], "layer 0 \\(FC\\)"),
                        ([fc, ml.Act()], "layer 1 \\(Act\\)"),
                        ([fc, ml.ArgMax(), ml.Act()], "layer 1 \\(ArgMax\\)"),
                        ([ml.ArgMax(), ml.ArgMax()], "layer 0 \\(ArgMax\\)")):
        net = ml.NetSpec((1, 2, 2), layers)
        with pytest.raises(ml.MlError, match=bad):
            ml.plan_nn_manifest(net, P32, 5, ml.LAN, bytes(16))
        with pytest.raises(ml.MlError, match=bad):
            ml.nn_oracle(net, np.zeros((1, 1, 2, 2)), P32)
        with pytest.raises(ml.MlError, match=bad):
            ml.nn_infer(SimpleNamespace(ring=P32, role=1), net, np.zeros((1, 1, 2, 2)), 1)


def test_weight_file_without_a_final_argmax_rejected(tmp_path):
    # load_net walks the net as compile_nn does, ArgMax rule included, so
    # a file that cannot be planned does not load
    path = str(tmp_path / "net.bin")
    ml.save_net(path, ml.NetSpec((1, 1, 4), [ml.Act()]), P32)
    with pytest.raises(ml.MlError, match=r"layer 0 \(Act\): a net must end in exactly one ArgMax"):
        ml.load_net(path)


@pytest.mark.parametrize("profile", ["WAN", "Lan", "gmw", ""])
def test_unknown_profile_rejected(profile):
    # any profile but "wan" used to run the lan protocol, so "WAN" silently
    # planned and ran GMW stages
    net = tiny_net(np.random.default_rng(19))
    with pytest.raises(ml.MlError, match="unknown profile"):
        ml.plan_nn_manifest(net, P32, 1, profile, bytes(16))
    with pytest.raises(ml.MlError, match="unknown profile"):
        ml.nn_infer(SimpleNamespace(ring=P32, role=1), net.public(),
                    np.zeros((1, 1, 6, 6)), 1, profile)


def test_act_is_field_less():
    # Act.kind was never read: Act("sigmoid") silently ran ReLU
    with pytest.raises(TypeError):
        ml.Act("sigmoid")


def test_mis_shaped_inputs_rejected_before_any_frame():
    # the checks run before share_input, so a session without a channel
    # shows that nothing was sent
    net = tiny_net(np.random.default_rng(18))
    client = SimpleNamespace(ring=P32, role=1)
    for images in (np.zeros((2, 36)), np.zeros((2, 1, 6, 5)), np.zeros((1, 1, 6, 6)), None):
        with pytest.raises(ml.MlError, match="images have shape"):
            ml.nn_infer(client, net.public(), images, 2)
    # a (2, 5) array used to pass as one 10-feature query
    for shape, batch in (((2, 5), 1), ((10,), 2), ((1, 10), 2), ((2, 10, 1), 2)):
        with pytest.raises(ml.MlError, match="queries have shape"):
            ml.svm_classify(client, None, np.zeros(shape), 10, batch)
    server = SimpleNamespace(ring=P32, role=0)
    for w in (np.zeros(7), np.zeros((3, 10)), np.zeros((2, 5))):
        with pytest.raises(ml.MlError, match="model weights have shape"):
            ml.svm_classify(server, ml.SvmModel(w, 0.0), None, 10, 2)


def test_svm_manifest_example():
    m = ml.plan_svm_manifest(10, 1, P32, bytes(16))
    assert m.vdp_lengths == (10,)
    assert m.num_labels == P32.l  # evaluator share bits into the garbled adder
    assert m.num_dabits == 0
    assert m.num_bmt == 0


def test_svm_secure_equals_oracle():
    rng = np.random.default_rng(5)
    d, batch = 16, 128
    model = ml.SvmModel(rng.uniform(-1, 1, (batch, d)), rng.uniform(-1, 1, batch))
    queries = rng.uniform(-1, 1, (batch, d))
    expect = ml.svm_oracle(model, queries, P32)
    manifest = ml.plan_svm_manifest(d, batch, P32, bytes(16))
    with dealt_sessions(manifest) as (s0, s1):
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
    counts, flights = [], []
    for batch in (1, 16):
        images = rng.uniform(-1, 1, size=(batch, 1, 6, 6))
        _, (s0, s1) = infer_both(net, images, ml.LAN)
        led = s0.channel.ledger
        counts.append(
            (led.messages(direction="sent"), led.messages(direction="recv"))
        )
        flights.append((s0.channel.flights, s1.channel.flights))
    assert counts[0] == counts[1]
    assert flights[0] == flights[1]


@pytest.mark.parametrize("workload", sorted(BENCHMARKED_FLIGHTS))
def test_benchmarked_programs_flights(workload):
    # the programs perfbench runs, in process: the MNIST-like CNN at lan
    # batch 20 and wan batch 1, and the SVM at d = 100 (PSK changes no frame)
    rng = np.random.default_rng(3)
    if workload == "svm-psk-b1":
        d = 100
        model = ml.SvmModel(rng.uniform(-1, 1, d), 0.3)
        with dealt_sessions(ml.plan_svm_manifest(d, 1, P32, bytes(16))) as (s0, s1):
            run_parties(lambda: ml.svm_classify(s0, model, None, d, 1),
                        lambda: ml.svm_classify(s1, None, rng.uniform(-1, 1, (1, d)), d, 1))
    else:
        profile, batch = (ml.LAN, 20) if workload == "mnist-lan-b20" else (ml.WAN, 1)
        images = rng.uniform(0, 1, (batch, 1, 28, 28))
        _, (s0, s1) = infer_both(ml.mnist_like_net(rng), images, profile)
    assert (s0.channel.flights, s1.channel.flights) == BENCHMARKED_FLIGHTS[workload]


def test_cifar_style_net_expressible():
    net = ml.cifar10_like_net()
    m = ml.plan_nn_manifest(net, RingParams(64, 13, 25), 1, ml.LAN, bytes(16))
    # 7 convolutions at their documented shapes, final FC over 1024 inputs
    conv_lengths = {27, 576, 64}
    assert conv_lengths.issubset(set(m.vdp_lengths))
    assert m.vdp_lengths.count(1024) == 10
    shapes = [o for _, _, o in ml._walk(net, P32)]
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


def _sized_net(rng, channels=1, maps=2, kernel=3, stride=1, maxpool=2, meanpool=2, dout=4):
    """Conv -> ReLU -> max pool -> mean pool -> FC -> argmax over 8x8 images,
    with every size a parameter."""
    return ml.NetSpec((channels, 8, 8), [
        ml.Conv(maps, kernel, stride, (1, 1), rng.uniform(-1, 1, (maps, channels, kernel, kernel))),
        ml.Act(), ml.MaxPool(maxpool), ml.MeanPool(meanpool),
        ml.FC(4 * maps, dout, rng.uniform(-1, 1, (dout, 4 * maps))), ml.ArgMax(),
    ])


ZERO_SIZES = {
    "input": ({"channels": 0}, "input shape"),
    "conv-maps": ({"maps": 0}, r"layer 0 \(Conv\): maps"),
    "conv-kernel": ({"kernel": 0}, r"layer 0 \(Conv\): kernel"),
    "conv-stride": ({"stride": 0}, r"layer 0 \(Conv\): stride"),
    "maxpool-window": ({"maxpool": 0}, r"layer 2 \(MaxPool\): window"),
    "meanpool-window": ({"meanpool": 0}, r"layer 3 \(MeanPool\): window"),
    "fc-dout": ({"dout": 0}, r"layer 4 \(FC\): dout"),
}


@pytest.mark.parametrize("case", list(ZERO_SIZES))
def test_zero_sized_layers_raise_mlerror(case, tmp_path):
    # a weight file or a net with a size of 0 is answered with an MlError
    # naming the layer, from load_net and from compile_nn
    rng = np.random.default_rng(12)
    ml.compile_nn(_sized_net(rng), P32, 1, ml.LAN)  # sound at every size >= 1
    sizes, match = ZERO_SIZES[case]
    net = _sized_net(rng, **sizes)
    path = str(tmp_path / "net.bin")
    ml.save_net(path, net, P32)
    with pytest.raises(ml.MlError, match=match):
        ml.load_net(path)
    with pytest.raises(ml.MlError, match=match):
        ml.compile_nn(net, P32, 1, ml.LAN)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.one_of(st.integers(0, 63), st.integers(64, 1 << 16)),
                                st.integers(0, 255)), max_size=4),
       cut=st.integers(0, 1 << 16))
def test_mutated_weight_file_raises_only_mlerror_or_overflow(tmp_path, edits, cut):
    # load_net reads outside bytes: a file of every layer kind, with bytes
    # overwritten (half of them in its first 64) and its tail cut off,
    # loads or raises MlError, or OverflowError for a weight the ring
    # cannot hold
    path = tmp_path / "net.bin"
    ml.save_net(str(path), _sized_net(np.random.default_rng(3)), P32)
    data = bytearray(path.read_bytes())
    for at, value in edits:
        data[at % len(data)] = value
    path.write_bytes(bytes(data[:cut % (len(data) + 1)]))
    try:
        ml.load_net(str(path))
    except (ml.MlError, OverflowError):
        pass


@pytest.mark.parametrize("offset", [CONV_PAD_AT, INPUT_WIDTH_AT], ids=["conv-pad", "input-width"])
def test_oversize_header_rejected_before_planning(tmp_path, offset):
    # a padding or an input width of 2^31 gives the Conv 2^31 or more
    # outputs per map: no frame could carry its masked operands, and
    # load_net says so from the shapes, before anything is allocated
    path = tmp_path / "net.bin"
    oversize_weights(path, offset)
    with pytest.raises(ml.MlError, match=r"layer 0 \(Conv\)"):
        ml.load_net(str(path))


def test_oversize_input_rejected_before_planning(tmp_path):
    # a stride-65536 Conv reads one pixel of a (1, 65536, 65536) input:
    # every layer's operands fit a frame, but one image is 2^32 ring
    # elements, and load_net says so before any image is drawn
    path = tmp_path / "net.bin"
    wide_input_weights(path)
    assert path.stat().st_size == 74
    with pytest.raises(ml.MlError, match=r"layer 0 \(Conv\): its input \(1, 65536, 65536\)"):
        ml.load_net(str(path))
    # with no layer to check it as its input, the net is refused as empty
    ml.save_net(str(path), ml.NetSpec((1, 1 << 16, 1 << 16), []), P32)
    with pytest.raises(ml.MlError, match="no layers"):
        ml.load_net(str(path))


def test_plan_past_one_bundle_frame_rejected():
    # 2^22 ReLU inputs of 32 bits take 2^27 dealt labels: 2 GiB of role
    # 1's bundle, past one frame
    net = ml.NetSpec((1, 1, 1 << 22), [ml.Act(), ml.ArgMax()])
    with pytest.raises(ml.MlError, match=r"layer 0 \(Act\): the dealer's bundle"):
        ml.compile_nn(net, P32, 1, ml.LAN)
    with pytest.raises(ml.MlError, match=r"layer 0 \(Act\)"):
        list(ml._walk(net, P32))


def test_weight_file_overflow_detected(tmp_path):
    net = ml.NetSpec((1, 1, 1), [ml.FC(1, 1, np.array([[300.0]])), ml.ArgMax()])
    path = tmp_path / "bad.bin"
    ml.save_net(str(path), net, P32)  # alpha=7: |300| >= 128
    with pytest.raises(OverflowError):
        ml.load_net(str(path))


def test_weight_file_nan_detected(tmp_path):
    net = ml.NetSpec((1, 1, 1), [ml.FC(1, 1, np.array([[np.nan]])), ml.ArgMax()])
    path = tmp_path / "nan.bin"
    ml.save_net(str(path), net, P32)
    with pytest.raises(OverflowError):
        ml.load_net(str(path))


def test_nan_query_rejected_before_any_frame():
    # a NaN pixel or SVM feature at role 1 raises before either role sends
    # a frame, instead of entering the protocol as 0
    rng = np.random.default_rng(4)
    net, d = tiny_net(rng), 5
    image = rng.uniform(0, 1, (1, *net.input_shape))
    image[0, 0, 0, 0] = np.nan
    query = rng.uniform(-1, 1, (1, d))
    query[0, 3] = np.nan
    runs = [(ml.plan_nn_manifest(net, P32, 1, ml.LAN, bytes(16)),
             lambda s: ml.nn_infer(s, net.public(), image, 1, ml.LAN)),
            (ml.plan_svm_manifest(d, 1, P32, bytes(16)),
             lambda s: ml.svm_classify(s, None, query, d, 1))]
    for manifest, client in runs:
        with dealt_sessions(manifest) as (s0, s1):
            with pytest.raises(OverflowError):
                client(s1)
        assert [s.channel.ledger.messages() for s in (s0, s1)] == [0, 0]


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


def test_spatial_layer_after_flat_activation_rejected(tmp_path):
    fc = ml.FC(4, 4, np.zeros((4, 4)))
    for layer in (ml.MaxPool(2), ml.MeanPool(2), ml.Conv(maps=1, kernel=1,
                                                          weights=np.zeros((1, 1, 1, 1)))):
        net = ml.NetSpec((1, 2, 2), [fc, layer])
        with pytest.raises(ml.MlError, match=f"layer 1 \\({type(layer).__name__}\\)"):
            list(ml._walk(net, P32))
    path = tmp_path / "net.bin"
    ml.save_net(str(path), ml.NetSpec((1, 2, 2), [fc, ml.MaxPool(2)]), P32)
    with pytest.raises(ml.MlError, match="MaxPool"):
        ml.load_net(str(path))


def test_dimension_mismatch_rejected():
    net = ml.NetSpec((1, 4, 4), [ml.FC(10, 3, np.zeros((3, 10)))])
    with pytest.raises(ml.MlError):
        list(ml._walk(net, P32))


def test_ring_header_out_of_range_rejected(tmp_path):
    # byte 8 is the ring width; MlError subclasses ValueError, so the type
    # is compared exactly
    path = tmp_path / "net.bin"
    ml.save_net(str(path), ml.NetSpec((1, 1, 1), [ml.FC(1, 1, np.zeros((1, 1)))]), P32)
    data = bytearray(path.read_bytes())
    data[8] = 99
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError) as ei:
        ml.load_net(str(path))
    assert type(ei.value) is ml.MlError


def _mnist_frame_bytes(batch: int, profile: str) -> dict:
    """Closed-form online payload bytes (role 0, role 1) sent per frame
    type for MNIST-like at l = 32: both ReLU layers and the argmax
    discharge a shift of 12, so their bodies run on w = 20 bits, and b2a
    converts a ReLU value's 19 bits below its sign on one daBit each,
    opened with one masked bit each way. The evaluator's share bits go on
    dealt labels: one masked bit each. No OT pairs cross, and neither do
    the garbler's input labels (zero labels x*R) nor a share of the
    images, which are the client's own share. The linear layers mask
    one element per product term each way (conv1: 980 outputs of 25,
    fc1: 100 of 980, fc2: 10 of 100), and the argmax's 4 output bits
    decode to the client."""
    relus = (980 * batch, 100 * batch)  # ReLU values per layer
    relu_ands = 31 if profile == ml.LAN else 50  # identity stage / relu stage
    labels = sum((32 * n + 7) // 8 for n in relus) + (320 * batch + 7) // 8
    opened = sum((19 * n + 7) // 8 for n in relus)  # one b2a per ReLU layer
    # one AND level of 19 ANDs per value: 2 bits per AND lane, each way
    gmw = sum((2 * 19 * n + 7) // 8 for n in relus) if profile == ml.LAN else 0
    return {
        transport.GC_TABLES: (32 * (relu_ands * sum(relus) + 657 * batch), 0),
        transport.OT_PAIRS: (0, 0),
        transport.OT_CHOICES: (opened, labels + opened),
        transport.GMW_DE: (gmw, gmw),
        transport.GC_INLABELS: (0, 0),
        transport.APP_SHARE: (0, 0),
        transport.DA_MASKED: (4 * (980 * 25 + 100 * 980 + 10 * 100) * batch,) * 2,
        transport.GC_DECODE: ((4 * batch + 7) // 8, 0),
    }


@pytest.mark.parametrize("batch, profile", [(20, ml.LAN), (1, ml.WAN)])
def test_mnist_narrow_stage_bytes_zero_slack(batch, profile):
    rng = np.random.default_rng(15)
    net = ml.mnist_like_net(rng)
    images = rng.uniform(-1, 1, size=(batch, 1, 28, 28))
    got, (s0, s1) = infer_both(net, images, profile)
    assert np.array_equal(got, ml.nn_oracle(net, images, P32))
    # the sessions were dealt in process: their channels carry online frames only
    frames = _mnist_frame_bytes(batch, profile)
    for msg_type, nbytes in frames.items():
        assert tuple(s.channel.ledger.payload_bytes(direction="sent", msg_type=msg_type)
                     for s in (s0, s1)) == nbytes, msg_type
    sent = [s.channel.ledger.payload_bytes(direction="sent") for s in (s0, s1)]
    assert sent == [sum(col) for col in zip(*frames.values())]
    assert sent == ([31881590, 10121100] if profile == ml.LAN else [2245591, 500926])


# sha256 over the encoded manifests and nn_oracle outputs below, recorded
# before the planner, the executor and the oracle read one compiled step
# list, and restated when the manifest split its OT count into b2a OTs
# and labels with a u32 head: the old digest is what the new plans give
# when encoded the old way, with num_ot + num_labels as the one OT count
PLANS_AND_ORACLE_SHA256 = "43ab1039830bc78d108a89451ec79a350dfc4bac650b4bb4bd1faef1958c867b"


def test_plans_and_oracle_outputs_unchanged():
    h = hashlib.sha256()
    rng = np.random.default_rng(16)
    mnist = ml.mnist_like_net(rng)
    pooled = tiny_net(rng, with_pools=True)
    tiny = tiny_net(rng)
    for profile in (ml.LAN, ml.WAN):
        for batch in (1, 5, 20):
            h.update(ml.plan_nn_manifest(mnist, P32, batch, profile, bytes(16)).encode())
        h.update(ml.plan_nn_manifest(ml.cifar10_like_net(), RingParams(64, 13, 25), 1,
                                     profile, bytes(16)).encode())
        h.update(ml.plan_nn_manifest(pooled, P32, 6, profile, bytes(16)).encode())
    for d, batch in ((10, 1), (16, 128)):
        h.update(ml.plan_svm_manifest(d, batch, P32, bytes(16)).encode())
    for net in (mnist, pooled, tiny):
        images = rng.uniform(-1, 1, size=(64, *net.input_shape))
        h.update(ml.nn_oracle(net, images, P32).tobytes())
    assert h.hexdigest() == PLANS_AND_ORACLE_SHA256


def test_oracle_peak_memory_stays_small():
    # each Conv and FC window meets its kernel in one integer matmul; a
    # (batch, maps, rows, window) product would peak near 53 MB here
    rng = np.random.default_rng(18)
    net = ml.mnist_like_net(rng)
    images = rng.uniform(-1, 1, size=(64, *net.input_shape))
    tracemalloc.start()
    try:
        ml.nn_oracle(net, images, P32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("net_name, profile", [("mnist", ml.LAN), ("mnist", ml.WAN),
                                               ("pooled", ml.LAN), ("pooled", ml.WAN)])
def test_each_step_consumes_exactly_its_dealt_counts(monkeypatch, net_name, profile):
    rng = np.random.default_rng(17)
    net = ml.mnist_like_net(rng) if net_name == "mnist" else tiny_net(rng, with_pools=True)
    batch = 2
    images = rng.uniform(-1, 1, size=(batch, *net.input_shape))
    steps = ml.compile_nn(net, P32, batch, profile)
    deltas = {0: [], 1: []}  # per role, (vdp, label, daBit, bmt) drawn by each step's call

    def drawn(fn, session_of):
        def wrapped(*args):
            se = session_of(args)
            supplies = (se.ass.vdp_masks, se.gc.labels, se.dabits, se.gmw.bmt)
            before = [s.used for s in supplies]
            out = fn(*args)
            deltas[se.role].append(tuple(s.used - b for s, b in zip(supplies, before)))
            return out
        return wrapped

    with dealt_sessions(ml.plan_nn_manifest(net, P32, batch, profile, bytes(16))) as (s0, s1):
        for name in ("_boolean_stage", "_reveal_stage"):
            monkeypatch.setattr(ml, name, drawn(getattr(ml, name), lambda args: args[0]))
        for se in (s0, s1):
            monkeypatch.setattr(se.ass, "vdp", drawn(se.ass.vdp, lambda args, se=se: se))
        _, got = run_parties(lambda: ml.nn_infer(s0, net, None, batch, profile),
                             lambda: ml.nn_infer(s1, net.public(), images, batch, profile))
    assert np.array_equal(got, ml.nn_oracle(net, images, P32))
    # every step but a local mean pool makes exactly one drawing call
    want = [(int(s.block is not None), s.labels, s.dabits, s.bmts) for s in steps
            if not isinstance(s.layer, ml.MeanPool)]
    assert all((s.block, s.labels, s.dabits, s.bmts) == (None, 0, 0, 0) for s in steps
               if isinstance(s.layer, ml.MeanPool))
    assert deltas[0] == deltas[1] == want
    s0.assert_exhausted()
    s1.assert_exhausted()


def _grid(rng, shape):
    """Integers k with |k| < 2^beta: reals k / 2^beta that encode exactly."""
    return rng.integers(1 - (1 << P32.beta), 1 << P32.beta, size=shape)


def _first_argmax(vals):
    best = 0
    for i, v in enumerate(vals):
        if v > vals[best]:
            best = i
    return best


def test_oracle_geometry_matches_direct_loop_reference():
    # integer fixed point written out loop by loop, independent of the
    # gather indices that the oracle and the executor share; values stay
    # far below 2^31, so nothing wraps in the 32-bit ring
    rng = np.random.default_rng(19)
    scale = 1 << P32.beta
    maps, k, stride, (pb, pa) = 3, 3, 2, (1, 2)
    kern = _grid(rng, (maps, 2, k, k))

    def conv(img):
        ch, h, w = img.shape
        oh, ow = (h + pb + pa - k) // stride + 1, (w + pb + pa - k) // stride + 1
        out = []
        for m in range(maps):
            for i in range(oh):
                for j in range(ow):
                    acc = 0
                    for c in range(ch):
                        for a in range(k):
                            for b in range(k):
                                r, q = i * stride + a - pb, j * stride + b - pb
                                if 0 <= r < h and 0 <= q < w:
                                    acc += int(kern[m, c, a, b]) * int(img[c, r, q])
                    out.append(acc >> P32.beta)  # ArgMax discharges the product scale
        return out

    def pool(reduce):
        def run(img):
            ch, h, w = img.shape
            return [reduce([int(img[c, 2 * i + a, 2 * j + b]) for a in range(2) for b in range(2)])
                    for c in range(ch) for i in range(h // 2) for j in range(w // 2)]
        return run

    cases = [
        (ml.Conv(maps, k, stride, (pb, pa), kern / scale), (2, 7, 6), conv),
        # MeanPool sums a 2 x 2 window; ArgMax discharges its log2(4) = 2
        (ml.MeanPool(2), (2, 4, 6), pool(lambda v: sum(v) >> 2)),
        (ml.MaxPool(2), (2, 4, 6), pool(max)),
    ]
    for layer, shape, reference in cases:
        x = _grid(rng, (400, *shape))
        expect = [_first_argmax(reference(img)) for img in x]
        net = ml.NetSpec(shape, [layer, ml.ArgMax()])
        assert ml.nn_oracle(net, x / scale, P32).tolist() == expect, type(layer).__name__

"""Property tests of the checkpoint codec and state captures.

The codec's contract is *bit-identity*: ``decode(encode(x))`` gives
back exactly ``x`` — every float bit pattern (NaN payloads, signed
zeros, infinities, subnormals), container types (list vs tuple),
unbounded ints, raw bytes and ``array.array`` buffers.  On top of the
codec, every run-state component must survive a snapshot round trip:
RNG bit-generator streams, heap and deque inbox captures, and empty /
edge-shard machine captures.  Files that are corrupted or carry a
different codec version must be *rejected*, never decoded into a
silently wrong state.
"""

import math
import struct
from array import array

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.checkpoint import (CHECKPOINT_VERSION, CheckpointCorruptError,
                              CheckpointError, CheckpointVersionError,
                              content_hash, decode, encode,
                              read_snapshot_file, write_snapshot_file)
from repro.checkpoint.codec import MAGIC
from repro.checkpoint.state import (capture_machine_state,
                                    restore_bitgen_state, state_hash,
                                    verify_machine_state)

F64 = struct.Struct("<d")

#: Interesting float bit patterns the codec must preserve exactly.
SPECIAL_FLOATS = [
    0.0, -0.0, float("inf"), float("-inf"), float("nan"),
    -float("nan"),
    F64.unpack(b"\x01\x00\x00\x00\x00\x00\xf8\x7f")[0],  # NaN payload
    5e-324,  # smallest positive subnormal
    -5e-324,
    2.2250738585072014e-308,  # smallest normal
    1.7976931348623157e+308,  # largest finite
]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10 ** 40), max_value=10 ** 40),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True,
              width=64),
    st.sampled_from(SPECIAL_FLOATS),
    st.text(max_size=16),
    st.binary(max_size=16),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=8),
                                  st.integers(-100, 100)),
                        children, max_size=4),
    ),
    max_leaves=24,
)


def bitwise(obj):
    """Bit-exact normal form: floats by their IEEE-754 bytes."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        return ("f64", F64.pack(obj))
    if isinstance(obj, (list, tuple)):
        kind = "list" if isinstance(obj, list) else "tuple"
        return (kind, [bitwise(x) for x in obj])
    if isinstance(obj, dict):
        return ("dict", sorted(((bitwise(k), bitwise(v))
                                for k, v in obj.items()), key=repr))
    if isinstance(obj, array):
        return ("array", obj.typecode, obj.tobytes())
    return obj


class TestCodecRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(values)
    def test_round_trip_is_bit_exact(self, value):
        assert bitwise(decode(encode(value))) == bitwise(value)

    @settings(max_examples=100, deadline=None)
    @given(values)
    def test_encoding_is_canonical(self, value):
        # Same value -> same bytes -> same content hash.
        assert encode(value) == encode(value)
        assert content_hash(value) == content_hash(value)

    def test_special_floats_bit_patterns(self):
        for x in SPECIAL_FLOATS:
            y = decode(encode(x))
            assert F64.pack(y) == F64.pack(x), hex(
                struct.unpack("<Q", F64.pack(x))[0])

    def test_dict_key_order_insensitive(self):
        a = {"x": 1, "y": 2, "z": [3.5]}
        b = {"z": [3.5], "y": 2, "x": 1}
        assert encode(a) == encode(b)

    def test_list_tuple_identity_survives(self):
        value = [(1, 2), [3, 4], ((),), []]
        out = decode(encode(value))
        assert out == value
        assert isinstance(out[0], tuple) and isinstance(out[1], list)
        assert isinstance(out[2][0], tuple)

    @pytest.mark.parametrize("arr", [
        array("d", [0.0, -0.0, float("inf"), float("nan"), 5e-324]),
        array("b", [0, 1, -1, 127, -128]),
        array("q", [0, 2 ** 62, -2 ** 62]),
        array("d", []),
    ])
    def test_array_round_trip(self, arr):
        out = decode(encode(arr))
        assert isinstance(out, array)
        assert out.typecode == arr.typecode
        assert out.tobytes() == arr.tobytes()

    def test_unencodable_object_rejected(self):
        with pytest.raises(CheckpointError):
            encode(object())

    def test_trailing_bytes_rejected(self):
        with pytest.raises(CheckpointCorruptError):
            decode(encode(1) + b"N")

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(values, st.data())
    def test_truncated_body_rejected(self, value, data):
        body = encode(value)
        cut = data.draw(st.integers(min_value=0, max_value=len(body) - 1))
        try:
            decode(body[:cut])
        except CheckpointCorruptError:
            pass  # the only acceptable exception
        # a prefix that happens to decode must not equal silence: it is
        # rejected for trailing/short bytes by construction above


class TestSnapshotFiles:
    def _write(self, tmp_path, payload):
        path = str(tmp_path / "snap.ckpt")
        write_snapshot_file(path, payload)
        return path

    @settings(max_examples=40, deadline=None)
    @given(values)
    def test_file_round_trip(self, value):
        import tempfile, os
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "v.ckpt")
            write_snapshot_file(path, value)
            assert bitwise(read_snapshot_file(path)) == bitwise(value)

    def test_corrupt_body_byte_rejected(self, tmp_path):
        path = self._write(tmp_path, {"plane": array("d", [1.5, 2.5])})
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF  # flip a body byte -> hash mismatch
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointCorruptError):
            read_snapshot_file(path)

    def test_corrupt_hash_byte_rejected(self, tmp_path):
        path = self._write(tmp_path, [1, 2, 3])
        blob = bytearray(open(path, "rb").read())
        blob[len(MAGIC) + 4] ^= 0x01  # flip a digest byte
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointCorruptError):
            read_snapshot_file(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = self._write(tmp_path, list(range(64)))
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-7])
        with pytest.raises(CheckpointCorruptError):
            read_snapshot_file(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.ckpt")
        open(path, "wb").write(b"NOTASNAPSHOTFILE" * 8)
        with pytest.raises(CheckpointCorruptError):
            read_snapshot_file(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = self._write(tmp_path, {"v": 1})
        blob = bytearray(open(path, "rb").read())
        blob[len(MAGIC):len(MAGIC) + 4] = struct.pack(
            "<I", CHECKPOINT_VERSION + 1)
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointVersionError):
            read_snapshot_file(path)


class TestRngStreamRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.integers(min_value=0, max_value=64))
    def test_bitgen_state_codec_round_trip(self, seed, burn):
        np = pytest.importorskip("numpy")
        from repro.checkpoint.state import _freeze_bitgen_state

        rng = np.random.default_rng(seed)
        rng.random(burn)  # advance the stream mid-way
        frozen = _freeze_bitgen_state(rng.bit_generator.state)
        thawed = restore_bitgen_state(decode(encode(frozen)))
        clone = np.random.default_rng(0)
        clone.bit_generator.state = thawed
        assert list(rng.random(16)) == list(clone.random(16))


def _run_partial(stop, sync="spatial"):
    """Stop a messaging-heavy run mid-flight so inboxes hold content."""
    import dataclasses

    from repro.arch import build_machine, shared_mesh
    from repro.verify.fuzz_roots import echo, pingpong

    cfg = dataclasses.replace(shared_mesh(9), sync=sync, seed=3)
    machine = build_machine(cfg)
    machine.run_roots(
        [(pingpong(peer=5, rounds=4).root, (), 0),
         (echo(rounds=4).root, (), 5)],
        stop_at_vtime=stop)
    return machine


class TestStateCaptures:
    @pytest.mark.parametrize("sync", ["spatial", "conservative"])
    def test_inbox_capture_round_trips(self, sync):
        machine = _run_partial(stop=40.0, sync=sync)
        cap = capture_machine_state(machine)
        det = cap["det"]
        assert det["live_tasks"] == machine.live_tasks
        # some core holds undelivered mail at this stop
        assert any(c["inbox"] or c["arrival_heap"] for c in det["cores"])
        again = decode(encode(det))
        assert encode(again) == encode(det)
        assert state_hash(cap) == content_hash(det)
        # identical machine state -> identical capture
        verify_machine_state(cap, capture_machine_state(machine))

    def test_heap_and_deque_captures_differ_structurally(self):
        # Same program, policy-derived inbox layout: only an
        # arrival-ordered policy (conservative) keeps the heap beside
        # the FIFO deque, and the capture records which layout ran.
        cap_deque = capture_machine_state(_run_partial(40.0, sync="spatial"))
        cap_heap = capture_machine_state(
            _run_partial(40.0, sync="conservative"))
        assert any(c["arrival_heap"] for c in cap_heap["det"]["cores"])
        assert not any(c["arrival_heap"] for c in cap_deque["det"]["cores"])
        assert any(c["inbox"] for c in cap_deque["det"]["cores"])

    def test_empty_machine_capture(self):
        from repro.arch import build_machine, shared_mesh

        machine = build_machine(shared_mesh(4))
        machine.run_roots([])  # no roots: ran-to-completion immediately
        cap = capture_machine_state(machine)
        assert cap["det"]["live_tasks"] == 0
        assert decode(encode(cap["det"])) is not None
        verify_machine_state(cap, capture_machine_state(machine))

    def test_completed_run_capture_round_trips(self):
        from repro.arch import build_machine, shared_mesh
        from repro.workloads import get_workload

        machine = build_machine(shared_mesh(9))
        machine.run(get_workload("quicksort", scale="tiny").root)
        cap = capture_machine_state(machine)
        assert cap["det"]["live_tasks"] == 0
        assert encode(decode(encode(cap["det"]))) == encode(cap["det"])

    def test_mismatch_is_detected_and_named(self):
        machine = _run_partial(40.0)
        cap = capture_machine_state(machine)
        other = decode(encode(cap["det"]))
        other["last_finish_time"] = (other.get("last_finish_time") or 0.0) + 1.0
        from repro.checkpoint import CheckpointMismatchError

        with pytest.raises(CheckpointMismatchError) as exc:
            verify_machine_state(cap, {"det": other, "host": {}})
        assert "last_finish_time" in str(exc.value)

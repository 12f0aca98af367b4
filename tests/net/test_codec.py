"""The binary codec: round-trip fidelity and strict rejection.

The property test is the codec completeness gate from the live-runtime
work: every frozen wire dataclass in ``core/wire.py`` and
``gcs/messages.py`` must be registered and must survive an
encode/decode round trip with arbitrary wire values in its fields.
"""

import dataclasses
from dataclasses import dataclass, fields, is_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.wire as wire_module
import repro.gcs.messages as messages_module
from repro.gcs.messages import (
    ClientAck,
    ClientMcast,
    Heartbeat,
    OrderRequest,
    RequestId,
    Sequenced,
    SequencedBatch,
)
from repro.gcs.view import ViewId
from repro.net.codec import (
    MAX_FRAME,
    WIRE_VERSION,
    CodecError,
    FrameDecoder,
    TruncatedFrameError,
    UnknownTypeError,
    WireEnvelope,
    decode_frame,
    encode_envelope_frame,
    encode_frame,
    encode_payload,
    fast_path_types,
    frame_size,
    registered_types,
    split_frames,
)

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
# Leaves only produce values the codec round-trips exactly: no NaN (x != x
# breaks equality), no int/bool confusion (bools encode via their own tags).
_leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=20)
    | st.binary(max_size=20)
)

_wire_values = st.recursive(
    _leaves,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=8), children, max_size=4)
        | st.frozensets(st.integers(), max_size=4)
    ),
    max_leaves=12,
)


def _instance_strategy(cls):
    """Build ``cls`` with arbitrary wire values in every field (wire
    dataclasses carry no validation; the codec is positional)."""
    return st.tuples(*[_wire_values for _ in fields(cls)]).map(
        lambda values: cls(*values)
    )


def _module_wire_classes(module):
    return [
        obj
        for obj in vars(module).values()
        if is_dataclass(obj)
        and isinstance(obj, type)
        and obj.__module__ == module.__name__
    ]


# ---------------------------------------------------------------------------
# completeness gate
# ---------------------------------------------------------------------------
def test_every_wire_dataclass_is_registered():
    registered = set(registered_types())
    for module in (wire_module, messages_module):
        for cls in _module_wire_classes(module):
            assert cls in registered, (
                f"{cls.__name__} is a wire dataclass but has no codec "
                "registration (P205 should also be failing)"
            )


def test_registered_types_round_trip():
    """Every registered dataclass survives encode -> decode exactly, on
    BOTH codec tiers: the default path (fast where a specialized encoder
    fits, falling back otherwise — arbitrary field values exercise the
    fallback constantly) and the forced-generic path.

    One property run per type: drawing an instance of every type in one
    example overran hypothesis's per-example entropy budget, which failed
    the data_too_large health check in about one run of three."""
    for cls in registered_types():

        @settings(max_examples=25, deadline=None)
        @given(instance=_instance_strategy(cls))
        def round_trips(instance):
            assert decode_frame(encode_frame(instance)) == instance
            assert decode_frame(encode_frame(instance, fast=False)) == instance

        round_trips()


@settings(max_examples=100, deadline=None)
@given(value=_wire_values)
def test_plain_values_round_trip(value):
    assert decode_frame(encode_frame(value)) == value


def test_set_encoding_is_canonical():
    a = encode_frame(frozenset([1, 2, 3]))
    b = encode_frame(frozenset([3, 1, 2]))
    assert a == b
    assert decode_frame(a) == frozenset([1, 2, 3])


def test_frame_size_matches_encoding():
    envelope = WireEnvelope(
        sender="s0", receiver="s1", kind="hb", size=1, payload=[1, 2.5, "x"]
    )
    assert frame_size(envelope) == len(encode_frame(envelope))


# ---------------------------------------------------------------------------
# strict rejection
# ---------------------------------------------------------------------------
def test_unregistered_dataclass_rejected():
    @dataclass(frozen=True)
    class NotOnTheWire:
        x: int

    with pytest.raises(UnknownTypeError):
        encode_frame(NotOnTheWire(x=1))


def test_unencodable_object_rejected():
    with pytest.raises(UnknownTypeError):
        encode_frame(object())


def test_truncated_frames_rejected():
    frame = encode_frame([1, 2, 3])
    for cut in range(len(frame)):
        with pytest.raises(CodecError):
            decode_frame(frame[:cut])


def test_trailing_bytes_rejected():
    frame = encode_frame("hello")
    with pytest.raises(CodecError):
        decode_frame(frame + b"\x00")


def test_version_skew_rejected():
    frame = bytearray(encode_frame(42))
    frame[4] = WIRE_VERSION + 1
    with pytest.raises(CodecError, match="version"):
        decode_frame(bytes(frame))


def test_unknown_type_id_rejected():
    # hand-build a dataclass frame with an id beyond the registry
    body = bytearray([WIRE_VERSION, 13])  # _T_DATACLASS
    body += (60_000).to_bytes(2, "big")
    body += bytes([0])
    frame = len(body).to_bytes(4, "big") + bytes(body)
    with pytest.raises(UnknownTypeError):
        decode_frame(frame)


def test_field_count_mismatch_rejected():
    # force the generic form: the fast envelope shell has no count byte
    frame = bytearray(encode_frame(WireEnvelope("a", "b", "k", 1, None), fast=False))
    n_fields = len(dataclasses.fields(WireEnvelope))
    # the field-count byte follows tag(1)+type_id(2) inside the body
    index = frame.index(bytes([13])) + 3
    assert frame[index] == n_fields
    frame[index] = n_fields + 1
    with pytest.raises(CodecError):
        decode_frame(bytes(frame))


def test_oversized_length_prefix_rejected():
    frame = (MAX_FRAME + 1).to_bytes(4, "big") + b"\x01"
    with pytest.raises(CodecError):
        decode_frame(frame)
    with pytest.raises(CodecError):
        split_frames(bytearray(frame))


# ---------------------------------------------------------------------------
# the struct fast path: two byte forms, one wire contract
# ---------------------------------------------------------------------------
def _realistic_fast_instances():
    """Instances shaped the way the protocol actually builds them, so the
    specialized encoders engage instead of falling back."""
    rid = RequestId("c0", 1, 42)
    view = ViewId(3, "s0")
    order = OrderRequest(rid, "unit:demo", {"op": "rate", "value": 24.0}, 33)
    seq = Sequenced(view, 11, order)
    return [
        WireEnvelope("s0", "s1", "gcs", 7, Heartbeat("s0", 1, 3, view)),
        Heartbeat("s1", 2, 9, None),
        rid,
        view,
        ClientAck(rid),
        order,
        ClientMcast(rid, "unit:demo", ("chunk", 4), 12),
        seq,
        SequencedBatch(view, (seq, Sequenced(view, 12, order))),
    ]


def test_fast_types_cover_the_hot_frames():
    fast = set(fast_path_types())
    for cls in (WireEnvelope, Heartbeat, ClientAck, SequencedBatch):
        assert cls in fast


def test_fast_frames_decode_identically_to_generic_frames():
    """The cross-path contract: for any value both byte forms decode to
    the same object — a fast frame through the (one) decoder equals the
    generic frame through the same decoder."""
    for instance in _realistic_fast_instances():
        fast_frame = encode_frame(instance)
        generic_frame = encode_frame(instance, fast=False)
        # the specialized form actually engaged (and is never larger)
        assert fast_frame != generic_frame
        assert len(fast_frame) <= len(generic_frame)
        assert decode_frame(fast_frame) == instance
        assert decode_frame(generic_frame) == instance


def test_fast_encoder_falls_back_on_unpackable_fields():
    """A field the packed layout cannot hold (wrong type, out-of-range
    int, >255-byte string) silently degrades to the generic form — byte
    for byte, so the fallback is invisible on the wire."""
    awkward = [
        Heartbeat(3.5, 1, 2, None),  # sender not a str
        Heartbeat("s0", -1, 2, None),  # negative u32
        Heartbeat("s0", 2**40, 2, None),  # overflows u32
        Heartbeat("x" * 300, 1, 2, None),  # str8 overflow
        Heartbeat("s0", True, 2, None),  # bool is not an int on this wire
    ]
    for instance in awkward:
        assert encode_frame(instance) == encode_frame(instance, fast=False)
        assert decode_frame(encode_frame(instance)) == instance
    # a fallen-back shell may still carry fast-encoded children: the
    # batch degrades to the generic dataclass form (tag 13 right after
    # the version byte) while its nested view id stays specialized
    batch = SequencedBatch(ViewId(1, "s0"), [1, 2])  # list, not tuple
    frame = encode_frame(batch)
    assert frame[5] == 13
    assert decode_frame(frame) == batch


def test_fast_frames_reject_every_truncation():
    for instance in _realistic_fast_instances():
        frame = encode_frame(instance)
        for cut in range(len(frame)):
            with pytest.raises(CodecError):
                decode_frame(frame[:cut])


def test_envelope_splice_matches_whole_frame_encoding():
    """encode_envelope_frame around a cached payload must be
    byte-identical to encoding the assembled WireEnvelope — for packable
    and unpackable addressing fields alike (the generic-shell fallback)."""
    payload = Heartbeat("s0", 1, 3, ViewId(3, "s0"))
    cases = [
        ("s0", "s1", "gcs", 7),
        (None, ("odd", "sender"), "gcs", -1),  # forces the generic shell
        ("s0", "s1", "x" * 300, 2**40),  # str8 + u32 overflow
    ]
    for sender, receiver, kind, size in cases:
        spliced = encode_envelope_frame(
            sender, receiver, kind, size, encode_payload(payload)
        )
        whole = encode_frame(WireEnvelope(sender, receiver, kind, size, payload))
        assert spliced == whole
        assert decode_frame(spliced) == WireEnvelope(
            sender, receiver, kind, size, payload
        )


# ---------------------------------------------------------------------------
# stream reassembly
# ---------------------------------------------------------------------------
def test_split_frames_keeps_partial_tail():
    f1, f2 = encode_frame("one"), encode_frame([2, 2])
    buffer = bytearray(f1 + f2[:3])
    frames = split_frames(buffer)
    assert frames == [f1]
    assert bytes(buffer) == f2[:3]


def test_frame_decoder_across_chunks():
    decoder = FrameDecoder()
    stream = b"".join(encode_frame(v) for v in ("a", {"k": 1}, [True, None]))
    out = []
    for i in range(0, len(stream), 7):
        out.extend(decoder.feed(stream[i : i + 7]))
    assert out == ["a", {"k": 1}, [True, None]]
    assert decoder.pending_bytes == 0


def test_coalesced_payload_splits_at_every_boundary():
    """A coalesced transport write concatenates frames (fast and generic
    mixed); the receiver must reassemble them from arbitrary
    ``data_received`` chunk boundaries."""
    values = _realistic_fast_instances() + ["generic", {"k": (1, 2)}, None]
    coalesced = b"".join(encode_frame(v) for v in values)
    for chunk_size in (1, 2, 3, 5, 16, len(coalesced)):
        decoder = FrameDecoder()
        out = []
        for i in range(0, len(coalesced), chunk_size):
            out.extend(decoder.feed(coalesced[i : i + chunk_size]))
        assert out == values
        assert decoder.pending_bytes == 0

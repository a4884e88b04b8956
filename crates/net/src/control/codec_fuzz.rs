//! Control-frame decoder fuzz suite: the length-prefixed framing
//! ([`read_msg`]), the 5-byte handshake ([`read_hello`]) and the payload
//! codecs ([`decode_request`] / [`decode_response`]) map every malformed
//! input to a typed [`NetError`] and never panic. The corpus mirrors the
//! snapshot codec's (`tests/snapshot_codec.rs` at the workspace root):
//! truncated length prefixes and payloads, length words above
//! [`MAX_CONTROL_MSG`], bad magic, version skew, single-byte corruption
//! and random bytes. Well-formed messages round-trip to exact equality.
//!
//! Run with a pinned case count in CI: `PROPTEST_CASES=64 cargo test -q
//! -p foreco-net --lib control::codec_fuzz`.

use super::{
    decode_request, decode_response, encode_request, encode_response, read_hello, read_msg,
    write_hello_version, write_msg, ControlRequest, ControlResponse, FleetEvent, RejectCode,
    CONTROL_BIN_MAGIC, CONTROL_VERSION, MAX_CONTROL_MSG,
};
use crate::wire::WIRE_MAGIC;
use crate::NetError;
use foreco_serve::{IngressSummary, SessionReport};
use proptest::prelude::*;
use std::io::ErrorKind;

fn to_bytes(raw: &[u64]) -> Vec<u8> {
    raw.iter().map(|&b| b as u8).collect()
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    write_msg(&mut wire, payload).expect("write to a Vec");
    wire
}

fn is_eof<T>(result: Result<T, NetError>) -> bool {
    matches!(result, Err(NetError::Io(e)) if e.kind() == ErrorKind::UnexpectedEof)
}

fn is_protocol<T>(result: Result<T, NetError>) -> bool {
    matches!(result, Err(NetError::Protocol(_)))
}

/// `Ok`, or one of the two typed errors a control reader can return.
fn is_typed<T>(result: &Result<T, NetError>) -> bool {
    matches!(result, Ok(_) | Err(NetError::Io(_) | NetError::Protocol(_)))
}

/// One request per verb, encoded the way `TcpControl` sends it.
fn requests() -> Vec<ControlRequest> {
    vec![
        ControlRequest::Open {
            id: 7,
            initial: vec![0.5, -0.0, 1e-300, -2.25, 0.0, 3.5],
            inbox_capacity: 256,
        },
        ControlRequest::Close { id: 7 },
        ControlRequest::Snapshot { id: 7 },
        ControlRequest::Adopt {
            snapshot: r#"{"version":2,"id":7}"#.into(),
        },
        ControlRequest::SnapshotBin { id: u64::MAX },
        ControlRequest::AdoptBin {
            snapshot: vec![0, 1, 2, 0xFF, b'{', b'"'],
        },
        ControlRequest::Stats { id: 0 },
        ControlRequest::Subscribe { stream: true },
        ControlRequest::PollEvents {
            subscription: 3,
            max: 64,
        },
        ControlRequest::Unsubscribe { subscription: 3 },
        ControlRequest::Metrics,
    ]
}

/// One response per reply shape.
fn responses() -> Vec<ControlResponse> {
    let report = SessionReport {
        id: 7,
        ticks: 400,
        misses: 12,
        overflow_drops: 0,
        rmse_mm: 1.25,
        max_deviation_mm: 4.5,
        stats: None,
    };
    vec![
        ControlResponse::Opened { id: 7 },
        ControlResponse::Closed {
            id: 7,
            report: report.clone(),
            ingress: IngressSummary::default(),
        },
        ControlResponse::Snapshot {
            id: 7,
            snapshot: r#"{"version":2}"#.into(),
        },
        ControlResponse::SnapshotBin {
            id: 7,
            snapshot: vec![b'F', b'S', b'N', b'P', 3, 0, 9],
        },
        ControlResponse::Adopted {
            id: 7,
            tick: 120,
            next_slot: 121,
        },
        ControlResponse::Stats {
            ingress: IngressSummary::default(),
        },
        ControlResponse::Subscribed { subscription: 1 },
        ControlResponse::Unsubscribed { subscription: 1 },
        ControlResponse::Events {
            events: vec![
                FleetEvent::Opened { id: 7, shard: 0 },
                FleetEvent::Completed { id: 7, report },
            ],
            dropped: 2,
        },
        ControlResponse::Event {
            event: FleetEvent::Dropped { id: 7, tick: 40 },
        },
        ControlResponse::Metrics {
            body: "# HELP foreco_ticks_total x\nforeco_ticks_total 1\n".into(),
        },
        ControlResponse::Rejected {
            code: RejectCode::BadRequest,
            reason: "no".into(),
        },
    ]
}

/// Every encoded request and response payload, with which side decodes it.
fn payloads() -> Vec<(bool, Vec<u8>)> {
    let mut all: Vec<(bool, Vec<u8>)> = requests()
        .iter()
        .map(|r| (true, encode_request(r)))
        .collect();
    all.extend(responses().iter().map(|r| (false, encode_response(r))));
    all
}

/// Decodes with the codec for `request` payloads or `response` ones.
fn decode_either(request: bool, payload: &[u8]) -> Result<(), NetError> {
    if request {
        decode_request(payload).map(drop)
    } else {
        decode_response(payload).map(drop)
    }
}

/// Binary payloads carry opaque snapshot bytes, so cutting their tail
/// can leave a valid (shorter) message; every JSON prefix is malformed.
fn is_binary(payload: &[u8]) -> bool {
    payload.starts_with(&CONTROL_BIN_MAGIC)
}

proptest! {
    #![proptest_config(ProptestConfig::env_or(64))]

    /// Any payload survives `write_msg` → `read_msg` byte for byte.
    #[test]
    fn frames_round_trip(raw in prop::collection::vec(0u64..256, 0..600usize)) {
        let payload = to_bytes(&raw);
        let wire = framed(&payload);
        prop_assert_eq!(wire.len(), 4 + payload.len());
        prop_assert_eq!(read_msg(&mut wire.as_slice()).unwrap(), payload);
    }

    /// A frame cut anywhere (inside the length prefix or the payload)
    /// is a transport EOF, never a short message.
    #[test]
    fn truncated_frames_are_eof(
        raw in prop::collection::vec(0u64..256, 1..600usize),
        cut_frac in 0.0f64..1.0,
    ) {
        let wire = framed(&to_bytes(&raw));
        let cut = ((wire.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(is_eof(read_msg(&mut &wire[..cut])), "cut at {}", cut);
    }

    /// A length word above the cap is refused before any allocation.
    #[test]
    fn oversized_length_words_are_protocol_errors(
        len in (MAX_CONTROL_MSG as u64 + 1)..(u32::MAX as u64 + 1),
    ) {
        let wire = (len as u32).to_le_bytes();
        prop_assert!(is_protocol(read_msg(&mut wire.as_slice())));
    }

    /// Random bytes never panic any reader or decoder.
    #[test]
    fn random_bytes_never_panic(raw in prop::collection::vec(0u64..256, 0..200usize)) {
        let bytes = to_bytes(&raw);
        prop_assert!(is_typed(&read_msg(&mut bytes.as_slice())));
        prop_assert!(is_typed(&read_hello(&mut bytes.as_slice())));
        prop_assert!(is_typed(&decode_request(&bytes)));
        prop_assert!(is_typed(&decode_response(&bytes)));
    }

    /// Random bytes behind a binary magic exercise the checkpoint arms.
    #[test]
    fn random_binary_payloads_never_panic(
        kind in 0u64..256,
        raw in prop::collection::vec(0u64..256, 0..40usize),
    ) {
        let mut payload = CONTROL_BIN_MAGIC.to_vec();
        payload.push(kind as u8);
        payload.extend(to_bytes(&raw));
        prop_assert!(is_typed(&decode_request(&payload)));
        prop_assert!(is_typed(&decode_response(&payload)));
    }

    /// A well-formed payload cut short is rejected (JSON) or, for the
    /// binary verbs, either rejected or read as shorter opaque bytes.
    #[test]
    fn truncated_payloads_are_typed_errors(which in 0usize..23, cut_frac in 0.0f64..1.0) {
        let all = payloads();
        let (request, payload) = &all[which % all.len()];
        let cut = ((payload.len() - 1) as f64 * cut_frac) as usize;
        let result = decode_either(*request, &payload[..cut]);
        if is_binary(&payload[..cut]) {
            prop_assert!(is_typed(&result));
        } else {
            prop_assert!(is_protocol(result), "cut at {}", cut);
        }
    }

    /// Flipping one byte of a well-formed payload never panics.
    #[test]
    fn single_byte_corruption_is_contained(
        which in 0usize..23,
        at_frac in 0.0f64..1.0,
        xor in 1u64..256,
    ) {
        let all = payloads();
        let (request, payload) = &all[which % all.len()];
        let mut bad = payload.clone();
        let at = ((bad.len() - 1) as f64 * at_frac) as usize;
        bad[at] ^= xor as u8;
        let result = decode_either(*request, &bad);
        prop_assert!(is_typed(&result));
    }
}

#[test]
fn every_message_round_trips_exactly() {
    for request in requests() {
        let wire = framed(&encode_request(&request));
        let payload = read_msg(&mut wire.as_slice()).unwrap();
        assert_eq!(decode_request(&payload).unwrap(), request);
    }
    for response in responses() {
        let wire = framed(&encode_response(&response));
        let payload = read_msg(&mut wire.as_slice()).unwrap();
        assert_eq!(decode_response(&payload).unwrap(), response);
    }
}

/// The fixed corpus: each malformed shape and the typed error it maps to.
#[test]
fn malformed_corpus_rejects_with_typed_errors() {
    // Framing: a truncated length prefix, a truncated payload, and
    // length words just above the cap and at u32::MAX.
    let wire = framed(b"{\"Stats\":{\"id\":1}}");
    for cut in [0, 1, 3, 4, wire.len() - 1] {
        assert!(is_eof(read_msg(&mut &wire[..cut])), "cut at {cut}");
    }
    for len in [MAX_CONTROL_MSG as u32 + 1, u32::MAX] {
        assert!(is_protocol(read_msg(&mut &len.to_le_bytes()[..])));
    }
    assert_eq!(read_msg(&mut &framed(b"")[..]).unwrap(), b"");

    // Handshake: truncated, each magic byte flipped, every version
    // outside 1..=CONTROL_VERSION (0 and CONTROL_VERSION + 1 included).
    let mut hello = Vec::new();
    write_hello_version(&mut hello, CONTROL_VERSION).unwrap();
    assert_eq!(hello[..4], WIRE_MAGIC);
    for cut in 0..hello.len() {
        assert!(is_eof(read_hello(&mut &hello[..cut])), "cut at {cut}");
    }
    for i in 0..4 {
        let mut bad = hello.clone();
        bad[i] ^= 0xFF;
        assert!(is_protocol(read_hello(&mut bad.as_slice())));
    }
    for version in 0..=u8::MAX {
        let mut skewed = hello.clone();
        skewed[4] = version;
        let result = read_hello(&mut skewed.as_slice());
        if (1..=CONTROL_VERSION).contains(&version) {
            assert_eq!(result.unwrap(), version);
        } else {
            assert!(is_protocol(result), "version {version}");
        }
    }

    // Payloads: empty, not UTF-8, JSON of the wrong shape, a payload
    // for the other direction, bad binary magic, unknown binary kinds,
    // a short SnapshotBin id.
    for bad in [
        &b""[..],
        b"\xFF\xFE{",
        b"null",
        b"[]",
        b"{\"Nope\":1}",
        b"{\"Open\":{\"id\":1}}",
        b"{\"Opened\":{\"id\":1}}",
        b"FCTM\x01\x07\x00\x00\x00\x00\x00\x00\x00",
        b"FCTL\x00",
        b"FCTL\x03\x07\x00\x00\x00\x00\x00\x00\x00",
        b"FCTL\x01\x07\x00\x00",
        b"FCTL\x01\x07\x00\x00\x00\x00\x00\x00\x00\x00",
    ] {
        assert!(is_protocol(decode_request(bad)), "request {bad:?}");
    }
    for bad in [
        &b""[..],
        b"\xC3",
        b"{\"Open\":{\"id\":1,\"initial\":[],\"inbox_capacity\":1}}",
        b"FCTL\x01\x07\x00\x00\x00\x00\x00\x00\x00",
        b"FCTL\x02",
        b"FCTL\xFF",
        b"FCTL\x03\x07\x00\x00\x00",
    ] {
        assert!(is_protocol(decode_response(bad)), "response {bad:?}");
    }

    // Deep nesting is refused, not recursed into: a peer must not be
    // able to overflow a connection thread's stack.
    for open in [b'[', b'{'] {
        let deep = vec![open; 1 << 20];
        assert!(is_protocol(decode_request(&deep)));
        assert!(is_protocol(decode_response(&deep)));
    }
    let mut nested = b"{\"Metrics\":{\"body\":".to_vec();
    nested.extend(std::iter::repeat_n(b'[', 200_000));
    assert!(is_protocol(decode_response(&nested)));
}

//! Handshake-codec integration tests (ISSUE 10 satellite): round-trip
//! properties over random handshake fields, a never-panics fuzz pass over
//! arbitrary bytes, exhaustive single-bit-flip rejection (every flipped
//! record either fails structural decode or fails MAC verification — no
//! bit of a handshake is slack), and wire-level truncation against a live
//! authenticated endpoint.

use proptest::prelude::*;
use rbvc_transport::auth::{
    decode_challenge, decode_response, dial_handshake, dial_handshake_with, encode_challenge,
    encode_response, response, response_mac, HandshakeResponse, AUTH_VERSION, CHALLENGE_LEN,
    RESPONSE_LEN,
};
use rbvc_transport::{derive_pair_key, hmac_sha256};

/// Uniform random bytes of a fixed length (the stub proptest has no
/// `any::<u8>()`, so sample `0..256` and narrow).
fn bytes(n: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((0u16..256).prop_map(|b| b as u8), n)
}

fn arr<const N: usize>(v: Vec<u8>) -> [u8; N] {
    v.try_into().expect("sized")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn challenge_round_trips(nonce in bytes(16)) {
        let nonce: [u8; 16] = arr(nonce);
        let encoded = encode_challenge(&nonce);
        prop_assert_eq!(decode_challenge(&encoded), Ok(nonce));
    }

    #[test]
    fn response_round_trips(
        dialer in 0u32..u32::MAX,
        generation in 0u64..u64::MAX,
        t_tx in 0u64..u64::MAX,
        mac in bytes(32),
    ) {
        let r = HandshakeResponse { dialer, generation, t_tx, mac: arr(mac) };
        prop_assert_eq!(decode_response(&encode_response(&r)), Ok(r));
    }

    #[test]
    fn decode_never_panics_on_arbitrary_bytes(
        challenge in bytes(CHALLENGE_LEN),
        response in bytes(RESPONSE_LEN),
    ) {
        // Any 20/56 bytes either decode (magic+version happened to match)
        // or are rejected with a reason — never a panic. A structural
        // accept is fine: identity rests on the MAC, not the envelope.
        let _ = decode_challenge(&arr::<CHALLENGE_LEN>(challenge));
        let resp: [u8; RESPONSE_LEN] = arr(response);
        if let Ok(r) = decode_response(&resp) {
            prop_assert_eq!(&resp[..3], b"RBA");
            prop_assert_eq!(encode_response(&r), resp);
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected(
        seed in bytes(32),
        nonce in bytes(16),
        generation in 0u64..u64::MAX,
        t_tx in 0u64..u64::MAX,
    ) {
        // A fully valid response under the real pairwise key…
        let seed: [u8; 32] = arr(seed);
        let nonce: [u8; 16] = arr(nonce);
        let key = derive_pair_key(&seed, 2, 5);
        let mac = response_mac(&key, &nonce, 2, 5, generation, t_tx);
        let valid = encode_response(&HandshakeResponse { dialer: 2, generation, t_tx, mac });
        // …must die on ANY single bit flip: header flips fail structural
        // decode; body flips decode but fail what the responder recomputes
        // (a flipped dialer id additionally fails the link-peer cross-check
        // before the MAC is even consulted).
        for byte in 0..RESPONSE_LEN {
            for bit in 0..8 {
                let mut tampered = valid;
                tampered[byte] ^= 1 << bit;
                let verdict = match decode_response(&tampered) {
                    Err(_) => false,
                    Ok(r) => {
                        let expect =
                            response_mac(&key, &nonce, r.dialer, 5, r.generation, r.t_tx);
                        r.dialer == 2 && expect == r.mac
                    }
                };
                prop_assert!(!verdict, "flip at byte {} bit {} survived", byte, bit);
            }
        }
    }

    #[test]
    fn truncated_challenges_cannot_be_completed(
        nonce in bytes(16),
        cut in 0usize..CHALLENGE_LEN,
    ) {
        // The codec reads fixed-size records, so truncation surfaces as a
        // failed sized conversion before decode is even reachable.
        let encoded = encode_challenge(&arr::<16>(nonce));
        let shortened: Result<[u8; CHALLENGE_LEN], _> = encoded[..cut].to_vec().try_into();
        prop_assert!(shortened.is_err());
    }

    #[test]
    fn hmac_is_deterministic_and_key_separated(
        pool_a in bytes(128),
        pool_b in bytes(128),
        len_a in 0usize..128,
        len_b in 0usize..128,
        msg_pool in bytes(256),
        msg_len in 0usize..256,
    ) {
        let (key_a, key_b) = (&pool_a[..len_a], &pool_b[..len_b]);
        let msg = &msg_pool[..msg_len];
        prop_assert_eq!(hmac_sha256(key_a, msg), hmac_sha256(key_a, msg));
        if key_a != key_b {
            prop_assert_ne!(hmac_sha256(key_a, msg), hmac_sha256(key_b, msg));
        }
    }
}

#[test]
fn wire_truncation_mid_handshake_is_rejected_and_attributed() {
    use rbvc_transport::tcp_mesh_loopback_authenticated;
    use rbvc_transport::{AuthEvent, Transport};
    use std::io::{Read as _, Write as _};
    use std::time::Duration;

    let seed = [0x11u8; 32];
    let mut mesh = tcp_mesh_loopback_authenticated(2, &seed).expect("auth mesh");
    let addr = mesh[0].listen_addr();
    let mut s = std::net::TcpStream::connect(addr).expect("dial");
    // Valid v3 HELLO claiming peer 1…
    s.write_all(&rbvc_transport::auth::hello(AUTH_VERSION, 1, 777)).expect("hello");
    let mut challenge = [0u8; CHALLENGE_LEN];
    s.read_exact(&mut challenge).expect("challenge");
    let nonce = decode_challenge(&challenge).expect("well-formed challenge");
    // …then a *truncated* (but otherwise correct) response, cut mid-MAC.
    let key = derive_pair_key(&seed, 1, 0);
    let mac = response_mac(&key, &nonce, 1, 0, 1, 777);
    let full = encode_response(&HandshakeResponse { dialer: 1, generation: 1, t_tx: 777, mac });
    s.write_all(&full[..RESPONSE_LEN / 2]).expect("half response");
    drop(s);
    let mut rejected = false;
    for _ in 0..100 {
        let _ = mesh[0].recv_timeout(Duration::from_millis(20));
        let evs = mesh[0].take_auth_events();
        if evs.iter().any(|e| {
            matches!(e, AuthEvent::Rejected { peer: Some(1), reason } if reason == "truncated-response")
        }) {
            rejected = true;
            break;
        }
    }
    assert!(rejected, "truncated handshake must be rejected as truncated-response");
    // dial_handshake itself reports truncation from the dialer side too.
    let probe = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let paddr = probe.local_addr().expect("addr");
    let silent = std::thread::spawn(move || {
        // Accept, send half a challenge, hang up.
        let (mut c, _) = probe.accept().expect("accept");
        let half = encode_challenge(&[9u8; 16]);
        c.write_all(&half[..CHALLENGE_LEN / 2]).ok();
    });
    let mut s2 = std::net::TcpStream::connect(paddr).expect("dial");
    let err = dial_handshake(&mut s2, 0, 1, &key, 1, 1).expect_err("must fail");
    assert!(err.contains("challenge read failed"), "unexpected error: {err}");
    silent.join().expect("no panic");
}

/// The split dialer writes what the unsplit one wrote: against a fixed
/// nonce, key, generation and `t_tx`, `dial_handshake_with` under the honest
/// closure puts the HELLO and response bytes on the wire that
/// `dial_handshake` put there before the split (captured at `9527db8`), and
/// `dial_handshake` still does.
#[test]
fn honest_closure_writes_the_bytes_dial_handshake_always_wrote() {
    use std::io::{Read as _, Write as _};
    const AT_PARENT: &str = "524248030200000015cd5b07000000005242410302000000070000000000000015cd\
        5b07000000009c85811ecacf0328a2669a7e87030ce01d130ab27f9660468e1e2be65f6d7655";
    let key = derive_pair_key(&[0x42; 32], 2, 5);
    let (generation, t_tx) = (7, 123_456_789);
    let honest = |nonce: &[u8; 16]| response(&key, nonce, 2, 5, generation, t_tx);
    for split in [true, false] {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addr = listener.local_addr().expect("addr");
        let responder = std::thread::spawn(move || {
            let (mut c, _) = listener.accept().expect("accept");
            let mut seen = [0u8; 16 + RESPONSE_LEN];
            c.read_exact(&mut seen[..16]).expect("hello");
            c.write_all(&encode_challenge(&[0xA5; 16])).expect("challenge");
            c.read_exact(&mut seen[16..]).expect("response");
            seen.iter().map(|b| format!("{b:02x}")).collect::<String>()
        });
        let mut s = std::net::TcpStream::connect(addr).expect("dial");
        if split {
            let written = dial_handshake_with(&mut s, 2, t_tx, honest).expect("handshake");
            assert_eq!(written, honest(&[0xA5; 16]), "returns what it wrote");
        } else {
            dial_handshake(&mut s, 2, 5, &key, generation, t_tx).expect("handshake");
        }
        assert_eq!(responder.join().expect("no panic"), AT_PARENT, "split = {split}");
    }
}

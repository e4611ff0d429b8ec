//! Cryptographic link identity: SHA-256, HMAC-SHA-256, pairwise key
//! derivation, and the challenge–response handshake whole — its records
//! (the HELLO included), the dialer ([`dial_handshake_with`]) and the
//! responder ([`respond_handshake`]).
//!
//! Every TCP link comes up through the handshake below, so a peer is the
//! holder of its pairwise key, never whoever claims its process id. No
//! crypto crates are vendored (the build is offline), so SHA-256 and
//! HMAC-SHA-256 are implemented here from scratch and validated against
//! the FIPS 180-4 and RFC 4231 known-answer vectors in the test module.
//!
//! ## Key model
//!
//! Every mesh shares one 32-byte **seed key**, distributed out of band
//! (the campaigns thread it through the harness; a deployment would
//! provision it like any other secret). Each unordered pair `{a, b}`
//! derives its **pairwise pre-shared key** deterministically:
//!
//! ```text
//! key_ab = HMAC-SHA256(seed, "rbvc-key-v1" ‖ min(a,b) ‖ max(a,b))
//! ```
//!
//! A node holds only the `n − 1` keys for pairs it belongs to
//! ([`MeshAuth`]); compromising one node therefore forfeits exactly that
//! node's links, not the whole mesh's (the seed itself never travels and
//! is dropped after derivation — see [`MeshAuth::derive`]).
//!
//! ## Handshake (three messages, dialer `d` → responder `r`)
//!
//! ```text
//! d → r   HELLO      "RBH" ver=3  d u32        t0 u64          (16 B)
//! r → d   CHALLENGE  "RBN" ver=3  nonce [16]                   (20 B)
//! d → r   RESPONSE   "RBA" ver=3  d u32  gen u64  t_tx u64
//!                    mac = HMAC(key_dr, "rbvc-hs-v1" ‖ nonce ‖
//!                               d ‖ r ‖ gen ‖ t_tx)  [32]      (56 B)
//! ```
//!
//! The responder picks a fresh random nonce per connection, so a captured
//! handshake can never be replayed — the old MAC covers the old nonce.
//! The MAC binds both endpoint ids (direction binding: a response
//! harvested from the `a → b` direction never verifies as `b → a`, and a
//! reflected challenge is just bytes, not a MAC), the dialer's handshake
//! generation counter, and the send timestamp the skew gauges need. The
//! link only goes live after the responder verifies the MAC.
//!
//! What this layer does **not** provide: confidentiality (frames travel
//! in the clear) and per-frame integrity (a link, once authenticated, is
//! trusted for its lifetime — tampering *within* an established TCP
//! stream is outside the model, which targets forged *connections*).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use rbvc_obs::Registry;
use rbvc_sim::config::ProcessId;

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4)
// ---------------------------------------------------------------------------

/// SHA-256 round constants: the first 32 bits of the fractional parts of
/// the cube roots of the first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a_2f98, 0x7137_4491, 0xb5c0_fbcf, 0xe9b5_dba5, 0x3956_c25b, 0x59f1_11f1, 0x923f_82a4,
    0xab1c_5ed5, 0xd807_aa98, 0x1283_5b01, 0x2431_85be, 0x550c_7dc3, 0x72be_5d74, 0x80de_b1fe,
    0x9bdc_06a7, 0xc19b_f174, 0xe49b_69c1, 0xefbe_4786, 0x0fc1_9dc6, 0x240c_a1cc, 0x2de9_2c6f,
    0x4a74_84aa, 0x5cb0_a9dc, 0x76f9_88da, 0x983e_5152, 0xa831_c66d, 0xb003_27c8, 0xbf59_7fc7,
    0xc6e0_0bf3, 0xd5a7_9147, 0x06ca_6351, 0x1429_2967, 0x27b7_0a85, 0x2e1b_2138, 0x4d2c_6dfc,
    0x5338_0d13, 0x650a_7354, 0x766a_0abb, 0x81c2_c92e, 0x9272_2c85, 0xa2bf_e8a1, 0xa81a_664b,
    0xc24b_8b70, 0xc76c_51a3, 0xd192_e819, 0xd699_0624, 0xf40e_3585, 0x106a_a070, 0x19a4_c116,
    0x1e37_6c08, 0x2748_774c, 0x34b0_bcb5, 0x391c_0cb3, 0x4ed8_aa4a, 0x5b9c_ca4f, 0x682e_6ff3,
    0x748f_82ee, 0x78a5_636f, 0x84c8_7814, 0x8cc7_0208, 0x90be_fffa, 0xa450_6ceb, 0xbef9_a3f7,
    0xc671_78f2,
];

/// Initial hash state: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09_e667, 0xbb67_ae85, 0x3c6e_f372, 0xa54f_f53a, 0x510e_527f, 0x9b05_688c, 0x1f83_d9ab,
    0x5be0_cd19,
];

/// Incremental SHA-256 (FIPS 180-4). Feed bytes with [`Sha256::update`],
/// close with [`Sha256::finalize`].
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Partial block awaiting compression.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// Fresh hasher.
    #[must_use]
    pub fn new() -> Sha256 {
        Sha256 { state: H0, buf: [0u8; 64], buf_len: 0, len: 0 }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
            rest = tail;
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Close the hash: pad (0x80, zeros, 64-bit big-endian bit length) and
    /// return the 32-byte digest.
    #[must_use]
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.len.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        // Length goes straight into the buffer (update would recount it).
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// One compression round over a 64-byte block (FIPS 180-4 §6.2.2).
    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (t, chunk) in block.chunks_exact(4).enumerate() {
            w[t] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for t in 16..64 {
            let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
            let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
            w[t] = w[t - 16]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for t in 0..64 {
            let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(big_s1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(w[t]);
            let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = big_s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// One-shot SHA-256 of `data`.
#[must_use]
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

// ---------------------------------------------------------------------------
// HMAC-SHA-256 (RFC 2104 / FIPS 198-1)
// ---------------------------------------------------------------------------

/// HMAC-SHA-256 of `msg` under `key` (any key length: keys longer than
/// the 64-byte block are hashed first, per the spec).
#[must_use]
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; 32] {
    let mut k = [0u8; 64];
    if key.len() > 64 {
        k[..32].copy_from_slice(&sha256(key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0x36u8; 64];
    let mut opad = [0x5cu8; 64];
    for i in 0..64 {
        ipad[i] ^= k[i];
        opad[i] ^= k[i];
    }
    let mut inner = Sha256::new();
    inner.update(&ipad);
    inner.update(msg);
    let inner_digest = inner.finalize();
    let mut outer = Sha256::new();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// Constant-time 32-byte comparison: the verdict leaks, the mismatch
/// position does not.
#[must_use]
pub fn mac_eq(a: &[u8; 32], b: &[u8; 32]) -> bool {
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

// ---------------------------------------------------------------------------
// Pairwise key derivation
// ---------------------------------------------------------------------------

/// Domain-separation label of the key-derivation MAC.
const KEY_LABEL: &[u8] = b"rbvc-key-v1";

/// The pairwise pre-shared key of the unordered pair `{a, b}`:
/// `HMAC-SHA256(seed, "rbvc-key-v1" ‖ min ‖ max)` (ids as little-endian
/// u32). Symmetric by construction — both ends derive the same key.
#[must_use]
pub fn derive_pair_key(seed: &[u8; 32], a: ProcessId, b: ProcessId) -> [u8; 32] {
    let (lo, hi) = (a.min(b) as u32, a.max(b) as u32);
    let mut msg = Vec::with_capacity(KEY_LABEL.len() + 8);
    msg.extend_from_slice(KEY_LABEL);
    msg.extend_from_slice(&lo.to_le_bytes());
    msg.extend_from_slice(&hi.to_le_bytes());
    hmac_sha256(seed, &msg)
}

/// One node's share of the mesh key material: the pairwise keys for every
/// link this node belongs to, plus the per-process handshake generation
/// counter the dialer binds into its MAC.
pub struct MeshAuth {
    local: ProcessId,
    /// `keys[p]` = pairwise key of `{local, p}` (`keys[local]` is the
    /// degenerate self-pair, present only to keep indexing direct).
    keys: Vec<[u8; 32]>,
    /// Dialer-side handshake counter ("generation" in the response MAC):
    /// strictly increasing per process, so two handshakes from one
    /// process are distinguishable even at equal clock reads.
    generation: AtomicU64,
}

impl MeshAuth {
    /// Derive node `local`'s key share for an `n`-process mesh from the
    /// shared seed. The seed itself is not retained.
    #[must_use]
    pub fn derive(seed: &[u8; 32], local: ProcessId, n: usize) -> MeshAuth {
        let keys = (0..n).map(|p| derive_pair_key(seed, local, p)).collect();
        MeshAuth { local, keys, generation: AtomicU64::new(0) }
    }

    /// The node this share belongs to.
    #[must_use]
    pub fn local(&self) -> ProcessId {
        self.local
    }

    /// Mesh size.
    #[must_use]
    pub fn n(&self) -> usize {
        self.keys.len()
    }

    /// The pairwise key shared with `peer`.
    #[must_use]
    pub fn key(&self, peer: ProcessId) -> &[u8; 32] {
        &self.keys[peer]
    }

    /// Claim the next handshake generation.
    #[must_use]
    pub fn next_generation(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Prove this node to `dst` on a freshly dialed `stream`: the honest
    /// dialer ([`dial_handshake`]) under the next generation and the current
    /// clock. Every dial and re-dial of an endpoint runs it, against the
    /// responder's fresh nonce. Nagle is off for the stream from here on,
    /// and every write to it is bounded by [`crate::tcp::WRITE_TIMEOUT`]: a
    /// peer that stops reading fails the flush to it, not the poll thread.
    ///
    /// # Errors
    /// As [`dial_handshake_with`].
    pub fn prove(&self, stream: &mut TcpStream, dst: ProcessId) -> Result<(), String> {
        stream.set_nodelay(true).ok();
        stream.set_write_timeout(Some(crate::tcp::WRITE_TIMEOUT)).ok();
        let t_tx = rbvc_obs::clock::now_us().max(1);
        dial_handshake(stream, self.local, dst, self.key(dst), self.next_generation(), t_tx)
    }
}

// ---------------------------------------------------------------------------
// Handshake codec
// ---------------------------------------------------------------------------

/// Handshake version carried by every handshake record (the retired
/// plaintext HELLO, [`HELLO_VERSION`], is refused).
pub const AUTH_VERSION: u8 = 3;
/// HELLO magic (3 bytes) followed by the handshake version byte.
pub const HELLO_MAGIC: [u8; 3] = *b"RBH";
/// The retired plaintext handshake version. No endpoint speaks it: a HELLO
/// carrying it is refused as a `downgrade`. Links open with
/// [`AUTH_VERSION`]; the handshake is versioned separately from
/// [`crate::wire`] because it can evolve without touching the frame codec.
pub const HELLO_VERSION: u8 = 2;
/// HELLO size on the wire: magic + version + peer u32 + `t_tx` u64.
pub const HELLO_LEN: usize = 16;
/// Challenge magic.
pub const CHALLENGE_MAGIC: [u8; 3] = *b"RBN";
/// Response magic.
pub const RESPONSE_MAGIC: [u8; 3] = *b"RBA";
/// Challenge size on the wire: magic + version + 16-byte nonce.
pub const CHALLENGE_LEN: usize = 20;
/// Response size on the wire: magic + version + dialer u32 +
/// generation u64 + `t_tx` u64 + 32-byte MAC.
pub const RESPONSE_LEN: usize = 56;
/// Offset of the 32-byte MAC inside an encoded response (what a MAC
/// forgery flips a bit of).
pub const RESPONSE_MAC_OFFSET: usize = RESPONSE_LEN - 32;
/// Domain-separation label of the response MAC.
const HS_LABEL: &[u8] = b"rbvc-hs-v1";
/// How long either side waits for the other's next handshake record
/// before giving the connection up.
pub const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// The HELLO record: [`AUTH_VERSION`] opens the keyed handshake,
/// [`HELLO_VERSION`] is the retired plaintext one. The one place the layout
/// is assembled — [`dial_handshake_with`], the tests and the wire
/// adversaries all announce themselves through it.
#[must_use]
pub fn hello(version: u8, id: ProcessId, t_tx: u64) -> [u8; HELLO_LEN] {
    let mut hello = [0u8; HELLO_LEN];
    hello[..3].copy_from_slice(&HELLO_MAGIC);
    hello[3] = version;
    hello[4..8].copy_from_slice(&(id as u32).to_le_bytes());
    hello[8..].copy_from_slice(&t_tx.to_le_bytes());
    hello
}

/// Encode a challenge carrying `nonce`.
#[must_use]
pub fn encode_challenge(nonce: &[u8; 16]) -> [u8; CHALLENGE_LEN] {
    let mut out = [0u8; CHALLENGE_LEN];
    out[..3].copy_from_slice(&CHALLENGE_MAGIC);
    out[3] = AUTH_VERSION;
    out[4..].copy_from_slice(nonce);
    out
}

/// Decode a challenge; returns the nonce.
///
/// # Errors
/// A human-readable reason when magic or version are wrong. Never panics
/// on any input.
pub fn decode_challenge(buf: &[u8; CHALLENGE_LEN]) -> Result<[u8; 16], String> {
    if buf[..3] != CHALLENGE_MAGIC {
        return Err("challenge magic mismatch".into());
    }
    if buf[3] != AUTH_VERSION {
        return Err(format!("challenge version {} (expected {AUTH_VERSION})", buf[3]));
    }
    let mut nonce = [0u8; 16];
    nonce.copy_from_slice(&buf[4..]);
    Ok(nonce)
}

/// The fields of a decoded handshake response (MAC not yet verified).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandshakeResponse {
    /// The id the dialer claims.
    pub dialer: u32,
    /// The dialer's handshake generation counter.
    pub generation: u64,
    /// The dialer's monotonic send timestamp (µs) — feeds the skew gauge.
    pub t_tx: u64,
    /// `HMAC(key, "rbvc-hs-v1" ‖ nonce ‖ dialer ‖ responder ‖ generation ‖ t_tx)`.
    pub mac: [u8; 32],
}

/// Encode a response record.
#[must_use]
pub fn encode_response(r: &HandshakeResponse) -> [u8; RESPONSE_LEN] {
    let mut out = [0u8; RESPONSE_LEN];
    out[..3].copy_from_slice(&RESPONSE_MAGIC);
    out[3] = AUTH_VERSION;
    out[4..8].copy_from_slice(&r.dialer.to_le_bytes());
    out[8..16].copy_from_slice(&r.generation.to_le_bytes());
    out[16..RESPONSE_MAC_OFFSET].copy_from_slice(&r.t_tx.to_le_bytes());
    out[RESPONSE_MAC_OFFSET..].copy_from_slice(&r.mac);
    out
}

/// Decode a response record (structure only — verify the MAC separately
/// with [`response_verifies`]).
///
/// # Errors
/// A human-readable reason when magic or version are wrong. Never panics
/// on any input.
pub fn decode_response(buf: &[u8; RESPONSE_LEN]) -> Result<HandshakeResponse, String> {
    if buf[..3] != RESPONSE_MAGIC {
        return Err("response magic mismatch".into());
    }
    if buf[3] != AUTH_VERSION {
        return Err(format!("response version {} (expected {AUTH_VERSION})", buf[3]));
    }
    let mut mac = [0u8; 32];
    mac.copy_from_slice(&buf[RESPONSE_MAC_OFFSET..]);
    Ok(HandshakeResponse {
        dialer: u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes")),
        generation: u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes")),
        t_tx: u64::from_le_bytes(buf[16..RESPONSE_MAC_OFFSET].try_into().expect("8 bytes")),
        mac,
    })
}

/// The MAC a correct dialer puts in its response:
/// `HMAC(key, "rbvc-hs-v1" ‖ nonce ‖ dialer ‖ responder ‖ generation ‖ t_tx)`.
/// Both endpoint ids are bound (direction binding), so a response
/// harvested from one direction of a pair never verifies for the other.
#[must_use]
pub fn response_mac(
    key: &[u8; 32],
    nonce: &[u8; 16],
    dialer: u32,
    responder: u32,
    generation: u64,
    t_tx: u64,
) -> [u8; 32] {
    let mut msg = Vec::with_capacity(HS_LABEL.len() + 16 + 4 + 4 + 8 + 8);
    msg.extend_from_slice(HS_LABEL);
    msg.extend_from_slice(nonce);
    msg.extend_from_slice(&dialer.to_le_bytes());
    msg.extend_from_slice(&responder.to_le_bytes());
    msg.extend_from_slice(&generation.to_le_bytes());
    msg.extend_from_slice(&t_tx.to_le_bytes());
    hmac_sha256(key, &msg)
}

/// The response record a correct dialer `dialer` writes to `responder` —
/// the one place [`response_mac`] meets [`encode_response`]. A forger calls
/// it too, with a key or an identity that is not its to use.
#[must_use]
pub fn response(
    key: &[u8; 32],
    nonce: &[u8; 16],
    dialer: ProcessId,
    responder: ProcessId,
    generation: u64,
    t_tx: u64,
) -> [u8; RESPONSE_LEN] {
    let (dialer, responder) = (dialer as u32, responder as u32);
    let mac = response_mac(key, nonce, dialer, responder, generation, t_tx);
    encode_response(&HandshakeResponse { dialer, generation, t_tx, mac })
}

/// Responder `responder`'s verdict on a decoded response to its `nonce`:
/// the MAC is the one [`response`] would have written under `key`
/// (compared in constant time).
#[must_use]
pub fn response_verifies(
    key: &[u8; 32],
    nonce: &[u8; 16],
    responder: ProcessId,
    r: &HandshakeResponse,
) -> bool {
    let expected = response_mac(key, nonce, r.dialer, responder as u32, r.generation, r.t_tx);
    mac_eq(&expected, &r.mac)
}

// ---------------------------------------------------------------------------
// Nonce generation
// ---------------------------------------------------------------------------

/// Per-process nonce seed: 32 bytes from `/dev/urandom` where available,
/// otherwise a hash of whatever per-process entropy `std` exposes. The
/// seed only has to be unpredictable to remote forgers; per-connection
/// uniqueness comes from the counter mixed in below.
fn nonce_seed() -> &'static [u8; 32] {
    static SEED: OnceLock<[u8; 32]> = OnceLock::new();
    SEED.get_or_init(|| {
        let mut seed = [0u8; 32];
        let from_os = std::fs::File::open("/dev/urandom")
            .and_then(|mut f| f.read_exact(&mut seed))
            .is_ok();
        if !from_os {
            let mut h = Sha256::new();
            h.update(&std::process::id().to_le_bytes());
            h.update(&rbvc_obs::clock::now_us().to_le_bytes());
            h.update(&(&seed as *const _ as usize).to_le_bytes());
            h.update(&std::time::UNIX_EPOCH.elapsed().map_or(0, |d| d.as_nanos() as u64).to_le_bytes());
            seed = h.finalize();
        }
        seed
    })
}

/// A fresh 16-byte challenge nonce: `SHA256(seed ‖ counter ‖ clock)`
/// truncated. Unique per call (the counter) and unpredictable to anyone
/// without the process seed.
#[must_use]
pub fn fresh_nonce() -> [u8; 16] {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let mut h = Sha256::new();
    h.update(nonce_seed());
    h.update(&COUNTER.fetch_add(1, Ordering::Relaxed).to_le_bytes());
    h.update(&rbvc_obs::clock::now_us().to_le_bytes());
    let digest = h.finalize();
    let mut nonce = [0u8; 16];
    nonce.copy_from_slice(&digest[..16]);
    nonce
}

// ---------------------------------------------------------------------------
// Dialer-side handshake driver
// ---------------------------------------------------------------------------

/// Run the dialer side of the handshake on a fresh stream: write the v3
/// HELLO claiming `claimed_id`, read the challenge, and answer it with
/// whatever `respond` makes of the nonce. Returns the response bytes
/// written. The honest dialer is [`dial_handshake`]; a forgery (the wire
/// adversaries of [`crate::byzantine`]) is the same call with a different
/// closure — a stale capture, a reflected nonce, a flipped MAC bit. Read
/// timeouts are set for the handshake and cleared before returning.
///
/// # Errors
/// A human-readable reason on any IO failure, timeout, or malformed
/// challenge. The stream should be discarded on error.
pub fn dial_handshake_with(
    stream: &mut TcpStream,
    claimed_id: ProcessId,
    t_tx: u64,
    respond: impl FnOnce(&[u8; 16]) -> [u8; RESPONSE_LEN],
) -> Result<[u8; RESPONSE_LEN], String> {
    stream
        .set_read_timeout(Some(HANDSHAKE_TIMEOUT))
        .map_err(|e| format!("set handshake timeout: {e}"))?;
    stream
        .write_all(&hello(AUTH_VERSION, claimed_id, t_tx))
        .map_err(|e| format!("HELLO write failed: {e}"))?;
    let mut challenge = [0u8; CHALLENGE_LEN];
    stream
        .read_exact(&mut challenge)
        .map_err(|e| format!("challenge read failed: {e}"))?;
    let response = respond(&decode_challenge(&challenge)?);
    stream.write_all(&response).map_err(|e| format!("response write failed: {e}"))?;
    stream.set_read_timeout(None).map_err(|e| format!("clear handshake timeout: {e}"))?;
    Ok(response)
}

/// The honest dialer: [`dial_handshake_with`] answering with [`response`]
/// under `key`. The caller picks `generation` and `t_tx` (endpoints use
/// [`MeshAuth::next_generation`] and the current clock; tests pass fixed
/// values).
///
/// # Errors
/// As [`dial_handshake_with`].
pub fn dial_handshake(
    stream: &mut TcpStream,
    claimed_id: ProcessId,
    responder: ProcessId,
    key: &[u8; 32],
    generation: u64,
    t_tx: u64,
) -> Result<(), String> {
    dial_handshake_with(stream, claimed_id, t_tx, |nonce| {
        response(key, nonce, claimed_id, responder, generation, t_tx)
    })
    .map(drop)
}

/// Bytes a dialer-side handshake puts on the wire (HELLO + response) —
/// the accounting constant for `bytes_sent`.
pub const DIAL_HANDSHAKE_TX_LEN: u64 = (HELLO_LEN + RESPONSE_LEN) as u64;

// ---------------------------------------------------------------------------
// Responder-side handshake driver
// ---------------------------------------------------------------------------

/// What the responder side of one handshake came to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The dialer proved it holds this peer's pairwise key.
    Proved(ProcessId),
    /// Refused: the claimed peer when the HELLO names one in range, and the
    /// stable reason label (`auth.reject{peer,reason,dst}`).
    Refused(Option<ProcessId>, &'static str),
    /// No HELLO arrived — the dialer hung up or stalled before claiming
    /// anything. An IO failure, not a refusal: nothing is counted.
    Silent(String),
}

/// Run the responder side of the handshake on a freshly accepted stream,
/// as node `keys.local()`: read the HELLO and check it, challenge the
/// claimed peer with a fresh nonce, and verify its response under the
/// pair's key. Counts the verdict — `auth.established{peer,dst}` and
/// `auth.handshake_us` (HELLO read to verdict), or
/// `auth.reject{peer,reason,dst}` — and the handshake records that crossed
/// the wire in the endpoint's `sent` / `received` byte counters (the HELLO
/// only once the peer is proved). Read timeouts are set for the handshake
/// and cleared once the peer is proved; on any other verdict the stream
/// should be closed.
pub fn respond_handshake(
    stream: &mut TcpStream,
    keys: &MeshAuth,
    sent: &AtomicU64,
    received: &AtomicU64,
) -> Verdict {
    // A connection that stalls mid-handshake must not pin its reader.
    let _ = stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
    let mut hello = [0u8; HELLO_LEN];
    if let Err(e) = stream.read_exact(&mut hello) {
        return Verdict::Silent(format!("HELLO read failed: {e}"));
    }
    let t_rx = rbvc_obs::clock::now_us();
    let dst = keys.local().to_string();
    match judge(stream, &hello, keys, sent, received) {
        Ok(peer) => {
            let peer_s = peer.to_string();
            let labels = [("peer", peer_s.as_str()), ("dst", dst.as_str())];
            Registry::global().counter_with("auth.established", &labels).inc();
            Registry::global().counter("auth.established_total").inc();
            Registry::global()
                .histogram("auth.handshake_us")
                .record(rbvc_obs::clock::now_us().saturating_sub(t_rx));
            let _ = stream.set_read_timeout(None);
            received.fetch_add(HELLO_LEN as u64, Ordering::Relaxed);
            Verdict::Proved(peer)
        }
        Err((peer, reason)) => {
            let peer_s = peer.map_or_else(|| "?".to_string(), |p| p.to_string());
            let labels = [("peer", peer_s.as_str()), ("reason", reason), ("dst", dst.as_str())];
            Registry::global().counter_with("auth.reject", &labels).inc();
            Registry::global().counter("auth.reject_total").inc();
            Verdict::Refused(peer, reason)
        }
    }
}

/// The checks of [`respond_handshake`] after the HELLO, in wire order: the
/// HELLO's prefix and claimed peer, then the challenge and the response.
/// `Err` carries the claimed peer (when known) and the refusal's label.
fn judge(
    stream: &mut TcpStream,
    hello: &[u8; HELLO_LEN],
    keys: &MeshAuth,
    sent: &AtomicU64,
    received: &AtomicU64,
) -> Result<ProcessId, (Option<ProcessId>, &'static str)> {
    // Every HELLO version shares the prefix layout, so the claimed peer
    // parses either way — refusals get attributed whenever possible.
    let peer = u32::from_le_bytes(hello[4..8].try_into().expect("4 bytes")) as usize;
    let claimed = (peer < keys.n()).then_some(peer);
    if hello[..3] != HELLO_MAGIC {
        return Err((None, "bad-magic"));
    }
    match hello[3] {
        AUTH_VERSION => {}
        // The retired plaintext HELLO is a downgrade attempt, never a
        // legitimate peer.
        HELLO_VERSION => return Err((claimed, "downgrade")),
        _ => return Err((claimed, "bad-version")),
    }
    let peer = claimed.ok_or((None, "ghost-peer"))?;
    let require = |holds: bool, reason| if holds { Ok(()) } else { Err((Some(peer), reason)) };
    // A node never dials itself over the wire (its frames to itself never
    // reach a transport).
    require(peer != keys.local(), "self")?;
    let nonce = fresh_nonce();
    require(stream.write_all(&encode_challenge(&nonce)).is_ok(), "challenge-write")?;
    sent.fetch_add(CHALLENGE_LEN as u64, Ordering::Relaxed);
    let mut resp = [0u8; RESPONSE_LEN];
    require(stream.read_exact(&mut resp).is_ok(), "truncated-response")?;
    received.fetch_add(RESPONSE_LEN as u64, Ordering::Relaxed);
    let r = decode_response(&resp).map_err(|_| (Some(peer), "bad-response"))?;
    require(r.dialer as usize == peer, "peer-mismatch")?;
    require(response_verifies(keys.key(peer), &nonce, keys.local(), &r), "bad-mac")?;
    Ok(peer)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
            .collect()
    }

    #[test]
    fn sha256_fips_180_4_known_answers() {
        // FIPS 180-4 / NIST CAVP canonical vectors.
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                  hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            )),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
        // One million 'a' (the long-message vector).
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn sha256_incremental_matches_oneshot_at_every_split() {
        let msg: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        let oneshot = sha256(&msg);
        for split in 0..msg.len() {
            let mut h = Sha256::new();
            h.update(&msg[..split]);
            h.update(&msg[split..]);
            assert_eq!(h.finalize(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn hmac_sha256_rfc_4231_known_answers() {
        // RFC 4231 test cases 1–4, 6, 7 (case 5 truncates the output and
        // is skipped — we never truncate MACs).
        let cases: [(&str, &str, &str); 6] = [
            (
                "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b",
                &hex(b"Hi There"),
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                &hex(b"Jefe"),
                &hex(b"what do ya want for nothing?"),
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
                &"dd".repeat(50),
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                "0102030405060708090a0b0c0d0e0f10111213141516171819",
                &"cd".repeat(50),
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            (
                &"aa".repeat(131),
                &hex(b"Test Using Larger Than Block-Size Key - Hash Key First"),
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                &"aa".repeat(131),
                &hex(
                    b"This is a test using a larger than block-size key and a \
                      larger than block-size data. The key needs to be hashed \
                      before being used by the HMAC algorithm.",
                ),
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ];
        for (i, (key, msg, want)) in cases.iter().enumerate() {
            let got = hmac_sha256(&unhex(key), &unhex(msg));
            assert_eq!(hex(&got), *want, "RFC 4231 case {}", i + 1);
        }
    }

    #[test]
    fn pairwise_keys_are_symmetric_distinct_and_seed_bound() {
        let seed_a = [7u8; 32];
        let seed_b = [8u8; 32];
        assert_eq!(derive_pair_key(&seed_a, 2, 5), derive_pair_key(&seed_a, 5, 2));
        assert_ne!(derive_pair_key(&seed_a, 2, 5), derive_pair_key(&seed_a, 2, 6));
        assert_ne!(derive_pair_key(&seed_a, 2, 5), derive_pair_key(&seed_b, 2, 5));
        let auth = MeshAuth::derive(&seed_a, 3, 7);
        assert_eq!(auth.key(0), &derive_pair_key(&seed_a, 0, 3));
        assert_eq!(auth.key(6), &derive_pair_key(&seed_a, 3, 6));
        assert_eq!(auth.n(), 7);
        assert_eq!(auth.local(), 3);
        let g1 = auth.next_generation();
        let g2 = auth.next_generation();
        assert!(g2 > g1 && g1 >= 1);
    }

    #[test]
    fn handshake_codec_round_trips() {
        let nonce = fresh_nonce();
        let challenge = encode_challenge(&nonce);
        assert_eq!(decode_challenge(&challenge), Ok(nonce));
        let r = HandshakeResponse {
            dialer: 4,
            generation: 99,
            t_tx: 123_456_789,
            mac: sha256(b"not a real mac"),
        };
        let bytes = encode_response(&r);
        assert_eq!(decode_response(&bytes), Ok(r));
    }

    #[test]
    fn handshake_codec_rejects_any_single_bit_flip_in_header() {
        // Flipping any bit of the magic/version prefix must be rejected;
        // flips in the body land in the MAC check instead, which the
        // verifier covers (decode is structure-only by design).
        let challenge = encode_challenge(&[9u8; 16]);
        for byte in 0..4 {
            for bit in 0..8 {
                let mut c = challenge;
                c[byte] ^= 1 << bit;
                assert!(decode_challenge(&c).is_err(), "byte {byte} bit {bit}");
            }
        }
        let resp = encode_response(&HandshakeResponse {
            dialer: 1,
            generation: 2,
            t_tx: 3,
            mac: [0xAB; 32],
        });
        for byte in 0..4 {
            for bit in 0..8 {
                let mut r = resp;
                r[byte] ^= 1 << bit;
                assert!(decode_response(&r).is_err(), "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn response_mac_binds_every_field() {
        let key = derive_pair_key(&[1u8; 32], 0, 1);
        let nonce = [5u8; 16];
        let base = response_mac(&key, &nonce, 0, 1, 7, 1000);
        assert_ne!(base, response_mac(&key, &[6u8; 16], 0, 1, 7, 1000), "nonce");
        assert_ne!(base, response_mac(&key, &nonce, 2, 1, 7, 1000), "dialer id");
        assert_ne!(base, response_mac(&key, &nonce, 0, 2, 7, 1000), "responder id");
        assert_ne!(base, response_mac(&key, &nonce, 1, 0, 7, 1000), "direction");
        assert_ne!(base, response_mac(&key, &nonce, 0, 1, 8, 1000), "generation");
        assert_ne!(base, response_mac(&key, &nonce, 0, 1, 7, 1001), "t_tx");
        let other_key = derive_pair_key(&[1u8; 32], 0, 2);
        assert_ne!(base, response_mac(&other_key, &nonce, 0, 1, 7, 1000), "key");
        assert!(mac_eq(&base, &base));
        let mut flipped = base;
        flipped[31] ^= 1;
        assert!(!mac_eq(&base, &flipped));
    }

    #[test]
    fn nonces_never_repeat_across_a_burst() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4096 {
            assert!(seen.insert(fresh_nonce()), "nonce repeated");
        }
    }

    /// Node 5 of a 7-node mesh judges one dialed connection; `dial` plays
    /// the dialer on it.
    fn verdict(dial: impl FnOnce(&mut TcpStream)) -> Verdict {
        let keys = MeshAuth::derive(&[3u8; 32], 5, 7);
        let (tx, rx) = crossbeam::channel::unbounded();
        let bound = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let listener = crate::tcp::Listener::spawn(bound, move |conn| {
            let (sent, received) = (AtomicU64::new(0), AtomicU64::new(0));
            let mut stream = conn.expect("accepted");
            let _ = tx.send(respond_handshake(&mut stream, &keys, &sent, &received));
        })
        .expect("listen");
        let mut stream = TcpStream::connect(listener.addr).expect("dial");
        dial(&mut stream);
        drop(stream);
        rx.recv_timeout(HANDSHAKE_TIMEOUT).expect("a verdict")
    }

    /// Node 4's HELLO, then its answer to the challenge: `respond` gets the
    /// nonce and the pair's key.
    fn answer(respond: impl FnOnce(&[u8; 16], &[u8; 32]) -> [u8; RESPONSE_LEN]) -> Verdict {
        verdict(|s| {
            s.write_all(&hello(AUTH_VERSION, 4, 1)).expect("hello");
            let mut challenge = [0u8; CHALLENGE_LEN];
            s.read_exact(&mut challenge).expect("challenge");
            let nonce = decode_challenge(&challenge).expect("well-formed challenge");
            let _ = s.write_all(&respond(&nonce, &derive_pair_key(&[3u8; 32], 4, 5)));
        })
    }

    /// Every verdict of the responder but a failed challenge write, each
    /// refusal under its frozen `auth.reject` label.
    #[test]
    fn the_responder_names_every_refusal() {
        let refused = |peer, reason| Verdict::Refused(peer, reason);
        let mut bad_magic = hello(AUTH_VERSION, 4, 1);
        bad_magic[0] ^= 1;
        for (bytes, want) in [
            (bad_magic, refused(None, "bad-magic")),
            (hello(HELLO_VERSION, 4, 1), refused(Some(4), "downgrade")),
            (hello(9, 4, 1), refused(Some(4), "bad-version")),
            (hello(AUTH_VERSION, 7, 1), refused(None, "ghost-peer")),
            (hello(AUTH_VERSION, 5, 1), refused(Some(5), "self")),
        ] {
            assert_eq!(verdict(|s| s.write_all(&bytes).expect("hello")), want);
        }
        assert!(matches!(verdict(|_| {}), Verdict::Silent(_)));
        let unanswered = verdict(|s| {
            s.write_all(&hello(AUTH_VERSION, 4, 1)).expect("hello");
            s.read_exact(&mut [0u8; CHALLENGE_LEN]).expect("challenge");
        });
        assert_eq!(unanswered, refused(Some(4), "truncated-response"));
        assert_eq!(answer(|_, _| [0u8; RESPONSE_LEN]), refused(Some(4), "bad-response"));
        let other_dialer = |n: &[u8; 16], k: &[u8; 32]| response(k, n, 3, 5, 1, 1);
        assert_eq!(answer(other_dialer), refused(Some(4), "peer-mismatch"));
        let wrong_key = |n: &[u8; 16], _: &[u8; 32]| response(&[0xEE; 32], n, 4, 5, 1, 1);
        assert_eq!(answer(wrong_key), refused(Some(4), "bad-mac"));
        assert_eq!(answer(|n, k| response(k, n, 4, 5, 1, 1)), Verdict::Proved(4));
    }
}

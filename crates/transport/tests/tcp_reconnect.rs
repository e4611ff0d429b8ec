//! TCP reconnection integration: a peer that drops and re-dials must be
//! re-accepted on its existing link slot — its freshly verified handshake
//! supersedes the stale link, the survivors tear down their dead outbound
//! streams, lazily redial, and report the peer through `take_reconnects()`
//! so the service layer can replay history. No half-dead links linger.

use std::io::{Read as _, Write as _};
use std::net::TcpListener;
use std::sync::atomic::AtomicU64;
use std::thread;
use std::time::{Duration, Instant};

use rbvc_transport::auth;
use rbvc_transport::tcp::{TcpEndpoint, WRITE_TIMEOUT};
use rbvc_transport::transport::Transport;

const N: usize = 3;
const VICTIM: usize = 2;

/// Stand up a 3-endpoint loopback mesh on known (stable) addresses so the
/// victim can rebind the same address after its "crash". Every link runs
/// the keyed challenge–response handshake under pairwise keys derived from
/// `seed`.
fn stable_auth_mesh(seed: &[u8; 32]) -> (Vec<TcpEndpoint>, Vec<std::net::SocketAddr>) {
    let listeners: Vec<TcpListener> = (0..N)
        .map(|_| TcpListener::bind(("127.0.0.1", 0)).expect("bind"))
        .collect();
    let addrs: Vec<_> = listeners.iter().map(|l| l.local_addr().expect("addr")).collect();
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(id, listener)| {
            let addrs = addrs.clone();
            let seed = *seed;
            thread::spawn(move || TcpEndpoint::connect_with_auth(id, listener, &addrs, &seed))
        })
        .collect();
    let mesh: Vec<TcpEndpoint> = handles
        .into_iter()
        .map(|h| h.join().expect("no panic").expect("connect"))
        .collect();
    (mesh, addrs)
}

/// Pump `ep` until `pred` holds: every received frame is accumulated into
/// `got` (never discarded — the pred inspects it), and each spin flushes to
/// drive the lazy redial machinery.
fn pump_until<F>(
    ep: &mut TcpEndpoint,
    spins: usize,
    got: &mut Vec<(usize, Vec<u8>)>,
    mut pred: F,
) -> bool
where
    F: FnMut(&mut TcpEndpoint, &[(usize, Vec<u8>)]) -> bool,
{
    for _ in 0..spins {
        if pred(ep, got) {
            return true;
        }
        got.extend(ep.recv_timeout(Duration::from_millis(10)));
        let _ = ep.flush();
    }
    pred(ep, got)
}

/// Wait until `ep` has heard the exact frame `(from, bytes)`.
fn wait_for_frame(ep: &mut TcpEndpoint, from: usize, bytes: &[u8], spins: usize) -> bool {
    let mut got = Vec::new();
    pump_until(ep, spins, &mut got, |_, got| {
        got.iter().any(|(p, b)| *p == from && b == bytes)
    })
}

#[test]
fn restarted_timeline_supersedes_under_auth() {
    // A genuinely restarted node's clock restarted near zero, so its
    // handshake carries a tiny timestamp. Nothing orders handshakes by
    // timestamp: a verified handshake supersedes, because only the real
    // key holder can answer a fresh nonce.
    let seed = [0x5Au8; 32];
    let (mut mesh, addrs) = stable_auth_mesh(&seed);

    // Warm up every inbound link at endpoint 0, so both initial handshakes
    // have claimed generation 1 before the restarted node dials in —
    // otherwise its handshake could race the initial ones.
    mesh[1].send(0, vec![101]).unwrap();
    mesh[1].flush().unwrap();
    mesh[2].send(0, vec![102]).unwrap();
    mesh[2].flush().unwrap();
    let mut got = Vec::new();
    assert!(
        pump_until(&mut mesh[0], 200, &mut got, |_, got| {
            got.iter().any(|(p, _)| *p == 1) && got.iter().any(|(p, _)| *p == 2)
        }),
        "warmup frames never arrived: {got:?}"
    );
    assert!(rbvc_obs::clock::now_us() > 1, "clock must be past the simulated restart stamp");

    // Simulated restart of node 1 with a restarted timeline: a raw dial
    // claiming peer 1 under the *correct* pairwise key, handshake
    // generation back at 1 and t_tx = 1 — far below every stamp endpoint 0
    // has seen from peer 1. The HELLO is written out by hand: the layout's
    // pin from outside `auth::hello`, its one owner.
    let mut hello = Vec::new();
    hello.extend_from_slice(b"RBH");
    hello.push(auth::AUTH_VERSION);
    hello.extend_from_slice(&1u32.to_le_bytes()); // claims peer 1
    hello.extend_from_slice(&1u64.to_le_bytes()); // t_tx
    assert_eq!(hello, auth::hello(auth::AUTH_VERSION, 1, 1));
    let key = rbvc_transport::derive_pair_key(&seed, 1, 0);
    let mut restarted = std::net::TcpStream::connect(addrs[0]).expect("dial endpoint 0");
    restarted.write_all(&hello).unwrap();
    let mut challenge = [0u8; auth::CHALLENGE_LEN];
    restarted.read_exact(&mut challenge).expect("challenge");
    let nonce = auth::decode_challenge(&challenge).expect("well-formed challenge");
    restarted.write_all(&auth::response(&key, &nonce, 1, 0, 1, 1)).unwrap();
    restarted.write_all(&3u32.to_le_bytes()).unwrap();
    restarted.write_all(&[8, 8, 8]).unwrap();
    restarted.flush().unwrap();
    assert!(
        wait_for_frame(&mut mesh[0], 1, &[8, 8, 8], 200),
        "the restarted node's verified handshake must supersede despite its tiny t_tx"
    );
    // The supersession opened a new authenticated session epoch.
    let evs = mesh[0].take_auth_events();
    assert!(
        evs.iter().any(|e| matches!(
            e,
            rbvc_transport::AuthEvent::Established { peer: 1, epoch: 2 }
        )),
        "expected session epoch 2 for the restarted peer, got {evs:?}"
    );

    // The supersession also tore down endpoint 0's outbound writer to peer
    // 1 (a re-dial means "peer 1 restarted"), so the next flushes redial —
    // peer 1's listener is still up, and the fresh link must carry traffic
    // end to end.
    let mut reconnected = Vec::new();
    let mut got = Vec::new();
    assert!(
        pump_until(&mut mesh[0], 400, &mut got, |ep, _| {
            reconnected.extend(ep.take_reconnects());
            reconnected.contains(&1usize)
        }),
        "no redial after the stale-link teardown: {reconnected:?}"
    );
    mesh[0].send(1, vec![5]).unwrap();
    mesh[0].flush().unwrap();
    assert!(
        wait_for_frame(&mut mesh[1], 0, &[5], 200),
        "re-dialed link did not carry traffic"
    );
}

#[test]
fn a_superseded_links_read_error_leaves_the_live_link_up() {
    let seed = [0x3Cu8; 32];
    let (mut mesh, addrs) = stable_auth_mesh(&seed);
    let key = rbvc_transport::derive_pair_key(&seed, 1, 0);
    // Pump endpoint 0 until `pred` holds, without flushing: a flush would
    // redial peer 1 and mark its row up on its own.
    let settle = |ep: &mut TcpEndpoint, pred: &dyn Fn(&TcpEndpoint) -> bool| {
        for _ in 0..200 {
            if pred(ep) {
                return true;
            }
            let _ = ep.recv_timeout(Duration::from_millis(10));
        }
        pred(ep)
    };
    assert!(settle(&mut mesh[0], &|ep| ep.auth_handshakes() == 2), "initial handshakes");

    // Two raw re-dials as peer 1 under the right key: the second supersedes
    // the first, which stays open with its reader waiting for a frame.
    let dial = || {
        let mut s = std::net::TcpStream::connect(addrs[0]).expect("dial endpoint 0");
        auth::dial_handshake(&mut s, 1, 0, &key, 1, rbvc_obs::clock::now_us().max(1))
            .expect("handshake");
        s
    };
    let mut superseded = dial();
    assert!(settle(&mut mesh[0], &|ep| ep.auth_handshakes() == 3), "first re-dial");
    let _live = dial();
    assert!(settle(&mut mesh[0], &|ep| ep.auth_handshakes() == 4), "second re-dial");

    // A framing violation on the superseded stream: recorded, but it must
    // not mark the verified live link down.
    let errors_before = mesh[0].errors().total();
    superseded.write_all(&u32::MAX.to_le_bytes()).unwrap();
    superseded.flush().unwrap();
    assert!(
        settle(&mut mesh[0], &|ep| ep.errors().total() > errors_before),
        "the superseded link's read error was never recorded"
    );
    let health = mesh[0].link_health();
    let l1 = health.iter().find(|l| l.peer == 1).expect("peer 1 row");
    assert!(l1.up, "the live link reads down: {l1:?}");
    assert_eq!(l1.auth, rbvc_obs::LinkAuthState::Authenticated);
}

#[test]
fn redial_storm_under_auth_reauthenticates() {
    // ISSUE 10 satellite: survivors' re-dials after a peer restart must
    // run the full keyed handshake again — a fresh generation against a
    // fresh nonce — not resume on stale credentials.
    let seed = [0xC3u8; 32];
    let (mut mesh, addrs) = stable_auth_mesh(&seed);

    mesh[0].send(VICTIM, vec![1]).unwrap();
    mesh[0].flush().unwrap();
    assert!(
        wait_for_frame(&mut mesh[VICTIM], 0, &[1], 200),
        "pre-crash frame never arrived"
    );

    // Crash + restart the victim on the same address, same keys.
    let victim = mesh.remove(VICTIM);
    drop(victim);
    let listener = TcpListener::bind(addrs[VICTIM]).expect("rebind same addr");
    let mut restarted = TcpEndpoint::connect_with_auth(VICTIM, listener, &addrs, &seed)
        .expect("restart connect");

    // Every survivor re-dials (re-authenticating) and reports the victim.
    for (i, survivor) in mesh.iter_mut().enumerate() {
        let mut reconnected = Vec::new();
        let mut got = Vec::new();
        let ok = pump_until(survivor, 400, &mut got, |ep, _| {
            reconnected.extend(ep.take_reconnects());
            reconnected.contains(&VICTIM)
        });
        assert!(ok, "survivor {i} never reported the restarted peer: {reconnected:?}");
    }
    // The restarted victim verified one inbound handshake per survivor's
    // redial (at least — teardown echoes can add more).
    let mut got = Vec::new();
    assert!(
        pump_until(&mut restarted, 400, &mut got, |ep, _| {
            ep.auth_handshakes() >= (N - 1) as u64
        }),
        "restarted node never verified the survivors' re-dials: {}",
        restarted.auth_handshakes()
    );

    // Authenticated traffic flows both ways, and the survivors' inbound
    // links from the victim are authenticated again.
    mesh[0].send(VICTIM, vec![42]).unwrap();
    mesh[0].flush().unwrap();
    assert!(
        wait_for_frame(&mut restarted, 0, &[42], 200),
        "restarted endpoint never heard the survivor"
    );
    restarted.send(0, vec![7, 7]).unwrap();
    restarted.flush().unwrap();
    assert!(
        wait_for_frame(&mut mesh[0], VICTIM, &[7, 7], 200),
        "survivor never heard the restarted endpoint"
    );
    let health = mesh[0].link_health();
    let lv = health
        .iter()
        .find(|l| l.peer == VICTIM as u32)
        .expect("victim row");
    assert_eq!(lv.auth, rbvc_obs::LinkAuthState::Authenticated);
}

/// A peer that answers the handshake and then never reads costs one link,
/// not the poll thread: a flush flooding it with 1 MiB frames fails within a
/// few `WRITE_TIMEOUT`s with that link's row down, and the frame queued to
/// the other peer in the same flush still arrives.
#[test]
fn a_peer_that_stops_reading_costs_one_link_not_the_poll_thread() {
    let seed = [0x3Cu8; 32];
    let [l0, l1, l2] = std::array::from_fn(|_| TcpListener::bind(("127.0.0.1", 0)).expect("bind"));
    let addrs: Vec<_> = [&l0, &l1, &l2].map(|l| l.local_addr().expect("addr")).into();
    let keys = auth::MeshAuth::derive(&seed, 1, N);
    // The dials of 0 and 2, answered, then held open and never read.
    let deaf = thread::spawn(move || {
        let (sent, received) = (AtomicU64::new(0), AtomicU64::new(0));
        let answer = |stream: std::io::Result<_>| {
            let mut stream = stream.expect("accept");
            let _ = auth::respond_handshake(&mut stream, &keys, &sent, &received);
            stream
        };
        l1.incoming().take(2).map(answer).collect::<Vec<_>>()
    });
    let [ep0, ep2] = [(0, l0), (2, l2)].map(|(id, listener)| {
        let addrs = addrs.clone();
        thread::spawn(move || TcpEndpoint::connect_with_auth(id, listener, &addrs, &seed).expect("connect"))
    });
    let (mut ep0, mut ep2) = (ep0.join().expect("no panic"), ep2.join().expect("no panic"));
    let _held = deaf.join().expect("no panic");
    (0..16).for_each(|_| ep0.send(1, vec![0xAB; 1 << 20]).expect("queued"));
    ep0.send(2, b"still flowing".to_vec()).expect("queued");
    let t0 = Instant::now();
    assert!(ep0.flush().is_err(), "the flush to the deaf peer fails");
    assert!(t0.elapsed() < 10 * WRITE_TIMEOUT, "the flush took {:?}", t0.elapsed());
    assert!(ep0.link_health().iter().any(|l| l.peer == 1 && !l.up), "the deaf peer's link is down");
    assert!(wait_for_frame(&mut ep2, 0, b"still flowing", 200), "2 still hears from 0");
}

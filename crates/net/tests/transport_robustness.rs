//! Satellite: a broken peer must never corrupt a process's state — the
//! blast radius of malformed, truncated, oversized, or duplicated frames
//! is exactly one connection.

use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;

use std::time::Duration;

use mar_net::host::{serve, HostExit, HostRuntime, ServeCtl};
use mar_net::proto::{recv_ctl, send_ctl, NetMsg, Peer, RpcOp, RpcReply, PROTOCOL_VERSION};
use mar_net::scenarios::{self, TRAVEL, TRAVEL_NODES};
use mar_net::transport::{
    ChannelAcceptor, Endpoint, Listener, Loopback, SocketTransport, Transport,
};
use mar_net::{NetCfg, NetPlatform};
use mar_simnet::{InjectError, NodeId, RemoteEvent, World};

/// A full travel world owned by one "host", started and ready to serve.
fn owned_world() -> World {
    let owned: Vec<NodeId> = (0..TRAVEL_NODES).map(NodeId).collect();
    let mut w = scenarios::builder(TRAVEL, 5)
        .unwrap()
        .try_build_remote(&owned)
        .unwrap();
    w.start();
    w
}

/// Driver-side connection that can replay its own frames byte-for-byte: a
/// mirror peer generates the identical envelope (sequence numbers advance
/// in lockstep), so a "network duplicate" is the exact same bytes twice.
struct DupConn {
    conn: Peer<Loopback>,
    mirror: Peer<Loopback>,
    capture: Loopback,
}

impl DupConn {
    fn new(conn: Loopback) -> Self {
        let (m, capture) = Loopback::pair();
        DupConn {
            conn: Peer::new(conn),
            mirror: Peer::new(m),
            capture,
        }
    }

    fn send(&mut self, msg: &NetMsg) {
        self.conn.send(msg).unwrap();
        self.mirror.send(msg).unwrap();
        self.capture.recv().unwrap().unwrap();
    }

    /// Sends `msg` and then the same frame again, as a duplicating network
    /// would deliver it.
    fn send_dup(&mut self, msg: &NetMsg) {
        self.conn.send(msg).unwrap();
        self.mirror.send(msg).unwrap();
        let frame = self.capture.recv().unwrap().unwrap();
        self.conn.transport_mut().unwrap().send(&frame).unwrap();
    }
}

#[test]
fn duplicated_frames_execute_once() {
    let (a, b) = Loopback::pair();
    let join = std::thread::spawn(move || {
        let mut world = owned_world();
        let mut peer = Peer::new(b);
        let exit = serve(&mut peer, &mut world).unwrap();
        (exit, peer.dups_dropped(), world.now().as_micros())
    });
    let mut driver = DupConn::new(a);
    // Every command duplicated in flight: the window must run once, the
    // RPC must answer once, and replies must stay in lockstep with sends.
    driver.send_dup(&NetMsg::RunWindow { end_us: 50_000 });
    let done = driver.conn.recv().unwrap().unwrap();
    assert!(matches!(done, NetMsg::WindowDone { .. }), "{done:?}");
    driver.send_dup(&NetMsg::Rpc {
        id: 1,
        op: RpcOp::KeysWithPrefix {
            node: 0,
            prefix: String::new(),
        },
    });
    match driver.conn.recv().unwrap().unwrap() {
        NetMsg::RpcReply { id: 1, .. } => {}
        other => panic!("expected the single RpcReply, got {other:?}"),
    }
    // A second RPC answers with its own id — proof the duplicate above was
    // dropped rather than queued as a second execution.
    driver.send(&NetMsg::Rpc {
        id: 2,
        op: RpcOp::Snapshot,
    });
    match driver.conn.recv().unwrap().unwrap() {
        NetMsg::RpcReply {
            id: 2,
            reply: RpcReply::Snapshot(_),
        } => {}
        other => panic!("expected reply 2, got {other:?}"),
    }
    driver.send(&NetMsg::Shutdown);
    let (exit, dups, now_us) = join.join().unwrap();
    assert_eq!(exit, HostExit::Shutdown);
    assert_eq!(dups, 2, "both duplicated frames must be counted");
    assert_eq!(now_us, 49_999, "window ran exactly once");
}

#[test]
fn garbage_kills_the_connection_but_not_the_world() {
    let (a, b) = Loopback::pair();
    let join = std::thread::spawn(move || {
        let mut world = owned_world();
        let mut peer = Peer::new(b);
        let err = serve(&mut peer, &mut world).unwrap_err();
        (err.kind(), world)
    });
    let mut driver = Peer::new(a);
    driver.send(&NetMsg::RunWindow { end_us: 10_000 }).unwrap();
    assert!(matches!(
        driver.recv().unwrap().unwrap(),
        NetMsg::WindowDone { .. }
    ));
    driver
        .transport_mut()
        .unwrap()
        .send(&[0x07, 0xDE, 0xAD, 0xBE, 0xEF])
        .unwrap();
    let (kind, mut world) = join.join().unwrap();
    assert_eq!(kind, io::ErrorKind::InvalidData);
    // The world survived the poisoned connection: a fresh connection can
    // keep driving it exactly where it left off.
    assert_eq!(world.now().as_micros(), 9_999);
    let (a2, b2) = Loopback::pair();
    let join2 = std::thread::spawn(move || {
        let mut peer = Peer::new(b2);
        serve(&mut peer, &mut world)
    });
    let mut driver2 = Peer::new(a2);
    driver2.send(&NetMsg::RunWindow { end_us: 20_000 }).unwrap();
    assert!(matches!(
        driver2.recv().unwrap().unwrap(),
        NetMsg::WindowDone { .. }
    ));
    driver2.send(&NetMsg::Shutdown).unwrap();
    assert_eq!(join2.join().unwrap().unwrap(), HostExit::Shutdown);
}

/// Unsigned LEB128, as the frame layer writes length prefixes.
fn leb128(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return out;
        }
        out.push(byte | 0x80);
    }
}

#[test]
fn tcp_frame_truncated_mid_payload_is_unexpected_eof() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let client = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        // Length prefix promises 10 bytes, the wire delivers 3, then the
        // peer dies.
        s.write_all(&[10, 1, 2, 3]).unwrap();
    });
    let (stream, _) = listener.accept().unwrap();
    let mut t = SocketTransport::tcp(stream).unwrap();
    client.join().unwrap();
    assert_eq!(t.recv().unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
}

#[test]
fn uds_connection_dropped_mid_length_prefix_is_unexpected_eof() {
    let path: PathBuf = std::env::temp_dir().join(format!("mar-rob-{}.sock", std::process::id()));
    let listener = Listener::bind(&Endpoint::Unix(path.clone())).unwrap();
    let p2 = path.clone();
    let client = std::thread::spawn(move || {
        let mut s = UnixStream::connect(&p2).unwrap();
        // One continuation byte of a multi-byte varint, then gone.
        s.write_all(&[0x80]).unwrap();
    });
    let mut t = listener.accept().unwrap().unwrap();
    client.join().unwrap();
    assert_eq!(t.recv().unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn oversized_length_prefix_is_rejected_without_allocation() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let client = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        // Claims a frame far past MAX_FRAME_BYTES; a naive reader would
        // try to allocate it.
        s.write_all(&leb128(1 << 40)).unwrap();
        s.write_all(&[0u8; 64]).unwrap();
    });
    let (stream, _) = listener.accept().unwrap();
    let mut t = SocketTransport::tcp(stream).unwrap();
    let err = t.recv().unwrap_err();
    client.join().unwrap();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
}

#[test]
fn trailing_bytes_after_envelope_kill_the_connection() {
    let (mut raw, b) = Loopback::pair();
    let join = std::thread::spawn(move || {
        let mut world = owned_world();
        let mut peer = Peer::new(b);
        serve(&mut peer, &mut world).unwrap_err().kind()
    });
    // A valid envelope with junk appended inside the same frame: decodes,
    // but not completely — the peer must refuse to act on it.
    let (m, mut cap) = Loopback::pair();
    let mut mirror = Peer::new(m);
    mirror.send(&NetMsg::Shutdown).unwrap();
    let mut frame = cap.recv().unwrap().unwrap();
    frame.extend_from_slice(b"junk");
    raw.send(&frame).unwrap();
    assert_eq!(join.join().unwrap(), io::ErrorKind::InvalidData);
}

#[test]
fn driver_refuses_a_host_speaking_an_older_protocol() {
    let (tx, acceptor) = ChannelAcceptor::new();
    let (mut host, driver_end) = Loopback::pair();
    send_ctl(
        &mut host,
        &NetMsg::Hello {
            version: 2,
            host_id: 0,
            resume: false,
        },
    )
    .unwrap();
    tx.send(Box::new(driver_end)).unwrap();
    let mut cfg = NetCfg::new(Endpoint::Unix(PathBuf::new()), 1, TRAVEL, 5);
    cfg.accept_deadline = Duration::from_millis(200);
    // The mismatched host never joins, so startup ends in a typed error
    // instead of a world driven by a peer that misreads its frames.
    let err = NetPlatform::start_with(Box::new(acceptor), cfg)
        .err()
        .expect("driver must not start with a v2 host");
    assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    // The host's connection was dropped without a Topology reply.
    assert!(recv_ctl(&mut host).unwrap().is_none());
}

#[test]
fn host_refuses_a_topology_from_another_protocol() {
    let (mut driver, host_end) = Loopback::pair();
    let join = std::thread::spawn(move || {
        let mut rt = HostRuntime::new(0, None, ServeCtl::default());
        rt.run_conn(Box::new(host_end))
    });
    match recv_ctl(&mut driver).unwrap() {
        Some(NetMsg::Hello { version, .. }) => assert_eq!(version, PROTOCOL_VERSION),
        other => panic!("expected Hello, got {other:?}"),
    }
    send_ctl(
        &mut driver,
        &NetMsg::Topology {
            version: PROTOCOL_VERSION + 1,
            scenario: TRAVEL.to_owned(),
            seed: 5,
            n_nodes: TRAVEL_NODES,
            owned: (0..TRAVEL_NODES).collect(),
            resume_us: 0,
            resume_ok: false,
        },
    )
    .unwrap();
    let err = join.join().unwrap().unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(
        err.to_string().contains("protocol version mismatch"),
        "{err}"
    );
    // The host hung up instead of building a world or answering Ready.
    assert!(recv_ctl(&mut driver).unwrap().is_none());
}

/// Handshakes a fresh `HostRuntime` owning the whole travel world at
/// `resume_us`, sends one `Inject` frame carrying `ev`, and returns the
/// runtime's verdict plus the driver end (to observe the hang-up).
fn inject_into_fresh_host(resume_us: u64, ev: RemoteEvent) -> (io::Error, Peer<Loopback>) {
    let (mut driver, host_end) = Loopback::pair();
    let join = std::thread::spawn(move || {
        let mut rt = HostRuntime::new(0, None, ServeCtl::default());
        rt.run_conn(Box::new(host_end))
    });
    assert!(matches!(
        recv_ctl(&mut driver).unwrap(),
        Some(NetMsg::Hello { .. })
    ));
    send_ctl(
        &mut driver,
        &NetMsg::Topology {
            version: PROTOCOL_VERSION,
            scenario: TRAVEL.to_owned(),
            seed: 5,
            n_nodes: TRAVEL_NODES,
            owned: (0..TRAVEL_NODES).collect(),
            resume_us,
            resume_ok: false,
        },
    )
    .unwrap();
    let mut driver = Peer::new(driver);
    assert!(matches!(driver.recv().unwrap(), Some(NetMsg::Ready { .. })));
    driver.send(&NetMsg::Inject { events: vec![ev] }).unwrap();
    let err = join
        .join()
        .expect("a malformed Inject must not panic the host")
        .unwrap_err();
    (err, driver)
}

fn travel_event(at_us: u64, to_node: u32) -> RemoteEvent {
    RemoteEvent {
        at_us,
        origin: 0,
        seq: 0,
        from_node: 0,
        from_service: "mole".to_owned(),
        to_node,
        to_service: "mole".to_owned(),
        payload: vec![1, 2, 3],
    }
}

#[test]
fn host_refuses_injected_events_it_cannot_run() {
    let cases = [
        // A destination the world does not have.
        (
            0,
            travel_event(10_000, 99),
            InjectError::NotLocal { node: 99 },
        ),
        // A delivery due before the host's clock.
        (
            20_000,
            travel_event(5_000, 1),
            InjectError::InPast {
                at_us: 5_000,
                now_us: 20_000,
            },
        ),
    ];
    for (resume_us, ev, want) in cases {
        let (err, mut driver) = inject_into_fresh_host(resume_us, ev);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let inner = err.get_ref().and_then(|e| e.downcast_ref::<InjectError>());
        assert_eq!(inner, Some(&want), "{err}");
        // The host hung up rather than serving a schedule it disagrees with.
        assert!(driver.recv().unwrap().is_none());
    }
}

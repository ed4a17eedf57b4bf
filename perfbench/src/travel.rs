//! The two distributed workloads, `travel_uds` and `travel_uds_wal`: rounds
//! of travel-agency agents on a `NetPlatform` driver plus two
//! `HostRuntime` threads over a Unix socket, one fresh deployment per
//! round.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use mar_net::scenarios::{self, TRAVEL};
use mar_net::transport::{Accept, Listener};
use mar_net::{netkeys, Endpoint, HostExit, HostRuntime, NetCfg, NetPlatform, ServeCtl};
use mar_net::{SocketTransport, Transport};
use mar_platform::{Platform, StableFactory, WalConfig};
use mar_simnet::{BackendStats, MetricsSnapshot, SimDuration};

use crate::drive::{self, LoopCfg, LoopOut, Planned};
use crate::sys;
use crate::trace::{self, Layer};
use crate::wrap::{traced_stable, TracedAccept, TracedTransport};
use crate::{Size, OUT_DIR};

/// Travellers per round.
const AGENTS: u32 = 4;
/// Node-host threads per deployment.
const HOSTS: u32 = 2;
/// Per-agent virtual deadline of the liveness guard.
const DEADLINE: SimDuration = SimDuration::from_secs(600);
/// Money the travel world holds at every quiescent point.
const TRAVEL_USD: i64 = 12_000;

/// One round's outcome.
pub struct Round {
    /// Loop results (the whole round is the timed load).
    pub out: LoopOut,
    /// Money audit after the round.
    pub audit: BTreeMap<String, i64>,
    /// Bytes left in the hosts' WAL directories.
    pub wal_bytes: u64,
}

/// A phase: consecutive rounds until the wall budget and the
/// deterministic window are both covered.
pub struct Phase {
    /// Rounds in order.
    pub rounds: Vec<Round>,
    /// Setup seconds per round (bind, connect, handshake).
    pub setup_s: Vec<f64>,
    /// Output checks that failed.
    pub problems: Vec<String>,
}

/// Rounds in the deterministic window.
pub fn det_rounds(size: Size, wal: bool) -> usize {
    match (size, wal) {
        (Size::Short, _) => 1,
        (Size::Full, false) => 500,
        (Size::Full, true) => 4,
    }
}

/// Rounds per measurement segment: enough agents for a p90 with ten
/// samples beyond it. A WAL run holds a handful of rounds, all pooled.
pub fn rounds_per_segment(wal: bool) -> usize {
    if wal {
        usize::MAX
    } else {
        25
    }
}

/// Seed of round `r`.
pub fn round_seed(seed: u64, r: usize) -> u64 {
    sys::mix(seed, 0x7EA7_0000 + r as u64)
}

fn batch_cfg(traced: bool) -> LoopCfg {
    LoopCfg {
        in_flight: AGENTS as usize,
        replace: false,
        load_ticks: 0,
        deadline: DEADLINE,
        traced,
    }
}

fn plan(specs: &mut std::vec::IntoIter<mar_platform::AgentSpec>) -> Planned {
    Planned {
        spec: specs.next().expect("one spec per launch"),
        expect_steps: None,
        wallet: BTreeMap::new(),
    }
}

/// Counters of the simulated system, without the transport diagnostics
/// that exist only in distributed runs.
pub fn kernel_counters(snap: &MetricsSnapshot) -> BTreeMap<String, u64> {
    snap.counters
        .iter()
        .filter(|(k, _)| !netkeys::is_transport_diag(k))
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// The in-process control of one round, driven by the same loop.
fn control(seed: u64, stable: Option<StableFactory>, traced: bool) -> (Platform, LoopOut) {
    let mut b = scenarios::builder(TRAVEL, seed).expect("travel scenario");
    if let Some(stable) = stable {
        b = b.stable_backend(stable);
    }
    let mut p = b.build();
    let mut specs = scenarios::fleet(TRAVEL, AGENTS)
        .expect("travel fleet")
        .into_iter();
    let out = drive::run(&mut p, &batch_cfg(traced), |_| plan(&mut specs));
    (p, out)
}

fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// What a host thread needs to serve one round.
struct HostJob {
    host_id: u32,
    endpoint: Endpoint,
    wal_dir: Option<PathBuf>,
    traced: bool,
}

/// What a host thread reports back.
enum HostEvent {
    /// The socket is connected; the handshake waits for the driver.
    Connected,
    /// The round is over for this host.
    Exit(io::Result<HostExit>),
}

/// One of the two host threads of a phase: it serves a fresh
/// `HostRuntime` per round, so rounds do not pay for thread start-up.
struct HostWorker {
    jobs: mpsc::Sender<HostJob>,
    events: mpsc::Receiver<HostEvent>,
    thread: std::thread::JoinHandle<()>,
}

fn serve_round(job: HostJob, events: &mpsc::Sender<HostEvent>) -> io::Result<HostExit> {
    let mut rt = HostRuntime::new(job.host_id, job.wal_dir, ServeCtl::default());
    let conn: Box<dyn Transport> = Box::new(SocketTransport::connect(&job.endpoint)?);
    let _ = events.send(HostEvent::Connected);
    let conn: Box<dyn Transport> = if job.traced {
        Box::new(TracedTransport::new(conn, true))
    } else {
        conn
    };
    trace::maybe(job.traced, Layer::Host, || rt.run_conn(conn))
}

impl HostWorker {
    fn spawn() -> HostWorker {
        let (jobs, job_rx) = mpsc::channel::<HostJob>();
        let (tx, events) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            for job in job_rx {
                let exit = serve_round(job, &tx);
                if tx.send(HostEvent::Exit(exit)).is_err() {
                    break;
                }
            }
        });
        HostWorker {
            jobs,
            events,
            thread,
        }
    }

    /// The next event, or an error if the thread is gone or silent.
    fn next(&self) -> io::Result<HostEvent> {
        self.events
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| io::Error::other("host thread gone or silent"))
    }

    fn finish(self) {
        drop(self.jobs);
        if self.thread.join().is_err() {
            eprintln!("perfbench: a host thread panicked");
        }
    }
}

/// One distributed round.
fn round(
    workers: &[HostWorker],
    seed: u64,
    tag: &str,
    wal_root: Option<&Path>,
    traced: bool,
) -> io::Result<(Round, f64)> {
    let t = Instant::now();
    std::fs::create_dir_all(OUT_DIR)?;
    let sock = PathBuf::from(format!("{OUT_DIR}/{tag}.sock"));
    let _ = std::fs::remove_file(&sock);
    let endpoint = Endpoint::Unix(sock.clone());
    let listener = Listener::bind(&endpoint)?;
    listener.set_nonblocking(true)?;
    for (h, w) in workers.iter().enumerate() {
        let job = HostJob {
            host_id: h as u32,
            endpoint: endpoint.clone(),
            wal_dir: wal_root.map(|r| r.join(format!("host{h}"))),
            traced,
        };
        w.jobs
            .send(job)
            .map_err(|_| io::Error::other("host thread gone"))?;
    }
    // Hosts dial before the driver starts accepting, as when a supervisor
    // starts them first: the accept loop then finds both connections
    // waiting instead of racing them against its poll interval.
    for w in workers {
        if let HostEvent::Exit(r) = w.next()? {
            return Err(io::Error::other(format!("host failed to connect: {r:?}")));
        }
    }
    let acceptor: Box<dyn Accept> = if traced {
        Box::new(TracedAccept(Box::new(listener)))
    } else {
        Box::new(listener)
    };
    let mut cfg = NetCfg::new(endpoint, HOSTS, TRAVEL, seed);
    cfg.accept_deadline = Duration::from_secs(30);
    let started = NetPlatform::start_with(acceptor, cfg);
    let setup_s = t.elapsed().as_secs_f64();
    let mut np = match started {
        Ok(np) => np,
        Err(e) => {
            let _ = std::fs::remove_file(&sock);
            return Err(e);
        }
    };
    let mut specs = scenarios::fleet(TRAVEL, AGENTS)
        .expect("travel fleet")
        .into_iter();
    let out = drive::run(&mut np, &batch_cfg(traced), |_| plan(&mut specs));
    let audit = np.money_audit(&[]);
    np.shutdown();
    let mut exit_err = None;
    for w in workers {
        match w.next() {
            Ok(HostEvent::Exit(Ok(HostExit::Shutdown))) => {}
            Ok(HostEvent::Exit(Ok(other))) => exit_err = Some(format!("host ended with {other:?}")),
            Ok(HostEvent::Exit(Err(e))) => exit_err = Some(format!("host failed: {e}")),
            Ok(HostEvent::Connected) => exit_err = Some("host connected twice".to_owned()),
            Err(e) => exit_err = Some(e.to_string()),
        }
    }
    let _ = std::fs::remove_file(&sock);
    let wal_bytes = wal_root.map_or(0, sys::dir_bytes);
    if let Some(root) = wal_root {
        remove_dir(root);
    }
    if let Some(e) = exit_err {
        return Err(io::Error::other(e));
    }
    Ok((
        Round {
            out,
            audit,
            wal_bytes,
        },
        setup_s,
    ))
}

/// Runs one phase of a travel workload.
///
/// # Errors
///
/// Socket, thread, or handshake failures.
pub fn run(
    seed: u64,
    wal: bool,
    size: Size,
    min_wall: Duration,
    traced: bool,
) -> io::Result<Phase> {
    let det = det_rounds(size, wal);
    let mut rounds = Vec::new();
    let mut setup_s = Vec::new();
    let mut problems = Vec::new();
    let mut timed = 0.0;
    let pid = std::process::id();
    let workers: Vec<HostWorker> = (0..HOSTS).map(|_| HostWorker::spawn()).collect();
    while rounds.len() < det || timed < min_wall.as_secs_f64() {
        let r = rounds.len();
        let rs = round_seed(seed, r);
        let tag = format!("s{pid}-{r}");
        let wal_root = wal.then(|| PathBuf::from(format!("{OUT_DIR}/wal-{pid}-{r}")));
        let (mut rd, s) = round(&workers, rs, &tag, wal_root.as_deref(), traced)?;
        timed += rd.out.timed_s;
        setup_s.push(s);
        if rd.audit.get("USD") != Some(&TRAVEL_USD) {
            problems.push(format!(
                "round {r}: money audit {:?}, want USD={TRAVEL_USD}",
                rd.audit
            ));
        }
        problems.extend(rd.out.problems.iter().map(|p| format!("round {r}: {p}")));
        if r == 0 {
            // The distributed round must be observationally identical to
            // the in-process control of the same seed.
            let (p, ctl) = control(rs, None, false);
            if ctl.reports != rd.out.reports {
                problems.push("round 0: reports differ from the in-process control".into());
            }
            if p.money_audit(&[]) != rd.audit {
                problems.push("round 0: money audit differs from the in-process control".into());
            }
            if kernel_counters(&ctl.timed_snaps.1) != kernel_counters(&rd.out.timed_snaps.1) {
                problems.push("round 0: kernel counters differ from the in-process control".into());
            }
        }
        // Keep only what the summary reads: the deterministic window's
        // snapshots, and no reports.
        rd.out.reports = Vec::new();
        if r >= det {
            rd.out.timed_snaps = Default::default();
        }
        rounds.push(rd);
    }
    for w in workers {
        w.finish();
    }
    Ok(Phase {
        rounds,
        setup_s,
        problems,
    })
}

/// The in-process traced run of the travel fleet on the workload's
/// stable backend (a timed file WAL for `travel_uds_wal`): host stable
/// storage is out of reach of the wrappers, so `stable.*` comes from here.
pub fn stable_probe(seed: u64, wal: bool, rounds: usize) -> BackendStats {
    let pid = std::process::id();
    let mut totals = BackendStats::default();
    for r in 0..rounds {
        let dir = PathBuf::from(format!("{OUT_DIR}/probe-{pid}-{r}"));
        let factory = if wal {
            StableFactory::wal(WalConfig {
                checkpoint_bytes: 64 * 1024,
                path: Some(dir.clone()),
            })
        } else {
            StableFactory::reference()
        };
        let (p, _) = control(round_seed(seed, r), Some(traced_stable(factory)), true);
        let s = p.world().stable_totals();
        totals.checkpoints += s.checkpoints;
        totals.checkpoint_bytes += s.checkpoint_bytes;
        totals.replayed_bytes += s.replayed_bytes;
        totals.commits += s.commits;
        drop(p);
        remove_dir(&dir);
    }
    totals
}

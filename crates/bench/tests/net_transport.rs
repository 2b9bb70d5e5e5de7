//! The serve transport over real loopback sockets: no reply, connect or
//! shutdown waits out a kernel timer or a poll, a connection pipelining
//! past its burst is answered at the paced rate, and a closed connection
//! leaves no descriptor behind.
//!
//! One test function in a test binary of its own, on purpose: the
//! descriptor count is process-wide and the latency bounds assume nothing
//! else of this process is running, so the phases run in sequence with no
//! sibling test beside them.

use gralmatch_bench::net::{serve_tcp, LineClient, PACED_REQUESTS_PER_S, PACE_BURST};
use gralmatch_bench::serve::{bootstrap_tenant, HostSession};
use gralmatch_core::ShardPlan;
use gralmatch_datagen::{generate, GenerationConfig};
use gralmatch_records::RecordId;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn open_descriptors() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("a Linux /proc")
        .count()
}

/// What the client thread saw.
struct Observed {
    ping_median: Duration,
    pipelined_beyond_burst: u32,
    pipelined_took: Duration,
    descriptors_before: usize,
    descriptors_after: usize,
    shutdown_sent: Instant,
    idle_saw_eof_after: Duration,
}

fn drive(addr: SocketAddr) -> Observed {
    // A ping round trip: 44 ms when a reply waited out a delayed ACK.
    let mut client = LineClient::connect(addr).unwrap();
    let mut round_trips: Vec<Duration> = (0..201)
        .map(|_| {
            let start = Instant::now();
            assert_eq!(client.request("ping").unwrap(), "pong");
            start.elapsed()
        })
        .collect();
    round_trips.sort();
    let ping_median = round_trips[round_trips.len() / 2];
    drop(client);

    // A client that pipelines past the burst allowance is answered at the
    // paced rate: every reply arrives, none before its slot.
    let pipelined_beyond_burst = 2000;
    let mut bulk = TcpStream::connect(addr).unwrap();
    bulk.set_nodelay(true).unwrap();
    let pings = b"ping\n".repeat((PACE_BURST + pipelined_beyond_burst) as usize);
    let start = Instant::now();
    bulk.write_all(&pings).unwrap();
    let mut pongs = vec![0; pings.len()];
    bulk.read_exact(&mut pongs).unwrap();
    let pipelined_took = start.elapsed();
    assert_eq!(pongs, b"pong\n".repeat(pings.len() / 5));
    drop(bulk);

    // Connection churn: the server's clone of each connection (what a
    // shutdown would wake it through) must go when the connection does.
    let descriptors_before = open_descriptors();
    for _ in 0..2000 {
        let mut client = LineClient::connect(addr).unwrap();
        assert!(client.request("hello").unwrap().starts_with("hello "));
    }
    // The server closes its side when its reader sees our EOF, a moment
    // after our drop returns.
    let deadline = Instant::now() + Duration::from_secs(5);
    while open_descriptors() > descriptors_before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let descriptors_after = open_descriptors();

    // An idle connection, its reader blocked in `read`, and nobody
    // connecting: `shutdown` on another connection must wake both the
    // reader and the acceptor.
    let mut idle = TcpStream::connect(addr).unwrap();
    idle.set_nodelay(true).unwrap();
    idle.write_all(b"ping\n").unwrap();
    let mut pong = [0; 5];
    idle.read_exact(&mut pong).unwrap();
    assert_eq!(&pong, b"pong\n");
    // It is also mid-line: what the forced EOF cuts off is not a request.
    idle.write_all(br#"{"deletes":[1]}"#).unwrap();
    let mut other = LineClient::connect(addr).unwrap();
    let shutdown_sent = Instant::now();
    assert_eq!(other.request("shutdown").unwrap(), "shutting down");
    assert_eq!(idle.read(&mut pong).unwrap(), 0, "the idle client gets EOF");
    Observed {
        ping_median,
        pipelined_beyond_burst,
        pipelined_took,
        descriptors_before,
        descriptors_after,
        shutdown_sent,
        idle_saw_eof_after: shutdown_sent.elapsed(),
    }
}

#[test]
fn loopback_transport_is_timer_free_and_leak_free() {
    let mut config = GenerationConfig::synthetic_full();
    config.num_entities = 40;
    let records = generate(&config).unwrap().securities.records().to_vec();
    let (tenant, _) = bootstrap_tenant(records, ShardPlan::new(2), None).unwrap();
    let session = HostSession::single("sec", Box::new(tenant)).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    // The session is not `Send`: the server runs here, the client there.
    let client = std::thread::spawn(move || drive(addr));
    let (session, report) = serve_tcp(listener, session, 2).unwrap();
    let returned = Instant::now();
    let seen = client.join().unwrap();

    // Bounds loose enough for a shared CI runner, far below the timers
    // they rule out (44 ms delayed ACK, 100 ms poll).
    assert!(
        seen.ping_median < Duration::from_millis(5),
        "ping median {:?}",
        seen.ping_median
    );
    let paced = Duration::from_secs(1) / PACED_REQUESTS_PER_S * seen.pipelined_beyond_burst;
    assert!(
        (paced..paced + Duration::from_millis(100)).contains(&seen.pipelined_took),
        "{} pipelined requests beyond the burst took {:?}, their slots {paced:?}",
        seen.pipelined_beyond_burst,
        seen.pipelined_took
    );
    assert!(
        seen.descriptors_after <= seen.descriptors_before,
        "{} descriptors before 2000 connections, {} after",
        seen.descriptors_before,
        seen.descriptors_after
    );
    assert!(
        seen.idle_saw_eof_after < Duration::from_millis(50),
        "idle client saw EOF after {:?}",
        seen.idle_saw_eof_after
    );
    let stopped_after = returned.duration_since(seen.shutdown_sent);
    assert!(
        stopped_after < Duration::from_millis(50),
        "serve_tcp returned {stopped_after:?} after the shutdown request"
    );
    assert_eq!(report.connections, 2004);
    let tenant = session.host().tenant("sec").unwrap();
    assert!(
        tenant.group_of(RecordId(1)).is_some(),
        "the line the shutdown cut short was applied"
    );
}

//! The daemon probe of the traced batch runs: an in-process `optimodd`
//! (`Daemon::start`: 2 workers, intent journal on, certified-schedule
//! cache capped below the number of probed loops) driven over its Unix
//! socket. Each probed unit is sent cold, then three times as a cache hit.
//! Every reply must be exact, certify against its request text and equal
//! the unit's in-process result; anything else is a wrong result.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use optimod::{certify, Claim, OptimalScheduler, Schedule};
use optimod_daemon::client::{self, ClientConfig};
use optimod_daemon::server::{Daemon, DaemonConfig, DaemonHandle};
use optimod_daemon::{CacheLimits, Request, Scheduled};
use optimod_ddg::textfmt;

use crate::batch::{Config, Outcome};
use crate::inputs::Unit;
use crate::stats::{median, ratio, Metrics};
use crate::{Args, WORKERS};

/// Per-request deadline: far above the batch budgets, so a unit that
/// finished in process cannot run out of time in the daemon.
const DEADLINE: Duration = Duration::from_secs(10);
/// Loops the traced batch runs send through the daemon probe.
pub const PROBE_UNITS: usize = 6;
/// Pings per probe.
const PINGS: usize = 50;

/// A started daemon and the files it owns.
struct Server {
    handle: DaemonHandle,
    dir: PathBuf,
    client: ClientConfig,
}

impl Server {
    fn start(args: &Args, cache_entries: u64) -> Result<Server, String> {
        let dir = args.out.join(format!("d{}-probe", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut cfg = DaemonConfig::new(dir.join("s.sock"));
        cfg.workers = WORKERS;
        cfg.cache_dir = Some(dir.join("cache"));
        cfg.journal_path = Some(dir.join("journal"));
        cfg.cache_limits = CacheLimits {
            max_entries: cache_entries,
            ..CacheLimits::default()
        };
        cfg.default_deadline = DEADLINE;
        let handle = Daemon::start(cfg).map_err(|e| format!("daemon start: {e}"))?;
        let mut client = ClientConfig::new(handle.socket_path());
        client.retries = 0;
        Ok(Server {
            handle,
            dir,
            client,
        })
    }

    fn stop(self) -> Result<(), String> {
        self.handle
            .shutdown()
            .map_err(|e| format!("daemon shutdown: {e}"))?;
        std::fs::remove_dir_all(&self.dir)
            .map_err(|e| format!("remove {}: {e}", self.dir.display()))
    }
}

/// The request for `unit` under the workload's objective, solved exactly
/// (no fallback ladder) on one thread, through the cache.
fn request(unit: &Unit, cfg: &Config) -> Request {
    let mut r = Request::new(unit.text.as_str());
    r.objective = cfg.objective;
    r.dep_style = unit.style;
    r.use_cache = true;
    r.use_fallback = false;
    r.threads = 1;
    r.deadline_ms = DEADLINE.as_millis() as u64;
    r
}

/// Daemon-side samples taken after each reply.
#[derive(Default)]
struct Samples {
    queue_len_max: u64,
    journal_pending_max: u64,
}

impl Samples {
    fn sample(&mut self, handle: &DaemonHandle) {
        let st = handle.status();
        self.queue_len_max = self.queue_len_max.max(st.queue_len);
        self.journal_pending_max = self.journal_pending_max.max(st.journal_pending);
    }
}

/// Accepts `reply` only if it is exact, certifies against the unit's text
/// and equals the in-process result `local`.
fn check_reply(
    unit: &Unit,
    cfg: &Config,
    local: &Outcome,
    reply: &Scheduled,
) -> Result<(), String> {
    if !reply.optimal || reply.provenance.degraded() {
        return Err(format!(
            "{}: daemon reply is not exact (optimal {}, provenance {:?})",
            unit.name, reply.optimal, reply.provenance
        ));
    }
    let parsed = textfmt::parse(&unit.text).map_err(|e| format!("{}: {e}", unit.name))?;
    let sched = OptimalScheduler::new(cfg.scheduler(unit));
    let schedule = Schedule::new(reply.ii, reply.times.clone());
    certify(&Claim {
        graph: &parsed.l,
        machine: &parsed.machine,
        ii: reply.ii,
        times: &reply.times,
        claimed_optimal: reply.optimal,
        claimed_objective: reply.objective.map(|o| o as f64),
        exact_objective: sched.exact_objective(&parsed.l, &schedule),
        claimed_bound: None,
    })
    .map_err(|e| format!("{}: daemon reply refused: {e}", unit.name))?;
    if (local.ii, local.objective, &local.times) != (Some(reply.ii), reply.objective, &reply.times)
    {
        return Err(format!(
            "{}: daemon reply (II {}, objective {:?}, cache hit {}) differs from the \
             in-process result (II {:?}, objective {:?})",
            unit.name, reply.ii, reply.objective, reply.cache_hit, local.ii, local.objective
        ));
    }
    Ok(())
}

/// The daemon layer of a traced batch run: each of `units` (with its
/// certified in-process outcome) sent cold, then three times as a cache
/// hit, plus pings.
pub fn probe(
    units: &[(&Unit, &Outcome)],
    cfg: &Config,
    args: &Args,
    m: &mut Metrics,
) -> Result<(), String> {
    if units.is_empty() {
        return Err("daemon probe: no certified unit to send".into());
    }
    // A cache smaller than the probe set, so the probe also evicts.
    let server = Server::start(args, (PROBE_UNITS / 2) as u64)?;
    let mut samples = Samples::default();
    // Client-side milliseconds and the reply of every request.
    let mut sent: Vec<(f64, Scheduled)> = Vec::new();
    for (u, local) in units {
        for _ in 0..4 {
            let t = Instant::now();
            let reply = client::solve(&server.client, request(u, cfg))
                .map_err(|e| format!("{}: daemon request failed: {e}", u.name))?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            samples.sample(&server.handle);
            check_reply(u, cfg, local, &reply)?;
            sent.push((ms, reply));
        }
    }
    let mut pings = Vec::new();
    for _ in 0..PINGS {
        let t = Instant::now();
        client::ping(server.handle.socket_path()).map_err(|e| format!("ping: {e}"))?;
        pings.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let status = server.handle.status();
    let cache = server.handle.cache_stats().unwrap_or_default();
    server.stop()?;

    let client = |hit: bool| -> Vec<f64> {
        sent.iter()
            .filter(|(_, r)| r.cache_hit == hit)
            .map(|(ms, _)| *ms)
            .collect()
    };
    let server_ms: Vec<f64> = sent.iter().map(|(_, r)| r.wall_us as f64 / 1e3).collect();
    let overhead: Vec<f64> = sent
        .iter()
        .map(|(ms, r)| ms - r.wall_us as f64 / 1e3)
        .collect();
    m.put("daemon.ping_us_p50", median(&pings), "us");
    m.put("daemon.hit_ms_p50", median(&client(true)), "ms");
    m.put("daemon.cold_ms_p50", median(&client(false)), "ms");
    m.put("daemon.server_ms_p50", median(&server_ms), "ms");
    m.put("daemon.overhead_ms_p50", median(&overhead), "ms");
    m.put(
        "daemon.queue_len_max",
        samples.queue_len_max as f64,
        "count",
    );
    m.put("daemon.sheds", status.sheds as f64, "count");
    m.put(
        "daemon.cache_hit_frac",
        ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
        "ratio",
    );
    m.put("daemon.cache_evicted", cache.evicted as f64, "count");
    m.put(
        "daemon.journal_pending_max",
        samples.journal_pending_max as f64,
        "count",
    );
    Ok(())
}

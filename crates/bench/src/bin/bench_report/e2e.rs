//! The end-to-end run (`--trace 0`): set-up, an in-process reference pass,
//! then closed-loop passes over the socket for `--seconds`, with nothing
//! recorded but client timestamps.
//!
//! A **pass** submits every instance of the workload once, in the seed's
//! order. Only complete passes are measured, so every run measures the same
//! request mix however fast the machine is; the pass in flight when the time
//! is up is abandoned.

use crate::client::{self, Exchange, TIMEOUT};
use crate::metrics::Outcome;
use crate::stats::{
    highest_supported_percentile, median, percentile, process_peak_rss_mib, sorted,
};
use crate::workload::{serve, Instance, Server, Workload};
use duoquest_core::{Candidate, SynthesisResult};
use duoquest_net::wire;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. A set-up takes 8–70 ms and
/// single ones vary by half of that, so it takes this many for a median
/// that repeats.
const SETUP_REPS: usize = 15;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    /// Smoke runs keep only the first so many instances of a pass.
    pub limit: Option<usize>,
}

/// Generate the data, register the tasks, start the service, bind the front
/// and read `/stats` once — `reps` times over; the last server is kept.
/// Returns the seconds each set-up took.
pub fn set_up(
    workload: &Workload,
    opts: &Options,
    reps: usize,
) -> (Vec<Instance>, Server, Vec<f64>) {
    let mut seconds = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        drop(kept.take()); // shuts the previous server down, untimed
        let started = Instant::now();
        let instances = workload.instances(opts.seed, opts.limit);
        let server = serve(&instances);
        let stats =
            duoquest_net::client::request(server.net.addr(), "GET", "/stats", None, TIMEOUT)
                .expect("a freshly bound front answers /stats");
        seconds.push(started.elapsed().as_secs_f64());
        assert_eq!(stats.status, 200, "/stats on a fresh server");
        kept = Some((instances, server));
    }
    let (instances, server) = kept.expect("at least one set-up");
    (instances, server, seconds)
}

/// A result's candidates in the order they were streamed (the result itself
/// holds them ranked).
pub fn emitted_in_order(result: &SynthesisResult) -> Vec<&Candidate> {
    let mut candidates: Vec<_> = result.candidates.iter().collect();
    candidates.sort_by_key(|c| c.emit_index);
    candidates
}

/// Run every instance in process through `SynthesisService::submit`,
/// `window` at a time, and render the candidate lines the front must stream
/// for it. Doubles as the warm-up: afterwards the probe caches hold what the
/// timed passes will look up.
pub fn reference_pass(
    server: &Server,
    instances: &[Instance],
    window: usize,
) -> Result<Vec<Vec<String>>, String> {
    let mut reference = Vec::with_capacity(instances.len());
    for chunk in instances.chunks(window.max(1)) {
        let tickets: Vec<_> = chunk
            .iter()
            .map(|instance| {
                let request =
                    server.registry.build_request(&instance.wire).expect("instance is registered");
                server.service.submit(request).map_err(|e| format!("reference submit: {e}"))
            })
            .collect::<Result<_, _>>()?;
        for (instance, ticket) in chunk.iter().zip(tickets) {
            let result = ticket.wait().result;
            reference.push(
                emitted_in_order(&result)
                    .into_iter()
                    .enumerate()
                    .map(|(i, c)| {
                        wire::candidate_line(i, c, instance.db.schema()).trim_end().to_string()
                    })
                    .collect(),
            );
        }
    }
    Ok(reference)
}

struct Sample {
    instance: usize,
    exchange: io::Result<Exchange>,
}

struct Pass {
    /// Wall time of the pass, cache clears of a cold workload taken out.
    wall_s: f64,
    samples: Vec<Sample>,
    scrapes_ok: bool,
}

fn scrape(addr: SocketAddr) -> bool {
    ["/metrics", "/stats"].iter().all(|path| {
        duoquest_net::client::request(addr, "GET", path, None, TIMEOUT)
            .is_ok_and(|r| r.status == 200 && !r.body.is_empty())
    })
}

/// One closed-loop pass: `workload.clients` threads, each submitting the
/// next unclaimed instance as soon as its previous reply has ended. Past
/// `deadline` no new request starts. A cold workload's cache clears are
/// timed apart and taken out of the pass's wall time: exact with one client,
/// which is what a cold workload has (two would clear each other's cache).
fn run_pass(
    workload: &Workload,
    addr: SocketAddr,
    instances: &[Instance],
    bodies: &[String],
    deadline: Option<Instant>,
) -> Pass {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let per_client: Vec<(Vec<Sample>, bool, Duration)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workload.clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut samples = Vec::new();
                    let mut scrapes_ok = true;
                    let mut clearing = Duration::ZERO;
                    while deadline.is_none_or(|d| Instant::now() < d) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= instances.len() {
                            break;
                        }
                        if workload.cold {
                            let clear_started = Instant::now();
                            instances[i].db.clear_probe_cache();
                            clearing += clear_started.elapsed();
                        }
                        samples.push(Sample {
                            instance: i,
                            exchange: client::submit(addr, &bodies[i], |_| {}),
                        });
                        if workload.scrape_every > 0
                            && (i + 1).is_multiple_of(workload.scrape_every)
                        {
                            scrapes_ok &= scrape(addr);
                        }
                    }
                    (samples, scrapes_ok, clearing)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let clearing = per_client.iter().map(|(_, _, clearing)| *clearing).max().unwrap_or_default();
    let wall_s = (started.elapsed() - clearing).as_secs_f64();
    let scrapes_ok = per_client.iter().all(|(_, ok, _)| *ok);
    let samples = per_client.into_iter().flat_map(|(samples, _, _)| samples).collect();
    Pass { wall_s, samples, scrapes_ok }
}

pub fn run(workload: &Workload, opts: &Options) -> Outcome {
    let (instances, server, setup_seconds) = set_up(workload, opts, SETUP_REPS);
    let addr = server.net.addr();
    let bodies: Vec<String> = instances.iter().map(|i| i.wire.to_json()).collect();
    let mut sound = true;

    let reference = if workload.byte_identical {
        match reference_pass(&server, &instances, workload.clients) {
            Ok(reference) => Some(reference),
            Err(reason) => {
                eprintln!("reference pass failed: {reason}");
                sound = false;
                None
            }
        }
    } else {
        None
    };

    // The timed window.
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        // The first pass always completes, whatever `--seconds` says.
        let pass_deadline = (!passes.is_empty()).then_some(deadline);
        let pass = run_pass(workload, addr, &instances, &bodies, pass_deadline);
        if pass.samples.len() < instances.len() {
            break;
        }
        passes.push(pass);
        if Instant::now() >= deadline {
            break;
        }
    }
    let peak_rss = process_peak_rss_mib();

    // Everything below is outside the timed window. `ttd_ms_p50` is the
    // median over complete passes of the pass's own median: every pass holds
    // the same requests, so this discards a pass that a burst of machine
    // noise hit.
    let mut attempted = 0;
    let mut failed = 0;
    let (mut found_first, mut found_in_ten) = (0, 0);
    let mut p50s = Vec::new();
    for pass in &passes {
        sound &= pass.scrapes_ok;
        let mut ttd = Vec::with_capacity(pass.samples.len());
        for sample in &pass.samples {
            attempted += 1;
            let instance = &instances[sample.instance];
            let reference = reference.as_ref().map(|r| r[sample.instance].as_slice());
            let verdict = match &sample.exchange {
                Ok(exchange) => client::check(exchange, instance, reference),
                Err(e) => Err(format!("socket error: {e}")),
            };
            match verdict {
                Ok(timings) => {
                    ttd.push(timings.done_ns as f64 / 1e6);
                    found_first += usize::from(timings.gold.is_some_and(|(rank, _)| rank < 1));
                    found_in_ten += usize::from(timings.gold.is_some_and(|(rank, _)| rank < 10));
                }
                Err(reason) => {
                    failed += 1;
                    if failed <= 5 {
                        eprintln!("FAILED {}: {reason}", instance.wire.task);
                    }
                }
            }
        }
        p50s.push(percentile(&sorted(&ttd), 50.0));
    }
    let rates: Vec<f64> = passes.iter().map(|p| p.samples.len() as f64 / p.wall_s).collect();
    let values = vec![
        ("setup_s", median(&setup_seconds)),
        ("ttd_ms_p50", median(&p50s)),
        ("req_per_s", median(&rates)),
        ("peak_rss_mb", peak_rss),
        ("gold_top1_share", found_first as f64 / attempted as f64),
        ("gold_top10_share", found_in_ten as f64 / attempted as f64),
    ];

    let timed = attempted - failed;
    println!(
        "{}: seed {}, {} complete passes of {} requests in {:.2} s ({} clients, closed loop), \
         {} set-ups",
        workload.name,
        opts.seed,
        passes.len(),
        instances.len(),
        passes.iter().map(|p| p.wall_s).sum::<f64>(),
        workload.clients,
        setup_seconds.len(),
    );
    println!(
        "  attempted {attempted}, failed {failed} (fail share {}); {timed} timed requests: {}",
        failed as f64 / attempted as f64,
        highest_supported_percentile(timed)
            .map(|p| format!("p{p} is the highest percentile with 10 samples beyond it"))
            .unwrap_or_else(|| "too few for any percentile".into()),
    );

    // A metric without a single sample (every request failed) cannot be
    // reported as a number: flag the run instead.
    let values = values
        .into_iter()
        .map(|(name, value)| {
            if value.is_finite() {
                (name, value)
            } else {
                eprintln!("{name} has no samples");
                sound = false;
                (name, 0.0)
            }
        })
        .collect();
    Outcome { attempted, failed, sound, values }
}

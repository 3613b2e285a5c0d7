//! `phone_apps`: a simulated `Phone` launches the eight Table-1 profiles
//! and the notification-deadlock test app in a seeded order under a seeded
//! scheduler seed, with a zygote, a per-process engine and a history
//! directory shared across boots; it reboots after a freeze. No
//! `dimmunix-rt` code runs here.
//!
//! The traced run drives the same launches through `Zygote::fork` and
//! `Process::run` directly (the two calls `Phone` makes per launch, with
//! the same seed derivation) and checks that every launch ends exactly as
//! it does on the `Phone`.

use crate::gen::Rng;
use crate::layers;
use crate::report::{EndToEnd, Outcome};
use crate::stats::median_ratio;
use crate::trace::{Layer, Tracer};
use android_sim::{InstalledApp, NotificationScenario, Phone, TABLE1_PROFILES};
use dalvik_sim::{RunOutcome, Zygote};
use dimmunix_core::{Config, Stats};
use std::path::Path;
use std::time::{Duration, Instant};

/// Table-1 workloads replay a 30 s window scaled down by this factor.
const WINDOW_SECS: f64 = 30.0;
const SCALE: u64 = 200;
/// Each app is launched this many times per round (one boot sequence), so
/// a round holds over a hundred launches and has a p99 of its own.
const PASSES: usize = 12;
const MAX_STEPS: u64 = 5_000_000;
const MIN_PAIRS: usize = 3;
/// Share of rounds the timings come from, fastest first. A round makes 108
/// launches in about 50 ms, while this interpreter-heavy work runs up to
/// 1.8x slower through host stretches that last from 0.1 s to a whole run
/// (the bare twin slows alike). Over all rounds, the medians spread by a
/// quarter across runs; over the fastest twentieth, by 6-14%.
const FASTEST_ROUNDS: f64 = 0.05;
const NOTIFICATION_APP: &str = "com.example.notificationtest";

/// The seeded inputs of one round: scheduler seed and launch order.
#[derive(Debug, Clone)]
struct RoundInputs {
    scheduler_seed: u64,
    order: Vec<usize>,
}

fn round_inputs(rng: &mut Rng, apps: usize) -> RoundInputs {
    RoundInputs {
        scheduler_seed: rng.next_u64(),
        order: (0..PASSES).flat_map(|_| rng.permutation(apps)).collect(),
    }
}

/// The installed apps: the Table-1 profiles and the test app.
fn apps() -> Vec<InstalledApp> {
    let mut apps: Vec<InstalledApp> = TABLE1_PROFILES
        .iter()
        .map(|p| {
            let (program, entry) = p.build_workload(WINDOW_SECS, SCALE);
            InstalledApp {
                package: p.package.to_string(),
                program,
                entry,
                baseline_bytes: p.vanilla_bytes(),
            }
        })
        .collect();
    let (program, entry) = NotificationScenario::default().build();
    apps.push(InstalledApp {
        package: NOTIFICATION_APP.to_string(),
        program,
        entry,
        baseline_bytes: 6 * 1024 * 1024,
    });
    apps
}

/// How one launch ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Launch {
    app: usize,
    outcome: RunOutcome,
    frozen: bool,
}

#[derive(Debug, Default)]
struct PhoneRound {
    setup: Duration,
    run: Duration,
    launches: Vec<Launch>,
    latencies_ns: Vec<u64>,
    /// Modelled Dimmunix bytes of each app's last launched process.
    dimmunix_bytes: Vec<usize>,
    steps: u64,
    syncs: u64,
    /// Counters of the per-process engines, summed over the launches.
    engine: Stats,
}

fn fresh_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// One boot sequence on a `Phone` (immune, or the vanilla twin).
fn phone_round(inputs: &RoundInputs, dir: &Path, immune: bool) -> PhoneRound {
    fresh_dir(dir);
    let t0 = Instant::now();
    let apps = apps();
    let mut phone = if immune {
        Phone::new(Config::default(), dir)
    } else {
        Phone::vanilla(dir)
    };
    phone.set_scheduler_seed(inputs.scheduler_seed);
    let packages: Vec<String> = apps.iter().map(|a| a.package.clone()).collect();
    for app in apps {
        phone.install(app);
    }
    let mut round = PhoneRound {
        setup: t0.elapsed(),
        dimmunix_bytes: vec![0; packages.len()],
        ..PhoneRound::default()
    };
    let t1 = Instant::now();
    for &app in &inputs.order {
        let t = Instant::now();
        let (report, process) = phone
            .launch_and_inspect(&packages[app], MAX_STEPS)
            .expect("every launched app is installed");
        round.latencies_ns.push(t.elapsed().as_nanos() as u64);
        if report.frozen {
            phone.reboot();
        }
        round.launches.push(Launch {
            app,
            outcome: report.outcome,
            frozen: report.frozen,
        });
        round.dimmunix_bytes[app] =
            process.memory_dimmunix_bytes() - process.memory_vanilla_bytes();
    }
    round.run = t1.elapsed();
    round
}

/// The same boot sequence driven through `Zygote::fork` and
/// `Process::run`, with a span around each call.
fn traced_round(inputs: &RoundInputs, dir: &Path, tr: &mut Tracer, op_base: u64) -> PhoneRound {
    fresh_dir(dir);
    let apps = apps();
    let mut zygote = Zygote::new(Config::default()).with_history_dir(dir);
    let mut boot: u64 = 1;
    let mut round = PhoneRound::default();
    let t1 = Instant::now();
    for (i, &app) in inputs.order.iter().enumerate() {
        let op = op_base + i as u64;
        let a = &apps[app];
        let start = tr.now();
        let parent = tr.open(Layer::Op, start, op, u32::MAX);
        // `Phone` derives each launch's seed from its scheduler seed and
        // boot count, and forks from a clone carrying that seed.
        let seed = inputs
            .scheduler_seed
            .wrapping_add(boot)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut z = zygote.clone().with_seed(seed);
        let t0 = tr.now();
        let mut process = z.fork(&a.package, a.program.clone(), a.entry);
        let t1 = tr.now();
        zygote = z;
        let outcome = process.run(MAX_STEPS);
        let t2 = tr.now();
        tr.leaf(Layer::Fork, t0, t1, parent.id(), op);
        tr.leaf(Layer::Run, t1, t2, parent.id(), op);
        tr.close(parent, t2);
        let stats = process.stats();
        let frozen = outcome != RunOutcome::Completed
            && (stats.deadlocked_threads > 0 || process.is_stuck());
        if frozen {
            boot += 1;
        }
        round.steps += stats.steps;
        round.syncs += stats.syncs;
        round.engine.merge(process.engine().stats());
        round.launches.push(Launch {
            app,
            outcome,
            frozen,
        });
    }
    round.run = t1.elapsed();
    round
}

pub fn run(seed: u64, seconds: f64, traced: bool, dir: &Path) -> (Outcome, Vec<Tracer>) {
    let mut rng = Rng::new(seed);
    let n_apps = TABLE1_PROFILES.len() + 1;
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, 0, seed);
    let mut out = Outcome::default();
    let mut immune_rounds = Vec::new();
    let mut primary_secs = Vec::new();
    let mut twin_secs = Vec::new();
    let mut traced_rounds = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut pair = 0usize;
    while pair < MIN_PAIRS || started.elapsed() < budget {
        let inputs = round_inputs(&mut rng.fork(), n_apps);
        let mut immune = None;
        let mut other = None;
        for step in 0..2 {
            if (pair + step) % 2 == 0 {
                immune = Some(phone_round(&inputs, &dir.join("immune"), true));
            } else if traced {
                let op_base = (pair * inputs.order.len()) as u64;
                other = Some(traced_round(
                    &inputs,
                    &dir.join("traced"),
                    &mut tracer,
                    op_base,
                ));
            } else {
                other = Some(phone_round(&inputs, &dir.join("vanilla"), false));
            }
        }
        let (immune, other) = (immune.expect("ran"), other.expect("ran"));
        check_round(&mut out, &immune);
        if traced {
            out.checks.expect(other.launches == immune.launches, || {
                "traced launches differ from the Phone's on the same inputs".into()
            });
            primary_secs.push(other.run.as_secs_f64());
            twin_secs.push(immune.run.as_secs_f64());
            traced_rounds.push(other);
        } else {
            primary_secs.push(immune.run.as_secs_f64());
            twin_secs.push(other.run.as_secs_f64());
        }
        immune_rounds.push(immune);
        pair += 1;
    }

    if traced {
        let launches: u64 = traced_rounds.iter().map(|r| r.launches.len() as u64).sum();
        let frozen: u64 = traced_rounds
            .iter()
            .map(|r| r.launches.iter().filter(|l| l.frozen).count() as u64)
            .sum();
        let steps: u64 = traced_rounds.iter().map(|r| r.steps).sum();
        let mut engine = Stats::new();
        for r in &traced_rounds {
            engine.merge(&r.engine);
        }
        layers::core_engine(&mut out, &engine, launches);
        let syncs: u64 = traced_rounds.iter().map(|r| r.syncs).sum();
        let m = &mut out.metrics;
        m.insert(
            "dalvik.fork_us_p50",
            layers::span_percentile(&tracer, Layer::Fork, 0.5) / 1e3,
        );
        m.insert(
            "dalvik.run_us_p50",
            layers::span_percentile(&tracer, Layer::Run, 0.5) / 1e3,
        );
        m.insert(
            "dalvik.host_ns_per_step",
            tracer.total_ns(Layer::Run) as f64 / steps.max(1) as f64,
        );
        m.insert("dalvik.steps_per_sync", steps as f64 / syncs.max(1) as f64);
        m.insert("android.frozen_launches", frozen as f64);
        m.insert("android.reboots", frozen as f64);
        m.insert(
            "trace.overhead_ratio",
            median_ratio(&primary_secs, &twin_secs),
        );
        out.samples.insert("launch_spans", tracer.count(Layer::Op));
        out.attempted = launches;
        (out, vec![tracer])
    } else {
        let mut e2e = EndToEnd::default();
        for r in &immune_rounds {
            e2e.round_ops.push(r.launches.len() as f64);
            e2e.immune_secs.push(r.run.as_secs_f64());
            e2e.setup_secs.push(r.setup.as_secs_f64());
            e2e.memory_bytes
                .push(r.dimmunix_bytes.iter().sum::<usize>() as f64);
            e2e.latencies_ns.push(r.latencies_ns.clone());
            e2e.ops_attempted += r.launches.len() as u64;
            e2e.ops_ok += r.launches.iter().filter(|l| !l.frozen).count() as u64;
        }
        e2e.bare_secs = twin_secs;
        e2e.fastest_rounds = Some(FASTEST_ROUNDS);
        e2e.into_metrics(&mut out);
        let frozen = e2e_frozen(&immune_rounds);
        out.samples.insert("frozen_launches", frozen);
        (out, Vec::new())
    }
}

fn e2e_frozen(rounds: &[PhoneRound]) -> u64 {
    rounds
        .iter()
        .map(|r| r.launches.iter().filter(|l| l.frozen).count() as u64)
        .sum()
}

/// No app freezes again after its first freeze on a phone, and every
/// launch that did not freeze ran to completion.
fn check_round(out: &mut Outcome, r: &PhoneRound) {
    let mut froze = std::collections::HashSet::new();
    for l in &r.launches {
        let refroze = l.frozen && !froze.insert(l.app);
        let unfinished = !l.frozen && l.outcome != RunOutcome::Completed;
        out.failed += u64::from(refroze || unfinished);
        out.checks.expect(!refroze, || {
            format!("app {} froze again after its first freeze", l.app)
        });
        out.checks.expect(!unfinished, || {
            format!("app {} ended {:?} without freezing", l.app, l.outcome)
        });
    }
}

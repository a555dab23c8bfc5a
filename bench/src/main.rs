//! `cqa-e2e` — the end-to-end benchmark of `cqa-engine`.
//!
//! `cqa-e2e --workload W --seed N --seconds S --trace 0|1` boots the
//! default-configured engine in-process behind its TCP server, generates the
//! request bytes of workload `W` from seed `N`, drives the server closed-loop
//! from one client thread over one connection with one frame in flight,
//! checks every reply against the answer the generator's construction
//! predicts, prints every metric by name with its unit, and ends with one
//! line of JSON. `--trace 0` measures the end-to-end metrics; `--trace 1`
//! replays a fixed number of rounds and prints the per-layer metrics. See
//! `README.md` beside this package for the workloads and metrics.

mod check;
mod gen;
mod replay;
mod stats;
#[cfg(test)]
mod tests;
mod trace;
mod traced;
mod wire;

use gen::{Plan, Workload};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn end_to_end(plan: &mut Plan, seconds: f64) -> std::io::Result<(Vec<Metric>, wire::Tally)> {
    let run = wire::run(plan, seconds, None)?;
    // Every timing is read off the undisturbed rounds (and set-up passes):
    // see `stats::undisturbed`.
    let setups: Vec<f64> = stats::undisturbed(&run.setups_s)
        .into_iter()
        .map(|pass| run.setups_s[pass])
        .collect();
    let rates: Vec<f64> = stats::undisturbed(&run.round_walls_s)
        .into_iter()
        .map(|r| f64::from(run.round_ops) / run.round_walls_s[r])
        .collect();
    let mut lat = stats::pool_undisturbed(&run.round_walls_s, &run.latencies_ns);
    let p = stats::percentiles(&mut lat, &[50.0, 90.0]);
    eprintln!(
        "{}: {} timed rounds, {} of them undisturbed with {} latency samples; \
         median round of all {:.0} ms, of the undisturbed {:.0} ms",
        plan.workload.name(),
        run.round_walls_s.len(),
        rates.len(),
        lat.len(),
        stats::median(&run.round_walls_s) * 1e3,
        f64::from(run.round_ops) / stats::median(&rates) * 1e3,
    );
    let m = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        m("setup_s", stats::median(&setups), "s"),
        m("ops_per_s", stats::median(&rates), "1/s"),
        m("lat_p50_us", p[0] / 1e3, "us"),
        m("lat_p90_us", p[1] / 1e3, "us"),
        m("peak_rss_mb", wire::peak_rss_mb()?, "MiB"),
    ];
    Ok((metrics, run.tally))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cqa-e2e: {e}");
            eprintln!("usage: cqa-e2e --workload cold_lin|cold_poly|warm_rtt|warm_batch --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let mut plan = Plan::new(args.workload, args.seed);
    let measured = if args.trace {
        traced::run(&mut plan)
    } else {
        end_to_end(&mut plan, args.seconds)
    };
    let (metrics, tally) = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("cqa-e2e: run aborted: {e}");
            return ExitCode::FAILURE;
        }
    };
    for why in &tally.reasons {
        eprintln!("cqa-e2e: FAILED: {why}");
    }
    for m in &metrics {
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("attempted {} failed {}", tally.attempted, tally.failed);
    let correct = tally.failed == 0;
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

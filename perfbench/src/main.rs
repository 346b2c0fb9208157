//! `perfbench-worker` — one benchmark job per process.
//!
//! `run.py` spawns this binary once per measured job, so every job starts
//! with a cold domain intern table and its own `VmHWM`. A job prints `ready`
//! on stdout when its set-up is done (`run.py` stamps set-up time on that
//! line), runs its timed region, checks its outputs and prints one JSON
//! object as its last stdout line.
//!
//! ```text
//! perfbench-worker ready
//! perfbench-worker atlas --seed 7 --threads 1
//! perfbench-worker chaos --seed 7 --threads 2
//! perfbench-worker storm --seed 7 --threads 1 --queries 4000 --store DIR --build
//! perfbench-worker trace-atlas --seed 7
//! perfbench-worker trace-chaos --seed 7 --threads 2
//! perfbench-worker trace-storm --seed 7 --queries 4000 --store DIR
//! ```

mod jobs;
mod storm;
mod trace;

use std::io::Write;
use std::path::PathBuf;

/// Command-line options shared by every subcommand.
pub struct Args {
    pub seed: u64,
    pub threads: usize,
    pub queries: usize,
    pub store: Option<PathBuf>,
    pub build: bool,
    pub checks: usize,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args { seed: 1, threads: 1, queries: 4_000, store: None, build: false, checks: 0 };
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--seed" => parsed.seed = number(&value()?)?,
                "--threads" => parsed.threads = number(&value()?)?,
                "--queries" => parsed.queries = number(&value()?)?,
                "--checks" => parsed.checks = number(&value()?)?,
                "--store" => parsed.store = Some(PathBuf::from(value()?)),
                "--build" => parsed.build = true,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(parsed)
    }

    /// The store directory, required by the storm subcommands.
    pub fn store_dir(&self) -> Result<PathBuf, String> {
        self.store.clone().ok_or_else(|| "--store DIR is required".to_string())
    }
}

fn number<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("'{text}' is not a number"))
}

/// One flat JSON object, written field by field in insertion order.
#[derive(Default)]
pub struct Record {
    fields: Vec<(String, String)>,
}

impl Record {
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        let text = if value.is_finite() { format!("{value}") } else { "null".to_string() };
        self.fields.push((key.to_string(), text));
        self
    }

    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    pub fn flag(&mut self, key: &str, value: bool) -> &mut Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    pub fn text(&mut self, key: &str, value: &str) -> &mut Self {
        let escaped: String = value
            .chars()
            .map(|c| match c {
                '"' | '\\' => format!("\\{c}"),
                c if c.is_control() => " ".to_string(),
                c => c.to_string(),
            })
            .collect();
        self.fields.push((key.to_string(), format!("\"{escaped}\"")));
        self
    }

    /// A list of numbers (per-query latencies).
    pub fn nums(&mut self, key: &str, values: &[f64]) -> &mut Self {
        let items: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
        self.fields.push((key.to_string(), format!("[{}]", items.join(","))));
        self
    }

    /// The job's verdict: `ok` plus the failed checks, if any.
    pub fn verdict(&mut self, problems: &[String]) -> &mut Self {
        self.flag("ok", problems.is_empty());
        self.text("problems", &problems.join("; "))
    }

    fn print(&self) {
        let body: Vec<String> = self.fields.iter().map(|(key, value)| format!("\"{key}\":{value}")).collect();
        println!("{{{}}}", body.join(","));
    }
}

/// Tell `run.py` that set-up is over: everything after this line is the
/// timed region.
pub fn ready() {
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "ready").and_then(|()| stdout.flush()).expect("stdout is the pipe run.py reads");
}

/// Peak resident set size of this process (`VmHWM`) in MiB, 0 if unknown.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A short, order-sensitive digest of serialisable report parts, so two
/// processes can compare their outputs through `run.py`.
pub fn digest(parts: &[String]) -> String {
    format!("{:016x}", netsim_types::fnv1a(parts.join("|").as_bytes()))
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let outcome = Args::parse(argv).and_then(|args| match command.as_str() {
        "ready" => {
            ready();
            Ok(Record::default())
        }
        "atlas" => Ok(jobs::atlas(&args)),
        "chaos" => Ok(jobs::chaos(&args)),
        "storm" => jobs::storm(&args),
        "trace-atlas" => Ok(trace::atlas(&args)),
        "trace-chaos" => Ok(trace::chaos(&args)),
        "trace-storm" => trace::storm(&args),
        other => Err(format!("unknown subcommand '{other}'")),
    });
    match outcome {
        Ok(record) => record.print(),
        Err(message) => {
            eprintln!("perfbench-worker: {message}");
            std::process::exit(2);
        }
    }
}

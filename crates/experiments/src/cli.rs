//! The command-line plumbing every experiment bin shares: flag values, the
//! 0/1/2 exit contract and report files.
//!
//! Exit status 2 means bad arguments (the bin prints its usage), 1 means a
//! failed check or an IO error, 0 means success.

use std::path::Path;

/// Parse the value following `flag`, or name the flag in the error.
pub fn parse_value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let value = args.next().ok_or_else(|| format!("{flag} requires a value"))?;
    value.parse().map_err(|_| format!("invalid value for {flag}: {value}"))
}

/// Parse the comma-separated thread counts of a `--check-threads` flag
/// (at least two, so there is something to compare).
pub fn parse_check_threads(args: &mut impl Iterator<Item = String>) -> Result<Vec<usize>, String> {
    let value = args.next().ok_or("--check-threads requires a comma-separated list")?;
    let counts = value
        .split(',')
        .map(|part| part.trim().parse::<usize>())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|_| format!("invalid value for --check-threads: {value}"))?;
    if counts.len() < 2 {
        return Err("--check-threads needs at least two thread counts".to_string());
    }
    Ok(counts)
}

/// Unwrap parsed options, or print the error and the usage and exit with
/// status 2.
pub fn options_or_exit<T>(parsed: Result<T, String>, print_usage: fn()) -> T {
    parsed.unwrap_or_else(|message| {
        eprintln!("error: {message}");
        print_usage();
        std::process::exit(2);
    })
}

/// Write `contents` to `path`, creating its parent directory first; print
/// the error and exit with status 1 if either step fails.
pub fn write_or_exit(path: &Path, contents: &str) {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Err(error) = std::fs::create_dir_all(parent) {
            eprintln!("error: cannot create {}: {error}", parent.display());
            std::process::exit(1);
        }
    }
    if let Err(error) = std::fs::write(path, contents) {
        eprintln!("error: cannot write {}: {error}", path.display());
        std::process::exit(1);
    }
}

/// Render the same run at every thread count in `counts` and require the
/// reports to be byte-identical; exit with status 1 naming the first
/// divergent count. Progress goes to stderr as `threads=N: <what> done in
/// Xs`. Returns the (common) report.
pub fn check_thread_invariance(what: &str, counts: &[usize], render: impl Fn(usize) -> String) -> String {
    let mut reference: Option<(usize, String)> = None;
    for &threads in counts {
        let start = std::time::Instant::now();
        let text = render(threads);
        eprintln!("threads={threads}: {what} done in {:.1}s", start.elapsed().as_secs_f64());
        match &reference {
            None => reference = Some((threads, text)),
            Some((base, expected)) => {
                if *expected != text {
                    eprintln!("error: report at --threads {threads} differs from --threads {base}");
                    std::process::exit(1);
                }
                eprintln!("threads={threads}: byte-identical to threads={base}");
            }
        }
    }
    reference.expect("at least two runs").1
}

//! `repro`'s command line, parsed once into [`Args`]. A library type so
//! `tests/drills.rs` runs a drill from the same flag string CI and
//! EXPERIMENTS.md give for it.

use crate::BenchConfig;
use std::str::FromStr;

#[derive(Debug, Clone)]
pub struct Args {
    pub experiment: String,
    /// `--scale`, `--days`, `--unthrottled`.
    pub config: BenchConfig,
    pub seed: u64,
    pub clients: usize,
    pub shards: usize,
    /// `--cas`: chaos over the content-addressed backend.
    pub cas: bool,
    pub introspect: bool,
    pub profile: bool,
    pub metrics_json: Option<String>,
    pub trace_json: Option<String>,
    pub help: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            experiment: "all".to_string(),
            config: BenchConfig::default(),
            seed: 7,
            clients: 8,
            shards: 4,
            cas: false,
            introspect: false,
            profile: false,
            metrics_json: None,
            trace_json: None,
            help: false,
        }
    }
}

fn bad(flag: &str, text: &str) -> String {
    format!("{flag}: `{text}` is not a number it accepts")
}

fn number<T: FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse().map_err(|_| bad(flag, text))
}

/// A count of threads or shards: zero of them runs nothing.
fn at_least_one(flag: &str, text: &str) -> Result<usize, String> {
    number(flag, text).and_then(|n| if n >= 1 { Ok(n) } else { Err(bad(flag, text)) })
}

impl Args {
    /// Parse everything after the program name. `Err` is the one-line
    /// message `repro` prints before exiting 2.
    pub fn parse<S: AsRef<str>>(argv: &[S]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut days_text = None;
        let mut rest = argv.iter().map(AsRef::as_ref);
        while let Some(arg) = rest.next() {
            let mut value_of = || rest.next().ok_or(format!("{arg} needs a value"));
            match arg {
                "-h" | "--help" => args.help = true,
                "--profile" => args.profile = true,
                "--introspect" => args.introspect = true,
                "--unthrottled" => args.config.throttled = false,
                "--cas" => args.cas = true,
                "--metrics-json" => args.metrics_json = Some(value_of()?.to_string()),
                "--trace-json" => args.trace_json = Some(value_of()?.to_string()),
                "--scale" => {
                    let v = value_of()?;
                    let scale = match v.strip_prefix("1/") {
                        Some(denominator) => denominator.parse().map(|d: f64| 1.0 / d),
                        None => v.parse(),
                    };
                    // A fraction of the paper's volume: no more, and some.
                    let scale = scale.ok().filter(|s| *s > 0.0 && *s <= 1.0);
                    args.config.scale = scale.ok_or_else(|| bad(arg, v))?;
                }
                "--days" => {
                    let v = value_of()?;
                    args.config.days = number(arg, v)?;
                    days_text = Some(v);
                }
                "--seed" => args.seed = number(arg, value_of()?)?,
                "--clients" => args.clients = at_least_one(arg, value_of()?)?,
                "--shards" => args.shards = at_least_one(arg, value_of()?)?,
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                experiment => args.experiment = experiment.to_string(),
            }
        }
        if let Some(v) = days_text {
            if args.config.days < min_days(&args.experiment) {
                return Err(bad("--days", v));
            }
        }
        Ok(args)
    }
}

/// The shortest trace an experiment runs on: Figs. 11-12 (and `all`,
/// which runs them) query a window on day 4, the chaos drill blacks out
/// the day before the last, the cost drill compares two days.
fn min_days(experiment: &str) -> u32 {
    match experiment {
        "all" | "fig11" | "fig12" => 5,
        "chaos" | "cost" => 2,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_no_run_can_use_are_refused_by_the_parser() {
        for (flag, text) in [
            ("--scale", "0"),
            ("--scale", "1/0"),
            ("--scale", "2"),
            ("--scale", "-1"),
            ("--scale", "1/-4"),
            ("--scale", "nan"),
            ("--scale", "inf"),
            ("--shards", "0"),
            ("--clients", "0"),
        ] {
            let err = Args::parse(&["chaos", flag, text]).expect_err(text);
            assert_eq!(err, bad(flag, text));
        }
        for (flag, text) in [("--scale", "1"), ("--scale", "1/2048"), ("--scale", "0.5")] {
            assert!(Args::parse(&[flag, text]).is_ok(), "{flag} {text}");
        }
        let args = Args::parse(&["scale", "--shards", "1", "--clients", "1"]).unwrap();
        assert_eq!((args.shards, args.clients), (1, 1));
    }

    #[test]
    fn a_trace_too_short_for_its_experiment_is_refused_by_the_parser() {
        for (experiment, days) in [
            ("fig11", "4"),
            ("fig12", "2"),
            ("all", "0"),
            ("chaos", "1"),
            ("chaos", "0"),
            ("cost", "1"),
        ] {
            let err = Args::parse(&[experiment, "--days", days]).expect_err(experiment);
            assert_eq!(err, bad("--days", days));
            // The flag may come before the experiment's name.
            let err = Args::parse(&["--days", days, experiment]).expect_err(experiment);
            assert_eq!(err, bad("--days", days));
        }
        for (experiment, days) in [
            ("fig11", "5"),
            ("chaos", "2"),
            ("cost", "2"),
            ("decay", "1"),
        ] {
            let args = Args::parse(&[experiment, "--days", days]).unwrap();
            assert_eq!(args.config.days.to_string(), days);
        }
        // Without --days, the default trace runs every experiment.
        for (names, ..) in crate::EXPERIMENTS {
            for name in names.split('|') {
                assert!(Args::parse(&[name]).is_ok(), "{name}");
            }
        }
    }
}

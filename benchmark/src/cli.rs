//! Command line: one workload (or all five) for the driver and for people.

use crate::compare;
use crate::report::{self, WorkloadResult};
use crate::run;
use crate::spec::{self, WorkloadSpec, RUN_SECONDS, WORKLOADS};

const USAGE: &str = "usage: cf-benchmark [--workload <name>] [--seed <u64>] [--seconds <s>] \
                     [--trace <0|1> | --traced] [--repeat <n>]\n       \
                     cf-benchmark --compare <parent results.json> <change results.json>";

/// Parsed arguments.
#[derive(Debug)]
pub struct Args {
    /// The workloads to run, in order.
    pub workloads: Vec<&'static WorkloadSpec>,
    /// Seed of the request stream and the arrival process.
    pub seed: u64,
    /// Seconds one workload measures for.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub traced: bool,
    /// Run each workload this many times, each on another seed, and
    /// report the spreads.
    pub repeat: Option<usize>,
    /// Compare two `results.json` files instead of running anything.
    pub compare: Option<(String, String)>,
}

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: WORKLOADS.iter().collect(),
        seed: 1,
        seconds: RUN_SECONDS,
        traced: false,
        repeat: None,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let spec = spec::workload(name).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; one of {}", names.join(", "))
                })?;
                out.workloads = vec![spec];
            }
            "--seed" => {
                let v = value()?;
                out.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?} is not a u64"))?;
            }
            "--seconds" => {
                let v = value()?;
                out.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {v:?} is not a positive number"))?;
            }
            "--trace" => {
                out.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?} is neither 0 nor 1")),
                };
            }
            "--traced" => out.traced = true,
            "--repeat" => {
                let v = value()?;
                let n = v
                    .parse()
                    .map_err(|_| format!("--repeat {v:?} is not a count"))?;
                out.repeat = Some(n);
            }
            "--compare" => out.compare = Some((value()?.clone(), value()?.clone())),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(out)
}

/// Runs the workloads in `args`, printing each one's metric lines and its
/// JSON line (the last line of output is the last workload's). Returns
/// the process exit code: 0 only if every reply of every workload was
/// correct.
fn run_workloads(args: &Args) -> i32 {
    let mut results: Vec<WorkloadResult> = Vec::new();
    let mut code = 0;
    for spec in &args.workloads {
        let result = if args.traced {
            run::per_layer(spec, args.seed, args.seconds)
        } else {
            run::end_to_end(spec, args.seed, args.seconds)
        };
        match result {
            Ok(r) => {
                print!("{}", r.lines());
                println!("{}", r.json_line());
                if let Some(trace) = &r.trace_json {
                    report::write_out(&format!("trace-{}.json", r.workload), trace);
                }
                if !r.correct() {
                    eprintln!("{}: incorrect: {:?}", r.workload, r.fails);
                    code = 1;
                }
                results.push(r);
            }
            Err(e) => {
                eprintln!("error: {e}");
                code = 1;
            }
        }
    }
    let file = if args.traced {
        "results-traced.json"
    } else {
        "results.json"
    };
    report::write_out(
        file,
        &report::results_json(args.seed, args.seconds, &results),
    );
    code
}

/// Entry point; returns the process exit code.
pub fn main(args: Vec<String>) -> i32 {
    match parse(&args) {
        Ok(Args {
            compare: Some((parent, change)),
            ..
        }) => compare::compare(&parent, &change),
        Ok(Args {
            repeat: Some(n),
            workloads,
            seed,
            seconds,
            traced,
            ..
        }) => compare::repeat(&workloads, seed, seconds, traced, n),
        Ok(args) => run_workloads(&args),
        Err(e) => {
            eprintln!("{e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let a = parse_str("--workload put_mid --seed 42 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workloads.len(), 1);
        assert_eq!(a.workloads[0].name, "put_mid");
        assert_eq!((a.seed, a.seconds, a.traced), (42, 12.0, true));
        assert!(!parse_str("--trace 0").unwrap().traced);
        assert!(parse_str("--traced").unwrap().traced);
    }

    #[test]
    fn no_workload_means_all_five_at_the_pinned_length() {
        let a = parse_str("").unwrap();
        let names: Vec<&str> = a.workloads.iter().map(|w| w.name).collect();
        assert_eq!(names, WORKLOADS.map(|w| w.name));
        assert_eq!((a.seconds, a.traced, a.repeat), (RUN_SECONDS, false, None));
        let a = parse_str("--repeat 10 --compare a.json b.json").unwrap();
        assert_eq!(a.repeat, Some(10));
        assert_eq!(
            a.compare,
            Some(("a.json".to_string(), "b.json".to_string()))
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        for line in [
            "--workload nope",
            "--workload",
            "--seed -1",
            "--seconds 0",
            "--seconds soon",
            "--trace 2",
            "--compare only-one.json",
            "--frobnicate",
        ] {
            assert!(parse_str(line).is_err(), "{line}");
        }
    }
}

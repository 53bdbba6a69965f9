//! Command line of the benchmark; see `README.md`.

use intellinoc_benchmark::alloc::CountingAlloc;
use intellinoc_benchmark::json::{obj, read_file, string, write_file};
use intellinoc_benchmark::run::{run_workload, Options};
use intellinoc_benchmark::{compare, layers, workloads};
use serde::Content;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage:
  run --workload NAME --seed N [--seconds S] [--trace 0|1] [--out-dir DIR]
      one workload in this process; the last line of stdout is the result
  run --seed N [--seconds S] --out FILE [--out-dir DIR]
      every workload, --trace 0 then --trace 1, each in its own process
  layers [--seed N] [--out FILE] [--out-dir DIR]
      the layer drivers; --out adds them to FILE under \"layers\"
  compare A.json B.json [--contract BENCHMARK.json]
      judge B against A by the bounds of the contract; exit 1 on any worse";

/// `--flag value` pairs and bare arguments.
struct Args {
    flags: Vec<(String, String)>,
    bare: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let (mut flags, mut bare) = (Vec::new(), Vec::new());
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.push((name.to_owned(), value.clone()));
                }
                None => bare.push(arg.clone()),
            }
        }
        Ok(Args { flags, bare })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: cannot read `{v}`")),
        }
    }

    fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.get("out-dir").unwrap_or("benchmark/out"))
    }
}

fn detail_path(out_dir: &Path, workload: &str, trace: bool) -> PathBuf {
    out_dir.join(format!("result-{workload}-trace{}.json", u8::from(trace)))
}

fn run_one(args: &Args, name: &str) -> Result<ExitCode, String> {
    let workload = workloads::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; the workloads are {}", names.join(", "))
    })?;
    let seconds: f64 = args.number("seconds", 15.0)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    let trace = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace is 0 or 1, not `{other}`")),
    };
    let opts = Options {
        workload,
        seed: args.number("seed", 2019)?,
        seconds,
        trace,
        out_dir: args.out_dir(),
    };
    let result = run_workload(&opts)?;
    write_file(&detail_path(&opts.out_dir, workload.name, trace), &result.detail())?;
    print!("{}", result.table());
    println!("{}", result.contract_line());
    Ok(if result.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn run_all(args: &Args) -> Result<ExitCode, String> {
    let out = PathBuf::from(args.get("out").ok_or("run without --workload needs --out FILE")?);
    let out_dir = args.out_dir();
    let seed: u64 = args.number("seed", 2019)?;
    let seconds: f64 = args.number("seconds", 15.0)?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let mut all_correct = true;
    let mut per_workload = Vec::new();
    for w in workloads::ALL {
        let mut passes = Vec::new();
        for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
            let started = Instant::now();
            // One workload, one process, one after another: nothing of one
            // workload's heap or page cache state is the next one's.
            let status = Command::new(&exe)
                .args(["run", "--workload", w.name])
                .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out-dir")
                .arg(&out_dir)
                .status()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            all_correct &= status.success();
            eprintln!(
                "{} --trace {}: {:.1} s",
                w.name,
                u8::from(trace),
                started.elapsed().as_secs_f64()
            );
            passes.push((key, read_file(&detail_path(&out_dir, w.name, trace))?));
        }
        per_workload.push((w.name, obj(passes)));
    }
    let doc = obj([
        ("schema", Content::U64(1)),
        ("seed", Content::U64(seed)),
        ("seconds", Content::F64(seconds)),
        (
            "host",
            obj([
                (
                    "available_parallelism",
                    Content::U64(
                        std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
                    ),
                ),
                ("loadavg_at_start", string(loadavg.trim())),
            ]),
        ),
        ("workloads", obj(per_workload)),
    ]);
    write_file(&out, &doc)?;
    eprintln!("wrote {}", out.display());
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn run_layers(args: &Args) -> Result<ExitCode, String> {
    let metrics = layers::run_layers(args.number("seed", 2019)?, &args.out_dir())?;
    for m in &metrics {
        println!("  {:<40} {:>14.4} {}", m.name, m.value, m.unit);
    }
    if let Some(out) = args.get("out").map(Path::new) {
        let mut pairs = match read_file(out) {
            Ok(Content::Map(pairs)) => pairs,
            _ => Vec::new(),
        };
        pairs.retain(|(k, _)| k != "layers");
        pairs.push(("layers".to_owned(), layers::to_json(&metrics)));
        write_file(out, &Content::Map(pairs))?;
    }
    Ok(ExitCode::SUCCESS)
}

fn run_compare(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.bare.as_slice() else {
        return Err("compare takes two result files".to_owned());
    };
    let contract = args.get("contract").unwrap_or("BENCHMARK.json");
    let (table, worse) = compare::compare_files(Path::new(contract), Path::new(a), Path::new(b))?;
    print!("{table}");
    if worse > 0 {
        println!("{worse} rows worse than their bound");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn dispatch(argv: &[String]) -> Result<ExitCode, String> {
    let (command, rest) = argv.split_first().ok_or(USAGE)?;
    let args = Args::parse(rest)?;
    match command.as_str() {
        "run" => match args.get("workload") {
            Some(name) => run_one(&args, name),
            None => run_all(&args),
        },
        "layers" => run_layers(&args),
        "compare" => run_compare(&args),
        _ => Err(USAGE.to_owned()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

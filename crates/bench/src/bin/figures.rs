//! The one evaluation binary: renders entries of [`FIGURES`] by name.
//!
//! `cargo run --release -p intellinoc-bench -- all --jobs 2 --out-dir results`

use intellinoc_bench::{
    print_headline, write_campaign_csv, write_raw_csv, Campaign, Evaluation, Figure, FIGURES,
};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: figures --list
       figures <name>... | all [--jobs N] [--out-dir DIR]

  --list         print every figure name with what it shows
  all            every figure in table order, then the headline comparison
  --jobs N       worker threads for the grid studies (default 1; output is
                 byte-identical at any N)
  --out-dir DIR  also write each figure to DIR/<name>.txt and, with `all`,
                 the campaign CSVs to DIR/intellinoc-{normalized,raw}.csv";

fn write_file(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn run(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut names: Vec<String> = Vec::new();
    let mut list = false;
    let mut jobs = 1usize;
    let mut out_dir: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value\n{USAGE}"));
        match arg.as_str() {
            "--list" => list = true,
            "--jobs" => {
                let v = value()?;
                jobs = v.parse().map_err(|_| format!("invalid --jobs: {v}"))?;
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value()?)),
            _ if arg.starts_with('-') => return Err(format!("unknown option {arg}\n{USAGE}")),
            _ => names.push(arg),
        }
    }
    if list {
        for f in FIGURES {
            println!("{:<24} {}", f.name, f.about);
        }
        return Ok(());
    }
    let all = names == ["all"];
    let selected: Vec<&Figure> = if all {
        FIGURES.iter().collect()
    } else {
        names
            .iter()
            .map(|n| {
                FIGURES
                    .iter()
                    .find(|f| f.name == n)
                    .ok_or(format!("unknown figure `{n}` (see figures --list)"))
            })
            .collect::<Result<_, _>>()?
    };
    if selected.is_empty() {
        return Err(USAGE.to_owned());
    }
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }

    let mut eval = Evaluation::new(Campaign::default(), jobs);
    let mut stdout = std::io::stdout().lock();
    for fig in selected {
        // Rendered into memory first: a unit that fails leaves no
        // half-written table, on stdout or on disk.
        let mut table = Vec::new();
        (fig.render)(&mut eval, &mut table).map_err(|e| format!("{}: {e}", fig.name))?;
        stdout.write_all(&table).map_err(|e| format!("{}: {e}", fig.name))?;
        if let Some(dir) = &out_dir {
            write_file(&dir.join(format!("{}.txt", fig.name)), &table)?;
        }
    }
    if all {
        print_headline(&mut eval, &mut stdout).map_err(|e| format!("headline: {e}"))?;
        if let Some(dir) = &out_dir {
            let results = eval.results().map_err(|e| e.to_string())?;
            let (mut normalized, mut raw) = (Vec::new(), Vec::new());
            write_campaign_csv(&mut normalized, results).expect("in-memory write");
            write_raw_csv(&mut raw, results).expect("in-memory write");
            write_file(&dir.join("intellinoc-normalized.csv"), &normalized)?;
            write_file(&dir.join("intellinoc-raw.csv"), &raw)?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("figures: {e}");
            ExitCode::FAILURE
        }
    }
}

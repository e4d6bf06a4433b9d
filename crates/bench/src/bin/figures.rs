//! Regenerates every table and figure of the paper's evaluation section and
//! prints the data series (optionally also as JSON).
//!
//! Usage:
//!
//! ```text
//! figures [--scale full|report|test|smoke] [--json <dir>] [--only fig1,fig2,...]
//! ```
//!
//! The default scale is `report` (one tenth of the paper's volume sizes; see
//! EXPERIMENTS.md for why that preserves the observed behaviour).

use std::collections::BTreeSet;
use std::path::PathBuf;

use lor_bench::{table1, Scale, FAMILIES};
use lor_core::Figure;

struct Options {
    scale: Scale,
    scale_name: String,
    json_dir: Option<PathBuf>,
    only: Option<BTreeSet<String>>,
}

impl Options {
    fn wants(&self, name: &str) -> bool {
        self.only.as_ref().is_none_or(|set| set.contains(name))
    }
}

/// Every name `--only` accepts, in the order the run prints them.
fn family_names() -> Vec<&'static str> {
    std::iter::once("table1")
        .chain(FAMILIES.iter().map(|family| family.only))
        .collect()
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut options = Options {
        scale: Scale::report(),
        scale_name: "report".to_string(),
        json_dir: None,
        only: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let value = args.next().ok_or("--scale needs a value")?;
                options.scale = Scale::by_name(&value).ok_or_else(|| {
                    format!("unknown scale {value:?} (use full|report|test|smoke)")
                })?;
                options.scale_name = value;
            }
            "--json" => {
                options.json_dir = Some(PathBuf::from(
                    args.next().ok_or("--json needs a directory")?,
                ));
            }
            "--only" => {
                let value = args.next().ok_or("--only needs a comma-separated list")?;
                let only: BTreeSet<String> =
                    value.split(',').map(|s| s.trim().to_lowercase()).collect();
                let names = family_names();
                if let Some(unknown) = only.iter().find(|name| !names.contains(&name.as_str())) {
                    return Err(format!(
                        "unknown family {unknown:?} in --only (use {})",
                        names.join(",")
                    ));
                }
                options.only = Some(only);
            }
            "--help" | "-h" => {
                println!(
                    "usage: figures [--scale full|report|test|smoke] [--json <dir>] \
                     [--only {}]",
                    family_names().join(",")
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(options)
}

fn emit(options: &Options, name: &str, figures: &[Figure]) -> Result<(), String> {
    for figure in figures {
        println!("{}", figure.to_text());
    }
    if let Some(dir) = &options.json_dir {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!("{name}.json"));
        let json = Figure::list_to_json(figures);
        std::fs::write(&path, json).map_err(|e| e.to_string())?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let options = parse_args(std::env::args().skip(1))?;
    eprintln!(
        "regenerating figures at scale '{}' (volume factor {}, max storage age {})",
        options.scale_name, options.scale.volume_factor, options.scale.max_age
    );

    if options.wants("table1") {
        println!("{}", table1().to_text());
    }
    for family in FAMILIES.iter().filter(|f| options.wants(f.only)) {
        let figures = (family.run)(&options.scale).map_err(|e| e.to_string())?;
        emit(&options, family.json, &figures)?;
    }
    Ok(())
}

fn main() {
    if let Err(message) = run() {
        eprintln!("error: {message}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(args.iter().map(|arg| arg.to_string()))
    }

    #[test]
    fn only_accepts_exactly_the_family_table() {
        let names = family_names();
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "duplicate --only name");
        let files: BTreeSet<&str> = FAMILIES.iter().map(|family| family.json).collect();
        assert_eq!(files.len(), FAMILIES.len(), "duplicate --json file stem");

        let all = parse(&["--only", &names.join(",")]).unwrap();
        assert!(names.iter().all(|name| all.wants(name)));
        let some = parse(&["--only", "fig2, Shard-Sweep"]).unwrap();
        assert!(some.wants("fig2") && some.wants("shard-sweep"));
        assert!(!some.wants("fig3"));

        let error = parse(&["--only", "fig2,bogus"]).err().unwrap();
        assert!(error.contains("\"bogus\"") && error.contains("placement-frontier"));
        assert!(parse(&["--scale", "bogus"]).is_err());
    }
}

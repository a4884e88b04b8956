//! Shared plumbing for the figure/table reproduction binaries.
//!
//! Every target prints the same rows/series the paper reports. Scale
//! knobs come from the environment so CI can run reduced versions:
//!
//! - `FORECO_CYCLES` — pick-and-place repetitions per dataset
//!   (default 20; the paper's H = 187 109 commands ≈ 100 cycles ×
//!   two operators; 20 keeps a laptop run under a minute per figure).
//! - `FORECO_REPS` — seeded repetitions per Fig.-8 cell (default 10;
//!   paper: 40).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use foreco_forecast::Var;
use foreco_robot::{niryo_one, ArmModel};
use foreco_teleop::{Dataset, Skill};

/// The paper's Fig.-8 interference-probability axis (per-slot activation).
pub const PROBS: [f64; 3] = [0.01, 0.025, 0.05];
/// The paper's Fig.-8 burst-duration axis, in slots.
pub const DURATIONS: [u32; 3] = [10, 50, 100];
/// The paper's Fig.-8 robot counts.
pub const ROBOTS: [usize; 3] = [5, 15, 25];
/// Command period Ω (50 Hz).
pub const OMEGA: f64 = 0.020;

/// Parses a positive-integer knob's raw value: unset keeps `default`;
/// a set value that is not a positive integer is an error naming the knob.
fn parse_knob(name: &str, raw: Option<&str>, default: usize) -> Result<usize, String> {
    match raw.map(|v| (v, v.trim().parse::<usize>())) {
        None => Ok(default),
        Some((_, Ok(n))) if n > 0 => Ok(n),
        Some((v, _)) => Err(format!("{name}={v:?}: expected a positive integer")),
    }
}

/// Parses a comma list of positive integers the same way: unset keeps
/// `default`; every item of a set value must be a positive integer.
fn parse_list_knob(name: &str, raw: Option<&str>, default: &[usize]) -> Result<Vec<usize>, String> {
    match raw {
        None => Ok(default.to_vec()),
        Some(v) => v.split(',').map(|i| parse_knob(name, Some(i), 1)).collect(),
    }
}

/// Parses the environment variable `name`, or prints the error and
/// exits with status 2: a mistyped knob must not silently measure the
/// default. (A non-UTF-8 value arrives lossily and fails to parse.)
fn from_env<T>(name: &str, parse: impl FnOnce(Option<&str>) -> Result<T, String>) -> T {
    let raw = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse(raw.as_deref()).unwrap_or_else(|err| {
        eprintln!("error: {err}");
        std::process::exit(2)
    })
}

/// Reads a positive integer knob from the environment (`parse_knob`).
pub fn env_knob(name: &str, default: usize) -> usize {
    from_env(name, |raw| parse_knob(name, raw, default))
}

/// Reads a comma list knob from the environment (`parse_list_knob`).
pub fn env_list_knob(name: &str, default: &[usize]) -> Vec<usize> {
    from_env(name, |raw| parse_list_knob(name, raw, default))
}

/// Dataset cycle count (`FORECO_CYCLES`, default 20).
pub fn cycles() -> usize {
    env_knob("FORECO_CYCLES", 20)
}

/// Fig.-8 repetitions per cell (`FORECO_REPS`, default 10).
pub fn reps() -> usize {
    env_knob("FORECO_REPS", 10)
}

/// The standard experiment fixture: arm model, training dataset
/// (experienced), test dataset (inexperienced), and the deployed
/// differenced VAR(5).
pub struct Fixture {
    /// Niryo-One-like arm.
    pub model: ArmModel,
    /// Experienced-operator recording (training).
    pub train: Dataset,
    /// Inexperienced-operator recording (evaluation).
    pub test: Dataset,
    /// The trained forecaster FoReCo deploys.
    pub var: Var,
}

impl Fixture {
    /// Builds the fixture at the configured scale.
    pub fn build() -> Self {
        let n = cycles();
        let train = Dataset::record(Skill::Experienced, n, OMEGA, 0xF0E0);
        let test = Dataset::record(Skill::Inexperienced, (n / 4).max(2), OMEGA, 0x7E57);
        let var = Var::fit_differenced(&train, 5, 1e-6).expect("training data well-conditioned");
        Self {
            model: niryo_one(),
            train,
            test,
            var,
        }
    }
}

/// Prints a standard header naming the figure/table being regenerated.
pub fn banner(what: &str, paper_ref: &str) {
    println!("==================================================================");
    println!("  {what}");
    println!("  reproduces: {paper_ref}");
    println!("==================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_knobs_keep_defaults_and_valid_values_parse() {
        assert_eq!(parse_knob("K", None, 4096), Ok(4096));
        assert_eq!(parse_knob("K", Some(" 7 "), 4096), Ok(7));
        assert_eq!(parse_list_knob("L", None, &[1, 2]), Ok(vec![1, 2]));
        assert_eq!(
            parse_list_knob("L", Some("1, 2,4"), &[8]),
            Ok(vec![1, 2, 4])
        );
    }

    #[test]
    fn invalid_knob_values_are_errors_that_name_the_knob() {
        for raw in ["1k", "0", "-3", "", "2.5"] {
            let err = parse_knob("FORECO_SERVE_IDLE_SESSIONS", Some(raw), 4096).unwrap_err();
            assert!(err.contains("FORECO_SERVE_IDLE_SESSIONS"), "{err}");
        }
        for raw in ["", "a,b", "1,,2", "1,0", "4,8,x"] {
            let err = parse_list_knob("FORECO_SERVE_SHARDS", Some(raw), &[1]).unwrap_err();
            assert!(err.contains("FORECO_SERVE_SHARDS"), "{err}");
        }
    }
}

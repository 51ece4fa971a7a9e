//! `albireo plan`: the capacity planner.

use super::serve::{network_mix, parse_arrival};
use super::{at_least_one, positive, to_out, write_file, CliError, COMMANDS};
use crate::args::Args;
use albireo_nn::zoo;
use albireo_parallel::Parallelism;

/// `albireo plan [...]` — the capacity planner: searches chip mixes,
/// batching policies, and autoscaling policies for the minimum-energy
/// fleet that meets an SLO, scoring every candidate with the serving
/// simulator. Deterministic at any `--threads` value; `--spec` replays
/// a plan from its canonical one-line echo.
pub(super) fn plan(args: &Args) -> Result<String, CliError> {
    use albireo_obs::Obs;
    use albireo_plan::{PlanSpec, SloSpec};
    use albireo_runtime::{AutoscalePolicy, BatchPolicy, ClassSpec, FaultSpec, Workload};

    let spec = match args.get("spec") {
        Some(line) => {
            // The spec line fixes the whole plan: every other option of
            // the row but the output paths would silently lose to it.
            let row = COMMANDS.iter().find(|c| c.name == "plan");
            let conflict = row
                .expect("plan is a row of COMMANDS")
                .options
                .split_whitespace()
                .filter(|o| !matches!(*o, "spec" | "out" | "csv-out"))
                .find(|o| args.get(o).is_some());
            if let Some(conflict) = conflict {
                return Err(CliError::Usage(format!(
                    "--spec already fixes the whole plan; drop --{conflict}"
                )));
            }
            PlanSpec::parse(line)?
        }
        None => {
            let rate = args
                .get_where("rate", "a positive rate in requests/s", positive)?
                .unwrap_or(2000.0);
            let slo = SloSpec::parse(args.require("slo")?)?;
            let requests = args
                .get_where("requests", "a request count >= 1", at_least_one)?
                .unwrap_or(2000);
            // The fleet varies per candidate, so unsupported networks
            // surface as infeasible candidates, not errors.
            let mix = network_mix(args, &zoo::serving_models(), |name, idx, mix| {
                match mix.iter().any(|&(seen, _)| seen == idx) {
                    true => Err(CliError::Usage(format!(
                        "network `{name}` appears twice in --networks"
                    ))),
                    false => Ok(()),
                }
            })?;
            // Search-axis lists take `|` or `,` between entries.
            let list = |flag: &str, default: &'static str| {
                let raw = args.get(flag).unwrap_or(default);
                raw.split(['|', ','])
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
            };
            let spec = PlanSpec {
                workload: Workload {
                    process: parse_arrival(args, rate)?,
                    mix,
                    classes: match args.get("classes") {
                        Some(list) => ClassSpec::parse_list(list, None)?,
                        None => Vec::new(),
                    },
                },
                requests,
                screen_requests: args.get_parsed_or(
                    "screen-requests",
                    requests.min(300),
                    "a screening run length",
                )?,
                seed: args.get_parsed_or("seed", 42u64, "a seed")?,
                replicas: args.get_parsed_or("replicas", 1usize, "a replica count")?,
                slo,
                chip_kinds: list("chips", "albireo_9:C").map(str::to_string).collect(),
                max_chips: args.get_parsed_or("max-chips", 3usize, "a fleet size")?,
                policies: list("policies", "immediate")
                    .map(BatchPolicy::parse)
                    .collect::<Result<_, _>>()?,
                queue_capacity: match args.get_parsed_or(
                    "queue-cap",
                    64,
                    "a capacity (0 = unbounded)",
                )? {
                    0 => usize::MAX,
                    cap => cap,
                },
                autoscale: list("autoscale", "static")
                    .map(AutoscalePolicy::parse)
                    .collect::<Result<_, _>>()?,
                faults: args
                    .get("faults")
                    .map_or(Ok(FaultSpec::none()), FaultSpec::parse)?,
            };
            spec.validate()?;
            spec
        }
    };

    let report = albireo_plan::plan(
        &spec,
        Parallelism::global(),
        &Obs::disabled(),
        args.flag("exhaustive"),
    )?;

    if let Some(path) = args.get("csv-out") {
        write_file(path, report.to_csv())?;
    }
    let out = if args.flag("json") {
        report.to_json()
    } else {
        report.render_text()
    };
    to_out(args, out, |path| {
        format!(
            "wrote {path}: {} candidate(s), {} feasible, digest {}\n",
            report.candidates_total,
            report.frontier.len(),
            report.digest_hex()
        )
    })
}

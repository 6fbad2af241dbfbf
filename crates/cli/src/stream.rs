//! `graffix stream` — ingest a batched edge-mutation stream and keep the
//! prepared graph up to date through [`IncrementalPrepare`], checkpointing
//! the chosen algorithm every N batches. Per-batch mode/debt and per-stage
//! hit/stale/recomputed lines go to stderr; checkpoint digests to stdout.

use crate::args::{Bag, Parsed};
use crate::command::{Command, Sub};
use crate::common::{self, load, log_stage, save, value_bytes};
use graffix::log_info;
use graffix::prelude::*;
use graffix_graph::mutation;
use std::path::PathBuf;
use std::process::exit;

pub const SUB: Sub = Sub {
    name: "stream",
    usage: "\
--in FILE --stream FILE [--algo A] [--technique T] [--threshold T]
[--debt-threshold X] [--checkpoint-every N] [--oracle] [--out FILE]
ingest batched edge mutations (`+ u v [w]` / `- u v` lines, blank line =
batch boundary) and keep the prepared graph up to date incrementally;
stale reuse is bounded by the staleness-debt threshold (0 = always
exact). Checkpoints run the chosen algorithm (default pr) every N
batches (and at end) and print a result digest; --oracle re-prepares
from scratch at each checkpoint and fails on any digest mismatch",
    parse: |bag| parse(bag).map(Command::Stream),
};

pub struct Args {
    pub input: PathBuf,
    pub stream: PathBuf,
    pub algo: Algo,
    pub technique: Technique,
    pub threshold: Option<f64>,
    pub knobs: StreamKnobs,
    /// Checkpoint every N batches (0 = only at the end).
    pub checkpoint_every: usize,
    pub oracle: bool,
    pub out: Option<PathBuf>,
}

fn parse(bag: &mut Bag) -> Parsed<Args> {
    let mut knobs = StreamKnobs::default();
    if let Some(debt) = bag.opt("debt-threshold")? {
        knobs = knobs.with_debt_threshold(debt);
    }
    let (technique, threshold) = common::technique(bag, false)?;
    Ok(Args {
        input: bag.req("in")?,
        stream: bag.req("stream")?,
        algo: bag.opt_with("algo", Algo::parse)?.unwrap_or(Algo::Pr),
        technique,
        threshold,
        knobs,
        checkpoint_every: bag.opt("checkpoint-every")?.unwrap_or(0),
        oracle: bag.switch("oracle")?,
        out: bag.opt("out")?,
    })
}

pub fn run(args: Args, gpu: &GpuConfig) {
    let g = load(&args.input);
    let batches = std::fs::File::open(&args.stream)
        .and_then(mutation::parse_stream)
        .unwrap_or_else(|e| {
            eprintln!("could not read {}: {e}", args.stream.display());
            exit(1);
        });
    let pipeline = technique_pipeline(&g, args.technique, args.threshold).unwrap_or_default();
    let mut inc = IncrementalPrepare::new(g, pipeline.clone(), gpu.clone(), args.knobs)
        .unwrap_or_else(|e| {
            eprintln!("invalid stream configuration: {e}");
            exit(2);
        });
    log_info!(
        "initial prepare: {} nodes, {} edges, {} batches queued (debt threshold {})",
        inc.graph().num_nodes(),
        inc.graph().num_edges(),
        batches.len(),
        args.knobs.debt_threshold
    );
    let total = batches.len();
    let every = args.checkpoint_every;
    for (i, batch) in batches.iter().enumerate() {
        let out = inc.apply_batch(batch).unwrap_or_else(|e| {
            eprintln!("batch {}/{total} failed: {e}", i + 1);
            exit(1);
        });
        log_info!(
            "batch {}/{total}: +{} -{} ~{} mode={} debt={:.4} apply+maintain {:.4}s prepare {:.4}s",
            i + 1,
            out.batch.inserted.len(),
            out.batch.deleted.len(),
            out.batch.reweighted,
            out.mode.label(),
            out.debt,
            out.maintenance_seconds,
            out.prepare_seconds
        );
        out.stages.iter().for_each(log_stage);
        if (every > 0 && (i + 1) % every == 0) || i + 1 == total {
            checkpoint(i + 1, args.algo, &inc, &pipeline, gpu, args.oracle);
        }
    }
    log_info!(
        "stream done: {} exact / {} stale prepares",
        inc.exact_prepares(),
        inc.stale_prepares()
    );
    if let Some(out_path) = &args.out {
        save(inc.graph(), out_path);
        log_info!("wrote {}", out_path.display());
    }
}

/// One stream checkpoint: run the algorithm on the incrementally prepared
/// graph and print a deterministic result digest. With `--oracle`, also
/// prepare the current true graph from scratch and require an identical
/// digest (exit 1 on divergence).
fn checkpoint(
    batch_no: usize,
    algo: Algo,
    inc: &IncrementalPrepare,
    pipeline: &Pipeline,
    gpu: &GpuConfig,
    oracle: bool,
) {
    let digest = run_digest(algo, inc.prepared(), inc.graph(), gpu);
    println!("checkpoint {batch_no} {} {digest}", algo.name());
    if oracle {
        let cold = pipeline.try_apply(inc.graph(), gpu).unwrap_or_else(|e| {
            eprintln!("oracle prepare failed at batch {batch_no}: {e}");
            exit(1);
        });
        let cold_digest = run_digest(algo, &cold, inc.graph(), gpu);
        if digest != cold_digest {
            eprintln!(
                "oracle mismatch at batch {batch_no}: incremental {digest} vs from-scratch {cold_digest}"
            );
            exit(1);
        }
        log_info!("oracle ok at batch {batch_no}");
    }
}

/// Runs `algo` on a prepared graph and condenses the result vector (and the
/// simulated cost) into a short deterministic digest string. `fp=` is the
/// cache's content hash of the value bits, so it moves whenever that hash
/// does (it did at `PIPELINE_VERSION` 3): compare digests of one build.
fn run_digest(algo: Algo, prepared: &Prepared, g: &Csr, gpu: &GpuConfig) -> String {
    let plan = Baseline::Lonestar.plan(prepared, gpu);
    let (run, _) = algo.run(&plan, g, None, common::BC_SOURCES);
    format!(
        "fp={:016x} cycles={}",
        graffix::core::query::fingerprint_bytes(&value_bytes(&run.values)),
        run.stats.elapsed_cycles(gpu)
    )
}
